#ifndef AGORAEO_EARTHQUBE_QUERY_REQUEST_H_
#define AGORAEO_EARTHQUBE_QUERY_REQUEST_H_

#include <optional>
#include <string>
#include <vector>

#include "bigearthnet/patch.h"
#include "common/binary_code.h"
#include "common/status.h"
#include "docstore/collection.h"
#include "earthqube/cbir_service.h"
#include "earthqube/query.h"
#include "earthqube/result_panel.h"
#include "earthqube/statistics.h"

namespace agoraeo::earthqube {

/// The similarity half of a unified query: what to search near (exactly
/// one subject) and how (radius or k-NN, exactly one mode).
struct SimilaritySpec {
  /// Subject — exactly one must be set.
  std::optional<std::string> archive_name;  ///< query-by-archive-image
  std::optional<bigearthnet::Patch> patch;  ///< query-by-new-example
  std::optional<BinaryCode> code;           ///< query-by-raw-code

  /// Mode — exactly one must be set.
  std::optional<uint32_t> radius;
  std::optional<size_t> k;

  /// Cap on returned hits (0 = unlimited; ignored in k-NN mode where k
  /// already bounds the result).
  size_t limit = 0;

  static SimilaritySpec NameRadius(std::string name, uint32_t radius,
                                   size_t limit = 0);
  static SimilaritySpec NameKnn(std::string name, size_t k);
  static SimilaritySpec PatchRadius(bigearthnet::Patch patch, uint32_t radius,
                                    size_t limit = 0);
  static SimilaritySpec CodeRadius(BinaryCode code, uint32_t radius,
                                   size_t limit = 0);
  static SimilaritySpec CodeKnn(BinaryCode code, size_t k);

  /// InvalidArgument unless exactly one subject and exactly one mode are
  /// set (`radius` and `k` together are ambiguous and rejected).
  Status Validate() const;
};

/// What the response materialises.
enum class Projection {
  kFullPanel,  ///< metadata join: result panel + label statistics
  kHitsOnly,   ///< raw (name, distance) hits; no join, no statistics
};

/// Planner control: kAuto picks pre- vs post-filter from the estimated
/// filter selectivity; the force modes pin a strategy (tests and the
/// crossover benchmark rely on both producing identical result sets).
enum class PlannerMode { kAuto, kForcePreFilter, kForcePostFilter };

/// One unified query submission: optional metadata panel, optional
/// similarity spec (both present = hybrid filter ∧ similarity), paging
/// and projection.  At least one of panel/similarity must be present.
struct QueryRequest {
  std::optional<EarthQubeQuery> panel;
  std::optional<SimilaritySpec> similarity;
  Projection projection = Projection::kFullPanel;
  PlannerMode planner = PlannerMode::kAuto;
  /// 0-based page over the materialised result; `page_size` of 0
  /// disables paging (everything in one response, no cursor).
  size_t page = 0;
  size_t page_size = kPageSize;

  Status Validate() const;
};

/// The plan the executor chose, reported back to the caller.
struct QueryPlan {
  enum class Strategy {
    kPanelOnly,   ///< docstore query, no similarity
    kCbirOnly,    ///< similarity search, no metadata filter
    kPreFilter,   ///< filter -> candidate set -> restricted Hamming search
    kPostFilter,  ///< Hamming search -> metadata join -> filter
  };
  Strategy strategy = Strategy::kPanelOnly;
  std::string description;
  /// Hybrid only: estimated fraction of the collection matching the
  /// metadata filter (what the pre/post decision was based on).
  double estimated_selectivity = 1.0;
  size_t estimated_filter_matches = 0;
};

const char* StrategyToString(QueryPlan::Strategy strategy);

/// The unified response: the result (a panel query holds only the
/// requested page's rows, other non-windowed responses the whole result
/// that serialisation slices to the page), the plan, and a continuation
/// cursor.
struct QueryResponse {
  ResultPanel panel{std::vector<ResultEntry>{}};
  std::vector<CbirResult> hits;  ///< set for similarity queries
  LabelStatistics statistics;
  docstore::QueryStats query_stats;
  QueryPlan plan;
  Projection projection = Projection::kFullPanel;
  size_t page = 0;
  size_t page_size = kPageSize;
  /// Opaque continuation cursor for the next page; empty when this page
  /// exhausts the result.
  std::string cursor;
  /// Ranked direct access: `hits`/`panel` hold ONLY the requested
  /// window (the executor streamed just past it instead of
  /// materialising the full ranking).  The serialiser must not slice
  /// again, and the reported total is a lower bound:
  /// page*page_size + window + 1 iff a further page exists.
  bool windowed = false;
  /// Whether this response was served from the query-response cache.
  /// The only field that may differ between a cached response and the
  /// equivalent freshly executed one.
  bool served_from_cache = false;

  /// Total result count (panel entries, or raw hits for kHitsOnly).
  size_t total() const;
};

/// Paging cursor: an opaque token encoding (page, page_size) plus an
/// optional ranked-access handle id.  With a handle the next page
/// resumes the pinned shard-frontier stream (O(k log shards)); without
/// one — or when the handle is gone — the page re-executes statelessly.
struct PageCursor {
  size_t page = 0;
  size_t page_size = kPageSize;
  /// Ranked-access handle id (RankedAccess::HandleIdFor of the
  /// page-free request fingerprint); empty = stateless v2 cursor.
  std::string handle = {};
};

/// Emits the legacy v2 token when `handle` is empty, v3 otherwise.
std::string EncodeCursor(const PageCursor& cursor);
/// Accepts both v2 and v3 tokens.  Rejects tokens whose page window
/// would overflow size_t arithmetic (cursor payloads are
/// client-controlled).  Every rejection is kCursorExpired, which the
/// HTTP tier maps onto the 410 `cursor_expired` error envelope instead
/// of a generic 400.
StatusOr<PageCursor> DecodeCursor(const std::string& token);

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_QUERY_REQUEST_H_
