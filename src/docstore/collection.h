#ifndef AGORAEO_DOCSTORE_COLLECTION_H_
#define AGORAEO_DOCSTORE_COLLECTION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "docstore/filter.h"
#include "docstore/histogram.h"
#include "docstore/index.h"
#include "docstore/value.h"

namespace agoraeo::docstore {

/// Execution trace of one query; lets tests and benchmarks verify which
/// plan was chosen (index scan vs. collection scan) and its work.
struct QueryStats {
  /// Documents given the per-document filter check: every document for
  /// a COLLSCAN, else the driving ids that every probed posting list
  /// also holds.
  size_t docs_examined = 0;
  size_t index_candidates = 0;  ///< ids of the driving access path
  /// "COLLSCAN", "IXSCAN(<index>)" when one index serves the plan, or
  /// "IXAND(<driver>, <probed>...)", e.g.
  /// "IXAND(range:properties.date_ordinal, multikey:properties.labels)".
  std::string plan = "COLLSCAN";
};

/// A named set of documents with secondary indexes and a small query
/// planner — the collection abstraction EarthQube's MongoDB data tier
/// provides (metadata, image data, rendered images, feedback).
///
/// The planner turns a filter's top-level conjuncts into access paths:
/// hash and multikey posting lists, one merged B+-tree interval per
/// range-indexed path (from the first range conjunct alone on a path
/// holding arrays), and geo covers.  The path with the smallest
/// count-only estimate drives: its sorted ids are walked, every other
/// posting list is probed in place by galloping search, and only ids
/// that pass the probes are checked against the complete filter
/// (indexes never return false positives to callers).
class Collection {
 public:
  explicit Collection(std::string name) : name_(std::move(name)) {}

  Collection(const Collection&) = delete;
  Collection& operator=(const Collection&) = delete;
  Collection(Collection&&) = default;
  Collection& operator=(Collection&&) = default;

  /// Inserts a document, assigning a fresh DocId.  Fails with
  /// AlreadyExists when a unique index key collides (document not
  /// inserted).
  StatusOr<DocId> Insert(Document doc);

  /// Removes a document; NotFound when absent.
  Status Remove(DocId id);

  /// Replaces a document in place, maintaining all indexes.
  Status Update(DocId id, Document doc);

  /// Fetches a document (nullptr when absent).
  const Document* Get(DocId id) const;

  /// Ids of documents matching `filter`, in DocId order; `limit` of 0
  /// means unlimited.
  std::vector<DocId> FindIds(const Filter& filter, size_t limit = 0,
                             QueryStats* stats = nullptr) const;

  /// Matching documents (pointers valid until the next mutation).
  std::vector<const Document*> Find(const Filter& filter, size_t limit = 0,
                                    QueryStats* stats = nullptr) const;

  /// FindIds and Find in one pass: appends each match's id to `ids` and
  /// its document to `docs` (either may be null), in DocId order.
  void FindWithDocs(const Filter& filter, size_t limit, QueryStats* stats,
                    std::vector<DocId>* ids,
                    std::vector<const Document*>* docs) const;

  /// First match or NotFound.
  StatusOr<DocId> FindOneId(const Filter& filter) const;

  /// Number of matching documents.
  size_t Count(const Filter& filter, QueryStats* stats = nullptr) const;

  /// Cheap upper-bound estimate of how many documents match `filter`,
  /// the collection size when no index or histogram applies: the
  /// smallest count-only estimate among the planner's access paths
  /// (posting-list lengths, geo cell sums, the per-field equi-width
  /// histograms or B+-tree interval counts), so no candidate id vector
  /// is ever materialised.  Query planners use this to gauge filter
  /// selectivity without paying for the full query.  `plan` (optional)
  /// receives the access path the estimate came from ("IXSCAN(...)",
  /// "HISTOGRAM(<path>)" or "COLLSCAN").
  size_t EstimateMatches(const Filter& filter,
                         std::string* plan = nullptr) const;

  /// The cardinality histogram maintained for a range-indexed numeric
  /// path (nullptr when the path has no range index).  Exposed for tests.
  const FieldHistogram* HistogramFor(const std::string& path) const;

  /// Aggregation used by the label-statistics view: counts occurrences of
  /// every element of the array field at `path` across documents matching
  /// `filter` (e.g. how many retrieved images carry each label).
  std::map<std::string, size_t> CountByArrayField(
      const std::string& path, const Filter& filter) const;

  // --- index management -----------------------------------------------

  /// Creates an exact-match index; `unique` rejects duplicate keys.
  /// Existing documents are indexed immediately.
  Status CreateHashIndex(const std::string& path, bool unique = false);
  Status CreateMultikeyIndex(const std::string& path);
  Status CreateGeoIndex(const std::string& path, int precision = 5);
  /// Creates an order-preserving B+-tree index used for range filters
  /// (Gt/Gte/Lt/Lte and conjunctions of them, e.g. acquisition-date
  /// ranges) as well as equality.
  Status CreateRangeIndex(const std::string& path);

  const std::string& name() const { return name_; }
  size_t size() const { return docs_.size(); }

  /// All documents in id order (for persistence and iteration).
  const std::map<DocId, Document>& docs() const { return docs_; }

  /// Index specs, for persistence.
  struct IndexSpec {
    enum class Kind { kHash, kUniqueHash, kMultikey, kGeo, kRange } kind;
    std::string path;
    int geo_precision = 5;
  };
  std::vector<IndexSpec> IndexSpecs() const;

 private:
  struct AccessPath;
  /// The index-assisted access paths for `filter`'s conjuncts, empty
  /// when no index applies.
  std::vector<AccessPath> AccessPaths(const Filter& filter) const;

  /// Adds (or removes) one document's numeric values to the per-field
  /// histograms of every range-indexed path.
  void UpdateHistograms(const Document& doc, bool add);

  std::string name_;
  DocId next_id_ = 1;
  std::map<DocId, Document> docs_;
  std::vector<std::unique_ptr<HashIndex>> hash_indexes_;
  std::vector<std::unique_ptr<MultikeyIndex>> multikey_indexes_;
  std::vector<std::unique_ptr<GeoIndex>> geo_indexes_;
  std::vector<std::unique_ptr<RangeIndex>> range_indexes_;
  /// One equi-width cardinality histogram per range-indexed path,
  /// maintained on every insert/remove/update; feeds EstimateMatches.
  std::vector<std::pair<std::string, FieldHistogram>> histograms_;
};

}  // namespace agoraeo::docstore

#endif  // AGORAEO_DOCSTORE_COLLECTION_H_
