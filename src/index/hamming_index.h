#ifndef AGORAEO_INDEX_HAMMING_INDEX_H_
#define AGORAEO_INDEX_HAMMING_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_code.h"
#include "common/status.h"

namespace agoraeo {
class ThreadPool;
}

namespace agoraeo::index {

struct FrontierOptions;  // index/frontier.h
class HitFrontier;       // index/frontier.h

/// Identifier of an indexed item (EarthQube uses the metadata DocId of
/// the image patch).
using ItemId = uint64_t;

/// One search hit: an item and its Hamming distance to the query.
struct SearchResult {
  ItemId id;
  uint32_t distance;

  bool operator==(const SearchResult& o) const {
    return id == o.id && distance == o.distance;
  }
};

/// Orders results by (distance, id) — the canonical result order all
/// index implementations return, so they are comparable in tests.
bool ResultLess(const SearchResult& a, const SearchResult& b);

/// An allowlist of item ids for candidate-restricted searches (the
/// pre-filter side of hybrid metadata ∧ similarity queries): the ids a
/// search may return, held sorted for O(log n) membership tests.
class CandidateSet {
 public:
  CandidateSet() = default;
  /// Takes any id list; sorts and deduplicates it.
  explicit CandidateSet(std::vector<ItemId> ids);

  bool Contains(ItemId id) const;
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  /// Sorted, deduplicated ids.
  const std::vector<ItemId>& ids() const { return ids_; }

 private:
  std::vector<ItemId> ids_;
};

/// Counters describing the work one frontier walk performed; used by
/// the benchmark harness to report candidate counts (experiment E3).
/// A walk only adds to them, and only as far as it has gone: the
/// figures of a fully drained frontier are those of the whole search.
struct SearchStats {
  size_t buckets_probed = 0;    ///< hash buckets / tree nodes examined
  size_t candidates = 0;        ///< items whose distance was evaluated
  size_t results = 0;           ///< hits collected for emission
};

/// Interface of a binary-code nearest-neighbour index.  All codes added
/// to one index must have the same length.
class HammingIndex {
 public:
  virtual ~HammingIndex() = default;

  /// Adds an item; InvalidArgument when the code length differs from
  /// previously added codes.
  virtual Status Add(ItemId id, const BinaryCode& code) = 0;

  /// Adds a whole id/code batch (`ids[i]` ↔ `codes[i]`; the vectors must
  /// match in length).  The default is a sequential Add loop and ignores
  /// `pool`; the sharded index overrides it to ingest every partition's
  /// slice in parallel.  On error the batch may be partially applied
  /// (the same contract a caller's own Add loop would have).
  virtual Status BatchAdd(const std::vector<ItemId>& ids,
                          const std::vector<BinaryCode>& codes,
                          ThreadPool* pool = nullptr);

  // --- ranked access: the only search entry point -------------------------

  /// Opens a lazy (distance, id)-ordered hit stream (see
  /// index/frontier.h).  A radius search pulls hits until the stream
  /// ends; a k-NN search opens with `options.limit = k` and pulls k
  /// hits; a restricted search passes `options.allowed`.  Drained, the
  /// stream is every (allowed) item within the radius — or every
  /// (allowed) item at all when no radius is set — in canonical order,
  /// truncated to `options.limit` when one is set.  Implementations
  /// defer work to Next() pulls where they can: the linear scan drains
  /// distance buckets fed by one kernel pass, the hash tables walk
  /// probe rings outward.
  ///
  /// The returned frontier borrows this index (and `options.allowed`
  /// and `options.stats`); the caller keeps them alive — partition
  /// wrappers instead return self-contained frontiers pinning their
  /// sealed segments.
  virtual std::unique_ptr<HitFrontier> OpenFrontier(
      const BinaryCode& query, const FrontierOptions& options) const = 0;

  /// Batched open: slot i equals OpenFrontier(queries[i], options).
  /// The default is one open per query, sharded across `pool` (opens
  /// that scan up front run in parallel); the linear scan overrides it
  /// to fill every frontier from one cache-blocked kernel pass, and the
  /// partition wrappers fan the batch out once per shard.
  /// `options.stats` must be null: per-query work counters need single
  /// opens.
  virtual std::vector<std::unique_ptr<HitFrontier>> OpenFrontiers(
      const std::vector<BinaryCode>& queries, const FrontierOptions& options,
      ThreadPool* pool = nullptr) const;

  virtual size_t size() const = 0;
  virtual std::string Name() const = 0;
};

}  // namespace agoraeo::index

#endif  // AGORAEO_INDEX_HAMMING_INDEX_H_
