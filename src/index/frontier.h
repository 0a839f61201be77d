#ifndef AGORAEO_INDEX_FRONTIER_H_
#define AGORAEO_INDEX_FRONTIER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "index/hamming_index.h"

namespace agoraeo::index {

/// How a frontier is opened: bounded by a radius (nullopt = rank the
/// whole index), optionally restricted to an allowlist, and optionally
/// bounded in length.  `allowed` and `stats` are borrowed — the caller
/// keeps them alive for the frontier's whole lifetime (partition
/// wrappers pin split allowlists themselves).
struct FrontierOptions {
  std::optional<uint32_t> radius;
  const CandidateSet* allowed = nullptr;
  /// The most hits the consumer will ever pull (0 = unbounded); what
  /// lies past it is unspecified.  A bounded frontier may end at
  /// `limit` and need not buffer more than that many hits: k-NN opens
  /// with limit k, so a pinned stream never holds the whole ranking.
  size_t limit = 0;
  /// Work counters the walk adds to as it proceeds (null = none).
  SearchStats* stats = nullptr;
};

/// A lazy, resumable hit stream in canonical (distance, id) order — the
/// one ranking primitive of the index stack.  Draining a frontier
/// yields every (allowed) item within the radius, or every (allowed)
/// item when no radius is set, up to the limit; work is deferred:
/// implementations expand probe rings or drain distance buckets only
/// as far as the consumer actually pulls.
///
/// Frontiers are snapshots: once opened they never observe later index
/// mutations (partition wrappers open them on pinned immutable sealed
/// segments and snapshot the small mutable tail up front).  They are
/// single-consumer — callers serialise Next() themselves.
class HitFrontier {
 public:
  virtual ~HitFrontier() = default;

  /// Appends up to `n` further hits to `out` in (distance, id) order.
  /// Returns the number appended; 0 means the frontier is exhausted
  /// (and every later call returns 0).  May return fewer than `n`
  /// without being exhausted only when exhaustion follows immediately.
  virtual size_t Next(size_t n, std::vector<SearchResult>* out) = 0;
};

/// Pulls up to `n` hits from `frontier` (all of them by default) — the
/// list view of a frontier for callers that want one.
std::vector<SearchResult> Drain(HitFrontier& frontier, size_t n = SIZE_MAX);

/// A frontier over an already materialised (distance, id)-sorted hit
/// list — bounded top-k scans, the mutable-segment snapshot, and tests.
class MaterializedFrontier : public HitFrontier {
 public:
  explicit MaterializedFrontier(std::vector<SearchResult> hits)
      : hits_(std::move(hits)) {}

  size_t Next(size_t n, std::vector<SearchResult>* out) override;

 private:
  std::vector<SearchResult> hits_;
  size_t pos_ = 0;
};

/// A frontier over hits collected eagerly (one scan pass at open) but
/// sorted lazily: the constructor groups them by distance with one
/// counting pass, and each distance group is put into id order only
/// when the consumer reaches it, so deep groups a shallow page never
/// touches are never sorted.  `hits` may come in any order; every
/// distance must be at most `max_distance`.
class DistanceBucketFrontier : public HitFrontier {
 public:
  DistanceBucketFrontier(std::vector<SearchResult> hits,
                         uint32_t max_distance);

  size_t Next(size_t n, std::vector<SearchResult>* out) override;

 private:
  std::vector<SearchResult> hits_;  ///< grouped by ascending distance
  /// ends_[d]: one past the last hit at distance d.
  std::vector<size_t> ends_;
  size_t distance_ = 0;  ///< group currently being drained
  size_t pos_ = 0;       ///< next hit to emit
};

/// K-way merge of child frontiers into one (distance, id)-ordered
/// stream — the gather step of the partition layers (segments within a
/// shard, shards within an index), pulling children in small chunks so
/// a deep merge stays as lazy as its laziest child.  Children hold
/// disjoint ids, so the merge reproduces exactly what one flat frontier
/// over the union would emit.  Also carries opaque pins keeping
/// whatever the children borrow (sealed segments, split allowlists)
/// alive for the frontier's lifetime.
class MergingFrontier : public HitFrontier {
 public:
  /// Children must be added before the first Next() call.
  void AddChild(std::unique_ptr<HitFrontier> child);
  /// Keeps `pin` alive as long as this frontier (sealed-segment
  /// indexes, per-shard allowlist splits, ...).
  void AddPin(std::shared_ptr<const void> pin);

  size_t Next(size_t n, std::vector<SearchResult>* out) override;

 private:
  struct Child {
    std::unique_ptr<HitFrontier> frontier;
    std::deque<SearchResult> buffer;
    bool exhausted = false;
  };

  /// Ensures child c has a buffered head (or is marked exhausted).
  void Refill(Child* child);

  std::vector<Child> children_;
  std::vector<std::shared_ptr<const void>> pins_;
  /// Heads heap: indices into children_, ordered so the child whose
  /// buffered head is smallest under (distance, id) is popped first.
  std::vector<size_t> heap_;
  bool started_ = false;
};

}  // namespace agoraeo::index

#endif  // AGORAEO_INDEX_FRONTIER_H_
