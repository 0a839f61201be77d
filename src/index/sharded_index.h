#ifndef AGORAEO_INDEX_SHARDED_INDEX_H_
#define AGORAEO_INDEX_SHARDED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "index/hamming_index.h"
#include "index/segmented_index.h"
#include "obs/metrics.h"

namespace agoraeo::index {

/// Observability counters of one ShardedHammingIndex (the per-shard
/// agoraeo_index_* samples of /metrics).  All counters are monotonic
/// over the index lifetime.
struct ShardedIndexStats {
  size_t num_shards = 0;
  std::vector<size_t> shard_sizes;     ///< items per shard (routing balance)
  std::vector<size_t> shard_segments;  ///< sealed segments per shard
  uint64_t seals = 0;                  ///< seal (rotate) events across shards
  uint64_t compactions = 0;            ///< sealed-segment merges across shards
  uint64_t sealed_items = 0;           ///< items served lock-free from sealed segments
  uint64_t mutable_items = 0;          ///< items still in mutable segments
  uint64_t single_fanouts = 0;         ///< single-query frontier opens
  uint64_t batch_fanouts = 0;          ///< batched opens fanned across shards
  uint64_t fanout_tasks = 0;           ///< per-shard tasks those batches issued
  uint64_t merge_nanos = 0;            ///< time spent gathering shard frontiers
};

/// The partition layer of the index stack: wraps N independent
/// segment-structured indexes (any of the four kinds, built by a
/// factory) into one hash-partitioned index.
///
/// Routing is id-stable: shard(id) = mix64(id) % N, so an item lives on
/// exactly one shard for the index lifetime and candidate allowlists can
/// be split per shard without consulting the data.  Every open
/// scatters to all shards and gathers with the canonical (distance, id)
/// k-way merge, so results are identical to an unsharded index over
/// the same items:
///   - A bounded (k-NN) open bounds every shard at the same limit: the
///     global top-k is a subset of the union of per-shard top-k.
///   - Restricted opens split the allowlist per shard by routing, so a
///     shard only tests membership against ids it can actually hold.
///   - Batched opens issue ONE task per shard per batch — each task
///     opens the whole query batch against its shard (sequentially, so
///     there is no nested sharding) — which is what lets the execution
///     engine's fused micro-batches use multiple cores inside a single
///     index pass.  A null pool degrades to a sequential shard loop.
///
/// Concurrency: each shard IS a SegmentedHammingIndex, which owns the
/// synchronisation — sealed segments are read with no lock at all
/// (readers pin the segment list via an atomic shared_ptr), and only
/// the small mutable segment takes a shared_mutex.  This layer holds no
/// locks of its own; the per-shard shared_mutex that used to serialise
/// every read against ingest is gone from the read hot path.
class ShardedHammingIndex : public HammingIndex {
 public:
  using ShardFactory = std::function<std::unique_ptr<HammingIndex>()>;

  /// Builds `num_shards` empty segment-structured shards over `factory`
  /// (0 is clamped to 1).  `seal_threshold` is each shard's mutable-
  /// segment seal point (0 = never auto-seal: one mutable segment per
  /// shard, the exact pre-segment behaviour); `compact_threshold` is
  /// each shard's sealed-segment merge point (0 = never compact — see
  /// SegmentedHammingIndex).
  ShardedHammingIndex(size_t num_shards, const ShardFactory& factory,
                      size_t seal_threshold = 0, size_t compact_threshold = 0);

  /// The id-stable routing function (exposed so tests and allowlist
  /// splitting agree with the index by construction).
  static size_t ShardOf(ItemId id, size_t num_shards);

  Status Add(ItemId id, const BinaryCode& code) override;
  Status BatchAdd(const std::vector<ItemId>& ids,
                  const std::vector<BinaryCode>& codes,
                  ThreadPool* pool = nullptr) override;

  /// Lazy ranked access: a k-way merge over per-shard frontiers, each
  /// pulled in small chunks — page N of the global ranking costs an
  /// O(k·log shards) heap resume instead of every shard overfetching
  /// its full top-k.  Allowlists are split per shard by routing (the
  /// split is pinned inside the returned frontier).
  std::unique_ptr<HitFrontier> OpenFrontier(
      const BinaryCode& query, const FrontierOptions& options) const override;

  /// Batched flavour: one task per shard opens the whole batch on its
  /// shard; slot i merges every shard's frontier for query i.
  std::vector<std::unique_ptr<HitFrontier>> OpenFrontiers(
      const std::vector<BinaryCode>& queries, const FrontierOptions& options,
      ThreadPool* pool = nullptr) const override;

  size_t size() const override;
  std::string Name() const override;

  /// Seals (rotates) every shard's mutable segment — the on-demand
  /// snapshot path calls this so snapshot boundaries coincide with
  /// segment boundaries.
  Status SealAll();

  size_t num_shards() const { return shards_.size(); }
  size_t seal_threshold() const { return seal_threshold_; }
  /// Direct access to one shard's segment structure (tests, stats).
  const SegmentedHammingIndex& shard(size_t s) const { return *shards_[s]; }
  ShardedIndexStats Stats() const;

  /// Installs a latency histogram over individual per-shard scan tasks
  /// (single-query and batched passes alike).  Null uninstalls; the
  /// histogram must outlive the index.
  void set_scan_histogram(obs::Histogram* histogram) {
    scan_histogram_ = histogram;
  }

 private:
  /// Enforces the one-code-length contract ACROSS shards: without this
  /// a mismatched code could land on a still-empty shard and be
  /// accepted, which a monolithic index would reject.
  Status CheckCodeLength(const BinaryCode& code);

  /// Splits an allowlist into one CandidateSet per shard by routing.
  std::vector<CandidateSet> SplitAllowlist(const CandidateSet& allowed) const;

  /// Runs `task(shard)` for every shard: one pool task per shard when a
  /// multi-worker pool is given, a plain loop otherwise.  Blocks until
  /// all shards finish.
  void ForEachShard(ThreadPool* pool,
                    const std::function<void(size_t)>& task) const;

  std::vector<std::unique_ptr<SegmentedHammingIndex>> shards_;
  size_t seal_threshold_ = 0;
  /// Code length every shard must agree on; 0 until the first accepted
  /// code anchors it.
  std::atomic<size_t> code_bits_{0};

  mutable std::atomic<uint64_t> single_fanouts_{0};
  mutable std::atomic<uint64_t> batch_fanouts_{0};
  mutable std::atomic<uint64_t> fanout_tasks_{0};
  mutable std::atomic<uint64_t> merge_nanos_{0};
  obs::Histogram* scan_histogram_ = nullptr;
};

}  // namespace agoraeo::index

#endif  // AGORAEO_INDEX_SHARDED_INDEX_H_
