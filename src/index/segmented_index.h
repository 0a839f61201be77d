#ifndef AGORAEO_INDEX_SEGMENTED_INDEX_H_
#define AGORAEO_INDEX_SEGMENTED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "index/hamming_index.h"

namespace agoraeo::index {

/// Observability counters of one SegmentedHammingIndex.
struct SegmentedIndexStats {
  size_t num_sealed = 0;     ///< sealed (immutable) segments
  size_t sealed_items = 0;   ///< items across sealed segments
  size_t mutable_items = 0;  ///< items in the mutable segment
  uint64_t seals = 0;        ///< lifetime seal (rotate) count
  uint64_t compactions = 0;  ///< lifetime sealed-segment merges
  uint64_t compacted_segments = 0;  ///< segments consumed by compactions
};

/// Memtable-style segment structure over any HammingIndex kind: one
/// small MUTABLE segment absorbs Add/BatchAdd while a list of SEALED
/// immutable segments serves the bulk of every read lock-free.
///
/// Concurrency protocol (the whole point of the structure):
///   - The sealed-segment list lives behind an atomic shared_ptr.
///     Readers pin it with one atomic load and scan the sealed segments
///     with NO lock — sealed segments are never mutated again, so the
///     pinned view stays valid however long the scan takes and however
///     many seals happen meanwhile.
///   - Only the mutable segment is guarded by a shared_mutex: writers
///     take it exclusively for the duration of one (small) segment's
///     Add, readers take it shared just long enough to query the small
///     mutable tail and load the sealed list — the list load happens
///     under the same lock the sealer swaps under, so a reader's view
///     (sealed ∪ mutable) never misses or double-counts an item that a
///     concurrent seal is moving between the two.
///   - Seal (rotate) freezes the mutable segment: under the exclusive
///     lock it is appended to a copy of the sealed list, the copy is
///     atomically published, and a fresh empty mutable segment is
///     installed.  O(segments) pointer copies; no data moves.
///
/// Reads gather across segments exactly like the sharded index gathers
/// across shards — per-segment frontiers k-way merged by a
/// MergingFrontier — so results are byte-identical to one flat index
/// over the same items.  `seal_threshold` of 0 never auto-seals: everything
/// stays in the mutable segment and the structure degenerates to the
/// plain locked index it replaced (the pre-segment behaviour).
class SegmentedHammingIndex : public HammingIndex {
 public:
  using SegmentFactory = std::function<std::unique_ptr<HammingIndex>()>;

  /// `factory` builds each segment (all of one kind); the mutable
  /// segment seals automatically when it reaches `seal_threshold` items
  /// (0 = only on explicit Seal()).  `compact_threshold` bounds the
  /// per-query segment fan-out: whenever a seal leaves MORE than this
  /// many sealed segments they are merged into one (0 = never compact —
  /// the pre-compaction behaviour).  Compaction retains a copy of every
  /// sealed item's (id, code), so enabling it costs one extra code copy
  /// per item; the merge itself runs under the writer lock (readers on
  /// the old pinned list are unaffected) and rebuilds one segment with
  /// a single BatchAdd.  Results are unchanged by construction: every
  /// segment kind streams (distance, id)-sorted hits and the k-way
  /// merge is associative over segment boundaries.
  explicit SegmentedHammingIndex(SegmentFactory factory,
                                 size_t seal_threshold = 0,
                                 size_t compact_threshold = 0);

  Status Add(ItemId id, const BinaryCode& code) override;
  /// Adds the whole batch under ONE exclusive-lock acquisition (readers
  /// see none or all of it), sealing at every threshold crossing.
  /// `pool` is ignored: segment fills are inherently sequential; the
  /// partition layer above parallelises across shards.
  Status BatchAdd(const std::vector<ItemId>& ids,
                  const std::vector<BinaryCode>& codes,
                  ThreadPool* pool = nullptr) override;

  /// Lazy ranked access with snapshot semantics: the sealed-segment
  /// list is pinned and the small mutable tail snapshotted in one
  /// critical section — the tail by draining that segment's own
  /// frontier to `options.limit` — so the frontier never observes
  /// later ingest however long it lives.  The returned frontier owns
  /// shared_ptr pins on every sealed segment it streams from and is
  /// safe to hold across seals and compactions.
  std::unique_ptr<HitFrontier> OpenFrontier(
      const BinaryCode& query, const FrontierOptions& options) const override;

  /// Batched flavour: one batched open per segment (the pool is handed
  /// to each segment's own batched open), merged per query.
  std::vector<std::unique_ptr<HitFrontier>> OpenFrontiers(
      const std::vector<BinaryCode>& queries, const FrontierOptions& options,
      ThreadPool* pool = nullptr) const override;

  size_t size() const override;
  /// Transparent: the wrapped kind's name, so observability strings
  /// ("sharded(LinearScan, 4)") are independent of segmentation.
  std::string Name() const override { return base_name_; }

  /// Seals (rotates) the mutable segment now — a no-op when it is
  /// empty.  Used by on-demand snapshots so the snapshot boundary
  /// coincides with a segment boundary.
  Status Seal();

  size_t seal_threshold() const { return seal_threshold_; }
  size_t compact_threshold() const { return compact_threshold_; }
  SegmentedIndexStats Stats() const;

 private:
  /// One sealed segment: the immutable index plus (when compaction is
  /// on) the retained items it was built from, so a later merge can
  /// rebuild without enumerating the index.
  struct SealedSegment {
    std::shared_ptr<const HammingIndex> index;
    std::shared_ptr<const std::vector<std::pair<ItemId, BinaryCode>>> items;
  };
  using SegmentList = std::vector<SealedSegment>;

  /// Same cross-segment code-length anchor as the sharded layer: a
  /// fresh mutable segment would otherwise accept a length the sealed
  /// segments reject.
  Status CheckCodeLength(const BinaryCode& code);

  /// Rotates under an already-held exclusive lock.
  void SealLocked();

  /// Merges all sealed segments into one when their count exceeds
  /// compact_threshold_; called under the exclusive lock after a seal.
  void MaybeCompactLocked(std::shared_ptr<SegmentList>* next);

  /// The shared read protocol: under the shared lock, pins the sealed
  /// list and runs `open_mutable` against the mutable segment (skipped
  /// when it is empty) — so a concurrent seal cannot make an item
  /// appear in both views, or in neither — and returns the pinned list.
  std::shared_ptr<const SegmentList> PinSegments(
      const std::function<void(const HammingIndex&)>& open_mutable) const;

  SegmentFactory factory_;
  size_t seal_threshold_;
  size_t compact_threshold_;
  std::string base_name_;

  /// Guards mutable_ (and orders sealed-list swaps against readers'
  /// list loads).  Sealed-segment scans happen OUTSIDE this lock.
  mutable std::shared_mutex mu_;
  std::unique_ptr<HammingIndex> mutable_;
  /// (id, code) pairs of the mutable segment, retained only when
  /// compaction is on; moves into the SealedSegment on seal.
  std::vector<std::pair<ItemId, BinaryCode>> mutable_items_;
  std::atomic<std::shared_ptr<const SegmentList>> sealed_;

  std::atomic<size_t> code_bits_{0};
  std::atomic<uint64_t> seals_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> compacted_segments_{0};
};

}  // namespace agoraeo::index

#endif  // AGORAEO_INDEX_SEGMENTED_INDEX_H_
