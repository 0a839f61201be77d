#ifndef AGORAEO_EARTHQUBE_CBIR_SERVICE_H_
#define AGORAEO_EARTHQUBE_CBIR_SERVICE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"

#include "bigearthnet/feature_extractor.h"
#include "bigearthnet/patch.h"
#include "common/binary_code.h"
#include "common/status.h"
#include "common/wal_framing.h"
#include "index/frontier.h"
#include "index/hamming_index.h"
#include "index/index_wal.h"
#include "index/segmented_index.h"
#include "index/sharded_index.h"
#include "milan/milan_model.h"
#include "obs/observability.h"

namespace agoraeo::earthqube {

/// Construction knobs of the CBIR service.  The served index is always
/// the SIMD linear scan (index::LinearScanIndex); these knobs only pick
/// how it is partitioned, pooled and persisted.
struct CbirConfig {
  /// Pool the batch queries (and sharded passes) run across: 0 picks the
  /// hardware concurrency, 1 disables threading.  Created lazily.
  size_t query_threads = 0;
  /// Partitions of the Hamming index.  1 (the default) builds one
  /// monolithic scan; > 1 builds an N-way ShardedHammingIndex of scans:
  /// ingest is parallelised per shard and every batched query pass fans
  /// out one task per shard across the query pool.
  size_t num_shards = 1;

  // --- persistence ---------------------------------------------------------

  /// Directory holding the index's durable state — one `shard-<s>.snap`
  /// per shard plus the `index.wal` ingest log.  Empty (the default)
  /// disables durability entirely: the index is in-memory only.  Call
  /// Recover() before the first AddImage to restore and start logging.
  std::string snapshot_dir;

  /// Seal point of every shard's mutable segment: once it holds this
  /// many items it is frozen into the lock-free sealed list and a fresh
  /// mutable segment starts (0 = never auto-seal: one unsegmented
  /// index).  Doubles as the snapshot cadence: a shard's snapshot is
  /// refreshed after this many new items arrive.
  size_t seal_threshold = 0;

  /// Sealed-segment compaction point of every shard: once a shard holds
  /// MORE than this many sealed segments they are merged into one,
  /// bounding the per-query segment fan-out (0 = never compact).  See
  /// SegmentedHammingIndex.
  size_t compact_threshold = 0;

  /// Durability of each index WAL append (ignored without a
  /// snapshot_dir).  kFlush survives a process crash, kFsync survives
  /// power loss, kNone leaves the tail in stdio buffers.
  WalSyncMode wal_sync = WalSyncMode::kFlush;
};

/// Observability of the persistence layer (metrics collectors + tests).
struct CbirPersistenceStats {
  bool enabled = false;       ///< snapshot_dir configured and WAL open
  bool recovered = false;     ///< Recover() ran against this service
  uint64_t restored_items = 0;     ///< items restored from snapshots
  uint64_t replayed_items = 0;     ///< items caught up from the WAL
  uint64_t discarded_snapshots = 0;  ///< corrupt/mismatched files dropped
  uint64_t dropped_items = 0;  ///< items cut by the contiguous-prefix rule
  bool wal_tail_discarded = false;  ///< recovery found a torn WAL tail
  uint64_t wal_records = 0;         ///< records appended since open
  uint64_t snapshots_written = 0;   ///< shard snapshot files written
};

/// One retrieved image.
struct CbirResult {
  std::string patch_name;
  uint32_t hamming_distance;
};

/// A lazy, resumable stream of named CBIR hits in (distance, ingest
/// seq) order — the one form every CBIR query takes.  Callers pull
/// results a page at a time, or drain it for the full answer: the
/// exclude name is dropped and the cap applied as hits surface.
/// Single-consumer; callers serialise against concurrent AddImages
/// themselves (the ranked-access registry does it by epoch-
/// invalidating handles on ingest).
class CbirHitStream {
 public:
  /// Appends up to `n` further results to `out`; returns the number
  /// appended, 0 once exhausted (sticky).
  size_t Next(size_t n, std::vector<CbirResult>* out);

 private:
  friend class CbirService;
  CbirHitStream() = default;

  std::unique_ptr<index::HitFrontier> frontier_;
  const std::vector<std::string>* name_by_id_ = nullptr;  ///< owner's map
  /// Keeps a caller-provided allowlist alive while the frontier borrows
  /// it (the hybrid pre-filter leg hands ownership to the stream).
  std::shared_ptr<const index::CandidateSet> allowed_pin_;
  std::string exclude_name_;
  size_t cap_ = 0;  ///< max results ever emitted; 0 = unlimited
  size_t emitted_ = 0;
  std::vector<index::SearchResult> buffer_;  ///< scratch per pull
};

/// The content-based image-retrieval service (paper Section 3.3): MiLaN
/// infers a binary code per archive image; an in-memory map from patch
/// name to code supports query-by-archive-image, the model produces
/// codes on the fly for external images, and a Hamming index returns all
/// images within a small radius of the query code.
class CbirService {
 public:
  /// Takes ownership of the trained model.  `extractor` must outlive the
  /// service.  See CbirConfig for the query pool, partition and
  /// persistence knobs.
  CbirService(std::unique_ptr<milan::MilanModel> model,
              const bigearthnet::FeatureExtractor* extractor,
              CbirConfig config = {});

  /// Restores the index from the configured snapshot_dir — per-shard
  /// snapshots first, then WAL catch-up — and opens the WAL so
  /// subsequent ingest is logged.  Boot sequence:
  ///   1. Read every shard's snapshot.  A corrupt file (CRC mismatch,
  ///      truncation, wrong shard/sharding) logs a warning and is
  ///      discarded — never fatal; that shard restores from the WAL.
  ///   2. Replay the WAL, skipping items a snapshot already covered.  A
  ///      torn tail (crash mid-append) is discarded silently.
  ///   3. Keep the longest contiguous id prefix (a discarded snapshot
  ///      can leave holes the WAL predates); anything past the first
  ///      hole is dropped so ids stay 0..n-1.
  ///   4. Bulk-load the index (BatchAdd of stored codes — NO model
  ///      inference, which is why restore beats re-ingest by orders of
  ///      magnitude) and rebuild the name/code maps.
  ///   5. After lossy recovery (steps 1 or 3 discarded anything), write
  ///      a full checkpoint immediately so disk is canonical again;
  ///      after a clean boot just truncate any torn WAL tail.
  /// A missing directory is created; no files at all is a cold start.
  /// No-op when snapshot_dir is empty.  Must run before the first
  /// AddImage — it refuses (FailedPrecondition) on a non-empty service.
  ///
  /// `keep` (optional) filters the recovered items by name — the
  /// cluster tier's slot-filtered boot: a node that migrated slots away
  /// passes "is this name's slot still mine", dropped items are
  /// discarded, survivors are renumbered to contiguous ids, and the
  /// recovery is treated as lossy (disk is re-checkpointed under the
  /// new ids).  A null predicate keeps everything.
  Status Recover() { return Recover(nullptr); }
  Status Recover(const std::function<bool(const std::string&)>& keep);

  /// Writes a full checkpoint on demand: seals every shard's mutable
  /// segment (so snapshot boundaries coincide with segment boundaries),
  /// writes every shard's snapshot at the current watermark, then
  /// resets the WAL (its records are now all covered).  FailedPrecondition
  /// without a snapshot_dir.
  Status Snapshot();

  /// Indexes one archive image with a precomputed feature vector.
  Status AddImage(const std::string& patch_name, const Tensor& feature);

  /// Indexes a feature matrix aligned with `names` (row i = names[i]).
  Status AddImages(const std::vector<std::string>& names,
                   const Tensor& features);

  /// Indexes images whose binary codes were computed elsewhere — no
  /// model inference.  The cluster tier uses this for routed ingest
  /// (the coordinator ships precomputed codes to slot owners) and for
  /// slot migration imports; ingest is WAL-logged exactly like
  /// AddImages.
  Status AddImagesWithCodes(const std::vector<std::string>& names,
                            const std::vector<BinaryCode>& codes);

  // --- queries ---------------------------------------------------------------
  //
  // Every query resolves its subject to a BinaryCode (CodeOf for
  // archive images, HashPatch for uploads, the model for raw features)
  // and opens a ranked stream on it.  `exclude_name` drops one archive
  // image from the stream (the query image itself for query-by-
  // archive-image).

  /// Opens a lazy ranked stream over the index.  `radius` set: radius
  /// search, `cap` = max_results (0 = unlimited).  `radius` empty: k-NN
  /// with `cap` = k (cap 0 streams nothing).  `allowed` (may be null)
  /// restricts candidates — the pre-filter leg of hybrid (metadata ∧
  /// similarity) queries — and is pinned inside the stream.  The
  /// stream snapshots the index at open but borrows this service's
  /// name map — it must not outlive the service.
  std::unique_ptr<CbirHitStream> OpenStream(
      const BinaryCode& code, std::optional<uint32_t> radius, size_t cap,
      std::shared_ptr<const index::CandidateSet> allowed,
      const std::string& exclude_name = {}) const;

  /// Batched open (the execution engine's micro-batch entry point):
  /// slot i equals OpenStream(codes[i], radius, caps[i], allowed,
  /// exclude_names[i]), but every stream comes from one batched index
  /// open sharded across the query pool.  `caps` and `exclude_names`
  /// must match `codes` in length.
  std::vector<std::unique_ptr<CbirHitStream>> OpenStreams(
      const std::vector<BinaryCode>& codes, std::optional<uint32_t> radius,
      const std::vector<size_t>& caps,
      std::shared_ptr<const index::CandidateSet> allowed,
      const std::vector<std::string>& exclude_names) const;

  /// Builds the ItemId allowlist for a set of patch names; names not in
  /// the CBIR index are skipped (they cannot be similarity hits anyway).
  index::CandidateSet CandidatesFromNames(
      const std::vector<std::string>& names) const;

  /// Featurises and hashes an uploaded patch (query-by-new-example
  /// subject resolution).  InvalidArgument when bands are missing.
  StatusOr<BinaryCode> HashPatch(const bigearthnet::Patch& patch) const;

  /// Hashes a [batch, feature_dim] feature matrix in ONE MiLaN forward
  /// pass (query-by-feature subject resolution; the batch amortises
  /// inference).  InvalidArgument for any other shape.
  StatusOr<std::vector<BinaryCode>> HashFeatures(const Tensor& features) const;

  /// The stored code of an archive image.
  StatusOr<BinaryCode> CodeOf(const std::string& patch_name) const;

  size_t num_indexed() const { return name_by_id_.size(); }
  /// Bit width of the indexed codes (0 while nothing is indexed).
  size_t code_bits() const {
    return name_by_id_.empty() ? 0
                               : code_by_name_.at(name_by_id_.front()).size();
  }
  /// Every indexed name in ItemId (ingestion) order — the slot
  /// migration export walks this to collect a slot's members.
  const std::vector<std::string>& indexed_names() const {
    return name_by_id_;
  }
  const milan::MilanModel& model() const { return *model_; }
  index::HammingIndex& hamming_index() { return *index_; }
  const index::HammingIndex& hamming_index() const { return *index_; }
  /// The partition layer, when this service was built with
  /// config.num_shards > 1 (nullptr for a monolithic index).  Feeds the
  /// per-shard observability endpoint.
  const index::ShardedHammingIndex* sharded_index() const { return sharded_; }
  /// The segment layer of a MONOLITHIC service built with
  /// seal_threshold > 0 (nullptr otherwise; sharded services segment
  /// inside each shard instead — see sharded_index()).
  const index::SegmentedHammingIndex* segmented_index() const {
    return segmented_;
  }
  const CbirPersistenceStats& persistence_stats() const { return pstats_; }
  /// Bytes appended to the index WAL since it was opened (0 without
  /// persistence) — the WAL-volume metric.
  uint64_t wal_bytes_appended() const { return wal_.bytes_appended(); }

  /// Wires the service's hot paths onto an observability bundle:
  /// per-shard index scan time, WAL sync latency and snapshot write
  /// latency land in `obs` histograms.  `obs` must outlive the service;
  /// null (or metrics disabled) leaves the service uninstrumented.
  void AttachObservability(obs::Observability* obs);

  /// The lazily created query pool (nullptr when query_threads == 1):
  /// batched opens shard across it, and the engine pulls a batch's
  /// streams on it.
  ThreadPool* QueryPool() const;

 private:
  /// Wraps an opened frontier into a named stream.
  std::unique_ptr<CbirHitStream> MakeStream(
      std::unique_ptr<index::HitFrontier> frontier, size_t cap,
      std::shared_ptr<const index::CandidateSet> allowed,
      const std::string& exclude_name) const;

  /// Which snapshot shard an item belongs to (matches index routing for
  /// sharded services; everything is shard 0 for monolithic ones).
  size_t SnapshotShardOf(index::ItemId id) const;

  /// Writes shard `s`'s snapshot from the in-memory maps at the current
  /// watermark (tmp + rename; see WriteIndexSnapshot).
  Status WriteShardSnapshot(size_t s);

  /// The seal-cadence auto-snapshot hook: refreshes any shard whose
  /// new-item counter crossed seal_threshold since its last snapshot.
  Status MaybeSnapshotShards();

  /// Logs one applied ingest batch and runs the snapshot cadence.
  Status LogIngest(index::ItemId first_seq,
                   const std::vector<std::string>& names,
                   const std::vector<BinaryCode>& codes);

  std::unique_ptr<milan::MilanModel> model_;
  const bigearthnet::FeatureExtractor* extractor_;
  CbirConfig config_;
  std::unique_ptr<index::HammingIndex> index_;
  /// Non-owning view of index_ as the partition layer; null when
  /// num_shards <= 1.
  index::ShardedHammingIndex* sharded_ = nullptr;
  /// Non-owning view of index_ as the segment layer; null unless
  /// monolithic with seal_threshold > 0.
  index::SegmentedHammingIndex* segmented_ = nullptr;
  /// Ingest log; open only after Recover() with a snapshot_dir.
  index::IndexWalWriter wal_;
  /// Items landed per shard since its last snapshot (snapshot cadence).
  std::vector<size_t> items_since_snapshot_;
  CbirPersistenceStats pstats_;
  /// Snapshot-write latency sink (null = untimed).
  obs::Histogram* snapshot_write_ = nullptr;
  mutable std::mutex pool_mu_;  ///< guards lazy pool creation
  mutable std::unique_ptr<ThreadPool> pool_;
  /// The paper's in-memory hash table: patch name -> binary code.
  std::unordered_map<std::string, BinaryCode> code_by_name_;
  std::vector<std::string> name_by_id_;  ///< ItemId -> patch name
  std::unordered_map<std::string, index::ItemId> id_by_name_;
};

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_CBIR_SERVICE_H_
