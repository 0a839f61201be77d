#include "earthqube/cbir_service.h"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/logging.h"
#include "index/index_snapshot.h"
#include "index/linear_scan.h"

namespace agoraeo::earthqube {

namespace {

std::unique_ptr<index::HammingIndex> MakeScan() {
  return std::make_unique<index::LinearScanIndex>();
}

std::string IndexWalPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "index.wal").string();
}

}  // namespace

CbirService::CbirService(std::unique_ptr<milan::MilanModel> model,
                         const bigearthnet::FeatureExtractor* extractor,
                         CbirConfig config)
    : model_(std::move(model)), extractor_(extractor), config_(config) {
  if (config_.num_shards > 1) {
    // The partition layer: N hash-partitioned scans behind one
    // scatter–gather facade.  Each shard is itself segment-structured
    // (sealed segments read lock-free).
    auto sharded = std::make_unique<index::ShardedHammingIndex>(
        config_.num_shards, MakeScan, config_.seal_threshold,
        config_.compact_threshold);
    sharded_ = sharded.get();
    index_ = std::move(sharded);
  } else if (config_.seal_threshold > 0) {
    // Monolithic but segment-structured: one shard's worth of segments.
    auto segmented = std::make_unique<index::SegmentedHammingIndex>(
        MakeScan, config_.seal_threshold, config_.compact_threshold);
    segmented_ = segmented.get();
    index_ = std::move(segmented);
  } else {
    index_ = MakeScan();
  }
  items_since_snapshot_.assign(std::max<size_t>(1, config_.num_shards), 0);
}

size_t CbirService::SnapshotShardOf(index::ItemId id) const {
  return config_.num_shards > 1
             ? index::ShardedHammingIndex::ShardOf(id, config_.num_shards)
             : 0;
}

Status CbirService::Recover(
    const std::function<bool(const std::string&)>& keep) {
  if (config_.snapshot_dir.empty()) return Status::OK();
  if (num_indexed() != 0) {
    return Status::FailedPrecondition(
        "Recover() must run before any image is indexed");
  }
  std::error_code ec;
  std::filesystem::create_directories(config_.snapshot_dir, ec);
  if (ec) {
    return Status::IOError("cannot create snapshot dir: " + ec.message());
  }
  const size_t num_shards = std::max<size_t>(1, config_.num_shards);

  // 1. Snapshots.  Corruption is survivable by design: warn, discard,
  // let the WAL (or the contiguous-prefix cut) cover the difference.
  struct Restored {
    std::string name;
    BinaryCode code;
  };
  std::unordered_map<index::ItemId, Restored> items;
  for (size_t s = 0; s < num_shards; ++s) {
    const std::string path =
        index::ShardSnapshotPath(config_.snapshot_dir, s);
    auto snap_or = index::ReadIndexSnapshot(path);
    if (!snap_or.ok()) {
      if (snap_or.status().IsNotFound()) continue;
      AGORAEO_LOG(kWarning) << "discarding snapshot " << path << ": "
                            << snap_or.status().message();
      ++pstats_.discarded_snapshots;
      continue;
    }
    index::IndexSnapshot snap = std::move(snap_or).value();
    if (snap.shard_index != s || snap.num_shards != num_shards) {
      AGORAEO_LOG(kWarning) << "discarding snapshot " << path
                            << ": sharding mismatch (file says shard "
                            << snap.shard_index << "/" << snap.num_shards
                            << ", service has " << s << "/" << num_shards
                            << ")";
      ++pstats_.discarded_snapshots;
      continue;
    }
    for (size_t i = 0; i < snap.ids.size(); ++i) {
      std::vector<uint64_t> words(
          snap.code_words.begin() + i * snap.words_per_code,
          snap.code_words.begin() + (i + 1) * snap.words_per_code);
      items.emplace(snap.ids[i],
                    Restored{std::move(snap.names[i]),
                             BinaryCode::FromWords(snap.code_bits,
                                                   std::move(words))});
    }
    pstats_.restored_items += snap.ids.size();
  }

  // 2. WAL catch-up: records whose items a snapshot already covers are
  // skipped item-by-item (snapshot cadence is per shard, so one record
  // can be half-covered).
  const std::string wal_path = IndexWalPath(config_.snapshot_dir);
  AGORAEO_ASSIGN_OR_RETURN(
      index::IndexWalReplayResult replay,
      index::ReplayIndexWal(
          wal_path, [&](const index::IndexWalRecord& record) {
            for (size_t i = 0; i < record.names.size(); ++i) {
              const index::ItemId id = record.first_seq + i;
              if (items.emplace(id, Restored{record.names[i],
                                             record.codes[i]})
                      .second) {
                ++pstats_.replayed_items;
              }
            }
            return Status::OK();
          }));
  pstats_.wal_tail_discarded = replay.tail_discarded;

  // 3. Contiguous prefix: ids are assigned 0..n-1, so recovery must
  // surface a prefix of that sequence.  A discarded snapshot whose
  // items predate the WAL leaves holes; everything past the first hole
  // is dropped (and the checkpoint below re-canonicalises disk).
  index::ItemId prefix = 0;
  while (items.count(prefix) != 0) ++prefix;
  size_t dropped = 0;
  for (const auto& [id, item] : items) {
    if (id >= prefix) ++dropped;
  }
  if (dropped > 0) {
    AGORAEO_LOG(kWarning) << "index recovery dropped " << dropped
                          << " items past id " << prefix
                          << " (hole left by a lost snapshot)";
    pstats_.dropped_items = dropped;
  }

  // 4. Bulk-load: stored codes go straight into the index — no model
  // inference — and the maps are rebuilt in id order.  A keep predicate
  // (slot-filtered cluster boot) drops migrated-away items here and
  // renumbers the survivors contiguously; that diverges from the ids on
  // disk, so a filtered recovery is treated as lossy below and
  // re-checkpointed under the new ids.
  size_t filtered_out = 0;
  if (prefix > 0) {
    std::vector<index::ItemId> ids;
    std::vector<std::string> names;
    std::vector<BinaryCode> codes;
    ids.reserve(prefix);
    names.reserve(prefix);
    codes.reserve(prefix);
    for (index::ItemId id = 0; id < prefix; ++id) {
      auto node = items.extract(id);
      if (keep != nullptr && !keep(node.mapped().name)) {
        ++filtered_out;
        continue;
      }
      ids.push_back(ids.size());
      names.push_back(std::move(node.mapped().name));
      codes.push_back(std::move(node.mapped().code));
    }
    AGORAEO_RETURN_IF_ERROR(
        index_->BatchAdd(ids, codes, sharded_ != nullptr ? QueryPool() : nullptr));
    name_by_id_.reserve(ids.size());
    for (index::ItemId id = 0; id < ids.size(); ++id) {
      name_by_id_.push_back(names[id]);
      code_by_name_.emplace(names[id], std::move(codes[id]));
      id_by_name_.emplace(std::move(names[id]), id);
    }
  }
  pstats_.recovered = true;

  // 5. Make disk canonical again, then open the WAL for appending.
  const bool lossy =
      pstats_.discarded_snapshots > 0 || dropped > 0 || filtered_out > 0;
  if (lossy) {
    for (size_t s = 0; s < num_shards; ++s) {
      AGORAEO_RETURN_IF_ERROR(WriteShardSnapshot(s));
    }
    AGORAEO_RETURN_IF_ERROR(TruncateFile(wal_path, 0));
  } else if (replay.tail_discarded) {
    // Cut the torn tail so new frames never land after garbage.
    AGORAEO_RETURN_IF_ERROR(
        TruncateFile(wal_path, replay.valid_bytes));
  }
  AGORAEO_RETURN_IF_ERROR(wal_.Open(wal_path, config_.wal_sync));
  pstats_.enabled = true;
  AGORAEO_LOG(kInfo) << "CBIR index recovered: " << num_indexed()
                     << " items (" << pstats_.restored_items
                     << " from snapshots, " << pstats_.replayed_items
                     << " from WAL)";
  return Status::OK();
}

void CbirService::AttachObservability(obs::Observability* obs) {
  if (obs == nullptr || !obs->metrics_enabled()) return;
  if (sharded_ != nullptr) {
    sharded_->set_scan_histogram(
        obs->HistogramOrNull("agoraeo_index_shard_scan_ns"));
  }
  wal_.set_sync_histogram(obs->HistogramOrNull("agoraeo_wal_sync_ns"));
  snapshot_write_ = obs->HistogramOrNull("agoraeo_snapshot_write_ns");
}

Status CbirService::WriteShardSnapshot(size_t s) {
  obs::ScopedTimer snapshot_timer(snapshot_write_);
  const size_t num_shards = std::max<size_t>(1, config_.num_shards);
  index::IndexSnapshot snap;
  snap.shard_index = static_cast<uint32_t>(s);
  snap.num_shards = static_cast<uint32_t>(num_shards);
  snap.watermark = num_indexed();
  for (index::ItemId id = 0; id < name_by_id_.size(); ++id) {
    if (SnapshotShardOf(id) != s) continue;
    const BinaryCode& code = code_by_name_.at(name_by_id_[id]);
    if (snap.code_bits == 0 && code.size() != 0) {
      snap.code_bits = static_cast<uint32_t>(code.size());
      snap.words_per_code = static_cast<uint32_t>(code.words().size());
    }
    snap.ids.push_back(id);
    snap.names.push_back(name_by_id_[id]);
    snap.code_words.insert(snap.code_words.end(), code.words().begin(),
                           code.words().end());
  }
  AGORAEO_RETURN_IF_ERROR(index::WriteIndexSnapshot(
      index::ShardSnapshotPath(config_.snapshot_dir, s), snap));
  items_since_snapshot_[s] = 0;
  ++pstats_.snapshots_written;
  return Status::OK();
}

Status CbirService::MaybeSnapshotShards() {
  if (config_.seal_threshold == 0) return Status::OK();
  for (size_t s = 0; s < items_since_snapshot_.size(); ++s) {
    if (items_since_snapshot_[s] >= config_.seal_threshold) {
      AGORAEO_RETURN_IF_ERROR(WriteShardSnapshot(s));
    }
  }
  return Status::OK();
}

Status CbirService::LogIngest(index::ItemId first_seq,
                              const std::vector<std::string>& names,
                              const std::vector<BinaryCode>& codes) {
  if (!wal_.is_open()) return Status::OK();
  index::IndexWalRecord record;
  record.first_seq = first_seq;
  record.names = names;
  record.codes = codes;
  AGORAEO_RETURN_IF_ERROR(wal_.Append(record));
  pstats_.wal_records = wal_.records_appended();
  for (size_t i = 0; i < names.size(); ++i) {
    ++items_since_snapshot_[SnapshotShardOf(first_seq + i)];
  }
  return MaybeSnapshotShards();
}

Status CbirService::Snapshot() {
  if (config_.snapshot_dir.empty()) {
    return Status::FailedPrecondition("service has no snapshot_dir");
  }
  if (!wal_.is_open()) {
    return Status::FailedPrecondition(
        "Recover() must open the persistence layer before Snapshot()");
  }
  // Align snapshot and segment boundaries: everything snapshotted is
  // also sealed, so post-snapshot reads of old data are all lock-free.
  if (sharded_ != nullptr) {
    AGORAEO_RETURN_IF_ERROR(sharded_->SealAll());
  } else if (segmented_ != nullptr) {
    AGORAEO_RETURN_IF_ERROR(segmented_->Seal());
  }
  const size_t num_shards = std::max<size_t>(1, config_.num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    AGORAEO_RETURN_IF_ERROR(WriteShardSnapshot(s));
  }
  // Every WAL record is now covered by a snapshot.
  return wal_.Reset();
}

ThreadPool* CbirService::QueryPool() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    size_t threads = config_.query_threads;
    if (threads == 0) {
      threads = std::max<size_t>(1, std::thread::hardware_concurrency());
    }
    if (threads == 1) return nullptr;  // sequential: no pool at all
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

Status CbirService::AddImage(const std::string& patch_name,
                             const Tensor& feature) {
  if (code_by_name_.count(patch_name) != 0) {
    return Status::AlreadyExists("image already indexed: " + patch_name);
  }
  const BinaryCode code = model_->HashOne(feature);
  const index::ItemId id = name_by_id_.size();
  AGORAEO_RETURN_IF_ERROR(index_->Add(id, code));
  name_by_id_.push_back(patch_name);
  code_by_name_.emplace(patch_name, code);
  id_by_name_.emplace(patch_name, id);
  return LogIngest(id, {patch_name}, {code});
}

Status CbirService::AddImages(const std::vector<std::string>& names,
                              const Tensor& features) {
  if (features.rank() != 2 || features.dim(0) != names.size()) {
    return Status::InvalidArgument("features shape mismatch with names");
  }
  return AddImagesWithCodes(names, model_->HashBatch(features));
}

Status CbirService::AddImagesWithCodes(const std::vector<std::string>& names,
                                       const std::vector<BinaryCode>& codes) {
  if (codes.size() != names.size()) {
    return Status::InvalidArgument("codes length mismatch with names");
  }
  // Pre-validate the whole batch (duplicate names, uniform code length)
  // so the parallel per-shard ingest below cannot fail halfway: all the
  // realistic Add errors are caught before the index is touched.
  std::unordered_map<std::string, size_t> batch_names;
  for (size_t i = 0; i < names.size(); ++i) {
    if (code_by_name_.count(names[i]) != 0 ||
        !batch_names.emplace(names[i], i).second) {
      return Status::AlreadyExists("image already indexed: " + names[i]);
    }
  }
  const size_t expected_bits =
      code_by_name_.empty() ? (codes.empty() ? 0 : codes.front().size())
                            : code_by_name_.begin()->second.size();
  if (expected_bits == 0 && !codes.empty()) {
    return Status::InvalidArgument("model produced empty binary codes");
  }
  for (const BinaryCode& code : codes) {
    if (code.size() != expected_bits) {
      return Status::InvalidArgument("code length mismatch within batch");
    }
  }
  std::vector<index::ItemId> ids(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    ids[i] = name_by_id_.size() + i;
  }
  // Sharded indexes ingest every partition's slice in parallel on the
  // query pool; the monolithic default is a sequential loop, so don't
  // spin the pool up for it (it stays lazy until the first batch
  // query, as before the partition layer).
  AGORAEO_RETURN_IF_ERROR(
      index_->BatchAdd(ids, codes, sharded_ != nullptr ? QueryPool() : nullptr));
  const index::ItemId first_seq = ids.empty() ? 0 : ids.front();
  for (size_t i = 0; i < names.size(); ++i) {
    name_by_id_.push_back(names[i]);
    code_by_name_.emplace(names[i], codes[i]);
    id_by_name_.emplace(names[i], ids[i]);
  }
  if (names.empty()) return Status::OK();
  // One WAL frame per ingest batch: a torn frame loses the whole batch
  // cleanly, never half of it.
  return LogIngest(first_seq, names, codes);
}

size_t CbirHitStream::Next(size_t n, std::vector<CbirResult>* out) {
  if (cap_ != 0) n = std::min(n, cap_ - emitted_);
  size_t produced = 0;
  while (produced < n) {
    buffer_.clear();
    if (frontier_->Next(n - produced, &buffer_) == 0) break;
    for (const auto& hit : buffer_) {
      const std::string& name = (*name_by_id_)[hit.id];
      if (name == exclude_name_) continue;
      out->push_back({name, hit.distance});
      ++produced;
    }
  }
  emitted_ += produced;
  return produced;
}

namespace {

/// The frontier limit behind a stream cap: one extra hit when an
/// excluded image may drop out of the stream; 0 (unbounded) for
/// unlimited caps.
size_t FrontierLimit(size_t cap, const std::string& exclude_name) {
  if (cap == 0 || cap == SIZE_MAX) return 0;
  return exclude_name.empty() ? cap : cap + 1;
}

/// k-NN with k == 0 streams nothing; a cap of 0 everywhere else means
/// "unlimited".
bool StreamsNothing(const std::optional<uint32_t>& radius, size_t cap) {
  return !radius.has_value() && cap == 0;
}

std::unique_ptr<index::HitFrontier> ExhaustedFrontier() {
  return std::make_unique<index::MaterializedFrontier>(
      std::vector<index::SearchResult>{});
}

}  // namespace

std::unique_ptr<CbirHitStream> CbirService::MakeStream(
    std::unique_ptr<index::HitFrontier> frontier, size_t cap,
    std::shared_ptr<const index::CandidateSet> allowed,
    const std::string& exclude_name) const {
  auto stream = std::unique_ptr<CbirHitStream>(new CbirHitStream());
  stream->frontier_ = std::move(frontier);
  stream->name_by_id_ = &name_by_id_;
  stream->allowed_pin_ = std::move(allowed);
  stream->exclude_name_ = exclude_name;
  stream->cap_ = cap;
  return stream;
}

std::unique_ptr<CbirHitStream> CbirService::OpenStream(
    const BinaryCode& code, std::optional<uint32_t> radius, size_t cap,
    std::shared_ptr<const index::CandidateSet> allowed,
    const std::string& exclude_name) const {
  if (StreamsNothing(radius, cap)) {
    return MakeStream(ExhaustedFrontier(), 0, nullptr, exclude_name);
  }
  index::FrontierOptions options;
  options.radius = radius;
  options.allowed = allowed.get();
  options.limit = FrontierLimit(cap, exclude_name);
  return MakeStream(index_->OpenFrontier(code, options), cap,
                    std::move(allowed), exclude_name);
}

std::vector<std::unique_ptr<CbirHitStream>> CbirService::OpenStreams(
    const std::vector<BinaryCode>& codes, std::optional<uint32_t> radius,
    const std::vector<size_t>& caps,
    std::shared_ptr<const index::CandidateSet> allowed,
    const std::vector<std::string>& exclude_names) const {
  // One frontier limit serves the whole batch: the loosest slot's.
  index::FrontierOptions options;
  options.radius = radius;
  options.allowed = allowed.get();
  bool unbounded = false;
  for (size_t i = 0; i < codes.size(); ++i) {
    if (StreamsNothing(radius, caps[i])) continue;
    const size_t limit = FrontierLimit(caps[i], exclude_names[i]);
    unbounded = unbounded || limit == 0;
    options.limit = std::max(options.limit, limit);
  }
  if (unbounded) options.limit = 0;
  std::vector<std::unique_ptr<index::HitFrontier>> frontiers =
      index_->OpenFrontiers(codes, options, QueryPool());
  std::vector<std::unique_ptr<CbirHitStream>> out;
  out.reserve(codes.size());
  for (size_t i = 0; i < codes.size(); ++i) {
    out.push_back(StreamsNothing(radius, caps[i])
                      ? MakeStream(ExhaustedFrontier(), 0, nullptr,
                                   exclude_names[i])
                      : MakeStream(std::move(frontiers[i]), caps[i], allowed,
                                   exclude_names[i]));
  }
  return out;
}

index::CandidateSet CbirService::CandidatesFromNames(
    const std::vector<std::string>& names) const {
  std::vector<index::ItemId> ids;
  ids.reserve(names.size());
  for (const std::string& name : names) {
    auto it = id_by_name_.find(name);
    if (it != id_by_name_.end()) ids.push_back(it->second);
  }
  return index::CandidateSet(std::move(ids));
}

StatusOr<BinaryCode> CbirService::HashPatch(
    const bigearthnet::Patch& patch) const {
  if (patch.s2_bands.size() != bigearthnet::kNumS2Bands ||
      patch.s1_channels.size() != bigearthnet::kNumS1Channels) {
    return Status::InvalidArgument(
        "uploaded patch must carry 12 Sentinel-2 bands and 2 Sentinel-1 "
        "channels");
  }
  const Tensor feature = extractor_->ExtractFromPixels(patch);
  // Inference mutates no service state; dropout is disabled outside
  // training, so the forward pass is logically const.
  return model_->HashOne(feature);
}

StatusOr<std::vector<BinaryCode>> CbirService::HashFeatures(
    const Tensor& features) const {
  if (features.rank() != 2 ||
      features.dim(1) != model_->config().feature_dim) {
    return Status::InvalidArgument(
        "features must be [batch, feature_dim] for batch hashing");
  }
  return model_->HashBatch(features);
}

StatusOr<BinaryCode> CbirService::CodeOf(const std::string& patch_name) const {
  auto it = code_by_name_.find(patch_name);
  if (it == code_by_name_.end()) {
    return Status::NotFound("image not in archive index: " + patch_name);
  }
  return it->second;
}

}  // namespace agoraeo::earthqube
