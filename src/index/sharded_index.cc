#include "index/sharded_index.h"

#include <algorithm>
#include <chrono>

#include "common/thread_pool.h"
#include "index/frontier.h"

namespace agoraeo::index {

namespace {

/// splitmix64 finaliser: sequential ItemIds (the CbirService assigns
/// 0..n-1) spread uniformly over the shards instead of striping.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardedHammingIndex::ShardedHammingIndex(size_t num_shards,
                                         const ShardFactory& factory,
                                         size_t seal_threshold,
                                         size_t compact_threshold)
    : seal_threshold_(seal_threshold) {
  num_shards = std::max<size_t>(1, num_shards);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<SegmentedHammingIndex>(
        factory, seal_threshold, compact_threshold));
  }
}

size_t ShardedHammingIndex::ShardOf(ItemId id, size_t num_shards) {
  return num_shards <= 1 ? 0 : static_cast<size_t>(Mix64(id) % num_shards);
}

Status ShardedHammingIndex::CheckCodeLength(const BinaryCode& code) {
  // Empty codes fall through: every wrapped kind rejects them with its
  // own message, and anchoring on 0 would wedge the index.
  if (code.size() == 0) return Status::OK();
  size_t expected = code_bits_.load();
  if (expected == 0) {
    code_bits_.compare_exchange_strong(expected, code.size());
    expected = code_bits_.load();
  }
  if (code.size() != expected) {
    return Status::InvalidArgument(
        "code length mismatch: index holds " + std::to_string(expected) +
        "-bit codes, got " + std::to_string(code.size()));
  }
  return Status::OK();
}

Status ShardedHammingIndex::Add(ItemId id, const BinaryCode& code) {
  AGORAEO_RETURN_IF_ERROR(CheckCodeLength(code));
  return shards_[ShardOf(id, shards_.size())]->Add(id, code);
}

Status ShardedHammingIndex::BatchAdd(const std::vector<ItemId>& ids,
                                     const std::vector<BinaryCode>& codes,
                                     ThreadPool* pool) {
  if (ids.size() != codes.size()) {
    return Status::InvalidArgument("BatchAdd ids/codes length mismatch");
  }
  // Validate every code up front so a mismatch cannot strand a
  // partially ingested batch across shards.
  for (const BinaryCode& code : codes) {
    AGORAEO_RETURN_IF_ERROR(CheckCodeLength(code));
  }
  // Partition the batch by routing, then ingest every shard's slice in
  // parallel — each slice touches one shard only, so one task per shard
  // is race-free by construction (the shard's own segment locking
  // covers concurrent readers).
  std::vector<std::vector<ItemId>> ids_by_shard(shards_.size());
  std::vector<std::vector<BinaryCode>> codes_by_shard(shards_.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t s = ShardOf(ids[i], shards_.size());
    ids_by_shard[s].push_back(ids[i]);
    codes_by_shard[s].push_back(codes[i]);
  }
  std::vector<Status> statuses(shards_.size(), Status::OK());
  ForEachShard(pool, [&](size_t s) {
    statuses[s] = shards_[s]->BatchAdd(ids_by_shard[s], codes_by_shard[s]);
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

std::vector<CandidateSet> ShardedHammingIndex::SplitAllowlist(
    const CandidateSet& allowed) const {
  // allowed.ids() is sorted and deduplicated; routing preserves both
  // within a shard, so the per-shard CandidateSet constructor's
  // sort+unique is a no-op pass over already-clean input.
  std::vector<std::vector<ItemId>> ids_by_shard(shards_.size());
  for (ItemId id : allowed.ids()) {
    ids_by_shard[ShardOf(id, shards_.size())].push_back(id);
  }
  std::vector<CandidateSet> out;
  out.reserve(shards_.size());
  for (auto& ids : ids_by_shard) out.emplace_back(std::move(ids));
  return out;
}

void ShardedHammingIndex::ForEachShard(
    ThreadPool* pool, const std::function<void(size_t)>& task) const {
  if (pool != nullptr && pool->num_threads() > 1 && shards_.size() > 1) {
    pool->ParallelFor(shards_.size(), task);
  } else {
    for (size_t s = 0; s < shards_.size(); ++s) task(s);
  }
}

std::unique_ptr<HitFrontier> ShardedHammingIndex::OpenFrontier(
    const BinaryCode& query, const FrontierOptions& options) const {
  single_fanouts_.fetch_add(1);
  auto merge = std::make_unique<MergingFrontier>();
  std::shared_ptr<const std::vector<CandidateSet>> split;
  if (options.allowed != nullptr) {
    // Split once by routing and pin the split inside the frontier —
    // the per-shard children borrow it.
    split = std::make_shared<const std::vector<CandidateSet>>(
        SplitAllowlist(*options.allowed));
    merge->AddPin(split);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    FrontierOptions shard_options = options;
    if (split != nullptr) {
      if ((*split)[s].empty()) continue;  // no allowed id routes here
      shard_options.allowed = &(*split)[s];
    }
    obs::ScopedTimer scan_timer(scan_histogram_);
    merge->AddChild(shards_[s]->OpenFrontier(query, shard_options));
  }
  return merge;
}

std::vector<std::unique_ptr<HitFrontier>> ShardedHammingIndex::OpenFrontiers(
    const std::vector<BinaryCode>& queries, const FrontierOptions& options,
    ThreadPool* pool) const {
  batch_fanouts_.fetch_add(1);
  fanout_tasks_.fetch_add(shards_.size());
  // The allowlist splits ONCE per batched open (not per query) — the
  // micro-batched hybrid path shares one allowlist across the batch.
  std::shared_ptr<const std::vector<CandidateSet>> split;
  if (options.allowed != nullptr) {
    split = std::make_shared<const std::vector<CandidateSet>>(
        SplitAllowlist(*options.allowed));
  }
  // Scatter: one task per shard per batch.  Each task opens the whole
  // batch on its shard with no inner pool, so parallelism is purely
  // across shards — no nested sharding.
  std::vector<std::vector<std::unique_ptr<HitFrontier>>> per_shard(
      shards_.size());
  ForEachShard(pool, [&](size_t s) {
    FrontierOptions shard_options = options;
    if (split != nullptr) {
      if ((*split)[s].empty()) return;
      shard_options.allowed = &(*split)[s];
    }
    obs::ScopedTimer scan_timer(scan_histogram_);
    per_shard[s] = shards_[s]->OpenFrontiers(queries, shard_options, nullptr);
  });

  // Gather: one k-way merge per query over every shard's frontier.
  const uint64_t merge_begin = NowNanos();
  std::vector<std::unique_ptr<HitFrontier>> out;
  out.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto merge = std::make_unique<MergingFrontier>();
    if (split != nullptr) merge->AddPin(split);
    for (auto& shard_frontiers : per_shard) {
      if (!shard_frontiers.empty()) {
        merge->AddChild(std::move(shard_frontiers[q]));
      }
    }
    out.push_back(std::move(merge));
  }
  merge_nanos_.fetch_add(NowNanos() - merge_begin);
  return out;
}

size_t ShardedHammingIndex::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

std::string ShardedHammingIndex::Name() const {
  return "sharded(" + shards_.front()->Name() + ", " +
         std::to_string(shards_.size()) + ")";
}

Status ShardedHammingIndex::SealAll() {
  for (const auto& shard : shards_) {
    AGORAEO_RETURN_IF_ERROR(shard->Seal());
  }
  return Status::OK();
}

ShardedIndexStats ShardedHammingIndex::Stats() const {
  ShardedIndexStats stats;
  stats.num_shards = shards_.size();
  stats.shard_sizes.reserve(shards_.size());
  stats.shard_segments.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const SegmentedIndexStats seg = shard->Stats();
    stats.shard_sizes.push_back(seg.sealed_items + seg.mutable_items);
    stats.shard_segments.push_back(seg.num_sealed);
    stats.seals += seg.seals;
    stats.sealed_items += seg.sealed_items;
    stats.mutable_items += seg.mutable_items;
    stats.compactions += seg.compactions;
  }
  stats.single_fanouts = single_fanouts_.load();
  stats.batch_fanouts = batch_fanouts_.load();
  stats.fanout_tasks = fanout_tasks_.load();
  stats.merge_nanos = merge_nanos_.load();
  return stats;
}

}  // namespace agoraeo::index
