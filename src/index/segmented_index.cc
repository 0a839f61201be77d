#include "index/segmented_index.h"

#include <mutex>

#include "index/frontier.h"

namespace agoraeo::index {

SegmentedHammingIndex::SegmentedHammingIndex(SegmentFactory factory,
                                             size_t seal_threshold,
                                             size_t compact_threshold)
    : factory_(std::move(factory)),
      seal_threshold_(seal_threshold),
      compact_threshold_(compact_threshold),
      mutable_(factory_()),
      sealed_(std::make_shared<const SegmentList>()) {
  base_name_ = mutable_->Name();
}

Status SegmentedHammingIndex::CheckCodeLength(const BinaryCode& code) {
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

void SegmentedHammingIndex::SealLocked() {
  if (mutable_->size() == 0) return;
  std::shared_ptr<const SegmentList> old = sealed_.load();
  auto next = std::make_shared<SegmentList>(*old);
  SealedSegment sealed;
  sealed.index = std::shared_ptr<const HammingIndex>(std::move(mutable_));
  if (compact_threshold_ > 0) {
    sealed.items =
        std::make_shared<const std::vector<std::pair<ItemId, BinaryCode>>>(
            std::move(mutable_items_));
  }
  next->push_back(std::move(sealed));
  mutable_ = factory_();
  mutable_items_.clear();
  MaybeCompactLocked(&next);
  sealed_.store(std::shared_ptr<const SegmentList>(std::move(next)));
  seals_.fetch_add(1);
}

void SegmentedHammingIndex::MaybeCompactLocked(
    std::shared_ptr<SegmentList>* next) {
  if (compact_threshold_ == 0 || (*next)->size() <= compact_threshold_) {
    return;
  }
  std::vector<ItemId> ids;
  std::vector<BinaryCode> codes;
  size_t total = 0;
  for (const SealedSegment& segment : **next) total += segment.items->size();
  ids.reserve(total);
  codes.reserve(total);
  auto merged_items =
      std::make_shared<std::vector<std::pair<ItemId, BinaryCode>>>();
  merged_items->reserve(total);
  for (const SealedSegment& segment : **next) {
    for (const auto& [id, code] : *segment.items) {
      ids.push_back(id);
      codes.push_back(code);
      merged_items->emplace_back(id, code);
    }
  }
  std::unique_ptr<HammingIndex> merged = factory_();
  if (!merged->BatchAdd(ids, codes).ok()) {
    // Codes were validated at ingest, so this cannot realistically
    // fail; if it somehow does, serving the uncompacted list is
    // correct, just slower.
    return;
  }
  const uint64_t consumed = (*next)->size();
  auto compacted = std::make_shared<SegmentList>();
  compacted->push_back(
      SealedSegment{std::shared_ptr<const HammingIndex>(std::move(merged)),
                    std::move(merged_items)});
  *next = std::move(compacted);
  compactions_.fetch_add(1);
  compacted_segments_.fetch_add(consumed);
}

Status SegmentedHammingIndex::Seal() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  SealLocked();
  return Status::OK();
}

Status SegmentedHammingIndex::Add(ItemId id, const BinaryCode& code) {
  AGORAEO_RETURN_IF_ERROR(CheckCodeLength(code));
  std::unique_lock<std::shared_mutex> lock(mu_);
  AGORAEO_RETURN_IF_ERROR(mutable_->Add(id, code));
  if (compact_threshold_ > 0) mutable_items_.emplace_back(id, code);
  if (seal_threshold_ > 0 && mutable_->size() >= seal_threshold_) {
    SealLocked();
  }
  return Status::OK();
}

Status SegmentedHammingIndex::BatchAdd(const std::vector<ItemId>& ids,
                                       const std::vector<BinaryCode>& codes,
                                       ThreadPool* /*pool*/) {
  if (ids.size() != codes.size()) {
    return Status::InvalidArgument("BatchAdd ids/codes length mismatch");
  }
  // Validate every code up front so a mismatch cannot strand a
  // partially applied batch across segments.
  for (const BinaryCode& code : codes) {
    AGORAEO_RETURN_IF_ERROR(CheckCodeLength(code));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (size_t i = 0; i < ids.size(); ++i) {
    AGORAEO_RETURN_IF_ERROR(mutable_->Add(ids[i], codes[i]));
    if (compact_threshold_ > 0) mutable_items_.emplace_back(ids[i], codes[i]);
    if (seal_threshold_ > 0 && mutable_->size() >= seal_threshold_) {
      SealLocked();
    }
  }
  return Status::OK();
}

std::shared_ptr<const SegmentedHammingIndex::SegmentList>
SegmentedHammingIndex::PinSegments(
    const std::function<void(const HammingIndex&)>& open_mutable) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (mutable_->size() > 0) open_mutable(*mutable_);
  return sealed_.load();
}

namespace {

/// Snapshots a mutable-segment frontier: the segment keeps changing
/// after the lock drops, so its hits (at most `limit` of them) are
/// drained up front.  The tail is small by construction (it seals at
/// seal_threshold).
std::unique_ptr<HitFrontier> SnapshotTail(std::unique_ptr<HitFrontier> live,
                                          size_t limit) {
  return std::make_unique<MaterializedFrontier>(
      Drain(*live, limit == 0 ? SIZE_MAX : limit));
}

}  // namespace

std::unique_ptr<HitFrontier> SegmentedHammingIndex::OpenFrontier(
    const BinaryCode& query, const FrontierOptions& options) const {
  auto merge = std::make_unique<MergingFrontier>();
  // Segments are time-partitioned, not id-routed, so the allowlist
  // cannot be split — each segment filters against the full set.
  const std::shared_ptr<const SegmentList> sealed =
      PinSegments([&](const HammingIndex& tail) {
        merge->AddChild(
            SnapshotTail(tail.OpenFrontier(query, options), options.limit));
      });
  for (const SealedSegment& segment : *sealed) {
    merge->AddChild(segment.index->OpenFrontier(query, options));
    merge->AddPin(segment.index);  // the lazy child borrows the segment
  }
  return merge;
}

std::vector<std::unique_ptr<HitFrontier>> SegmentedHammingIndex::OpenFrontiers(
    const std::vector<BinaryCode>& queries, const FrontierOptions& options,
    ThreadPool* pool) const {
  std::vector<std::unique_ptr<MergingFrontier>> merges(queries.size());
  for (auto& merge : merges) merge = std::make_unique<MergingFrontier>();
  auto add_children = [&](std::vector<std::unique_ptr<HitFrontier>> children,
                          bool snapshot) {
    for (size_t q = 0; q < queries.size(); ++q) {
      merges[q]->AddChild(snapshot ? SnapshotTail(std::move(children[q]),
                                                  options.limit)
                                   : std::move(children[q]));
    }
  };
  const std::shared_ptr<const SegmentList> sealed =
      PinSegments([&](const HammingIndex& tail) {
        add_children(tail.OpenFrontiers(queries, options, pool), true);
      });
  for (const SealedSegment& segment : *sealed) {
    add_children(segment.index->OpenFrontiers(queries, options, pool), false);
    for (auto& merge : merges) merge->AddPin(segment.index);
  }
  return {std::make_move_iterator(merges.begin()),
          std::make_move_iterator(merges.end())};
}

size_t SegmentedHammingIndex::size() const {
  size_t total = 0;
  const std::shared_ptr<const SegmentList> sealed =
      PinSegments([&](const HammingIndex& tail) { total = tail.size(); });
  for (const auto& segment : *sealed) total += segment.index->size();
  return total;
}

SegmentedIndexStats SegmentedHammingIndex::Stats() const {
  SegmentedIndexStats stats;
  const std::shared_ptr<const SegmentList> sealed = PinSegments(
      [&](const HammingIndex& tail) { stats.mutable_items = tail.size(); });
  stats.num_sealed = sealed->size();
  for (const auto& segment : *sealed) {
    stats.sealed_items += segment.index->size();
  }
  stats.seals = seals_.load();
  stats.compactions = compactions_.load();
  stats.compacted_segments = compacted_segments_.load();
  return stats;
}

}  // namespace agoraeo::index
