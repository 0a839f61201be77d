#include "index/frontier.h"

#include <algorithm>

namespace agoraeo::index {

namespace {

/// Chunk size of child pulls: large enough to amortise virtual-call and
/// heap overhead, small enough that a page-sized consumer pull (~50)
/// never forces a child to over-produce by more than one chunk.
constexpr size_t kPullChunk = 64;

}  // namespace

std::vector<SearchResult> Drain(HitFrontier& frontier, size_t n) {
  std::vector<SearchResult> out;
  while (out.size() < n) {
    if (frontier.Next(n - out.size(), &out) == 0) break;
  }
  return out;
}

size_t MaterializedFrontier::Next(size_t n, std::vector<SearchResult>* out) {
  const size_t take = std::min(n, hits_.size() - pos_);
  out->insert(out->end(), hits_.begin() + pos_, hits_.begin() + pos_ + take);
  pos_ += take;
  return take;
}

DistanceBucketFrontier::DistanceBucketFrontier(std::vector<SearchResult> hits,
                                               uint32_t max_distance)
    : ends_(static_cast<size_t>(max_distance) + 1, 0) {
  // Counting sort by distance: histogram, prefix sums, scatter.
  for (const SearchResult& hit : hits) ++ends_[hit.distance];
  size_t begin = 0;
  for (size_t& end : ends_) {
    begin += end;
    end = begin;
  }
  std::vector<size_t> next(ends_.size());
  for (size_t d = 0; d < ends_.size(); ++d) {
    next[d] = d == 0 ? 0 : ends_[d - 1];
  }
  hits_.resize(hits.size());
  for (const SearchResult& hit : hits) hits_[next[hit.distance]++] = hit;
}

size_t DistanceBucketFrontier::Next(size_t n, std::vector<SearchResult>* out) {
  size_t produced = 0;
  while (produced < n && distance_ < ends_.size()) {
    const size_t begin = distance_ == 0 ? 0 : ends_[distance_ - 1];
    const size_t end = ends_[distance_];
    if (pos_ == begin && end - begin > 1) {
      // Groups hold scan order, not id order; sort on first touch
      // (equal distances, so ResultLess is an id sort).
      std::sort(hits_.begin() + begin, hits_.begin() + end, ResultLess);
    }
    if (pos_ >= end) {
      ++distance_;
      continue;
    }
    const size_t take = std::min(n - produced, end - pos_);
    out->insert(out->end(), hits_.begin() + pos_, hits_.begin() + pos_ + take);
    pos_ += take;
    produced += take;
  }
  if (distance_ >= ends_.size()) std::vector<SearchResult>().swap(hits_);
  return produced;
}

void MergingFrontier::AddChild(std::unique_ptr<HitFrontier> child) {
  Child c;
  c.frontier = std::move(child);
  children_.push_back(std::move(c));
}

void MergingFrontier::AddPin(std::shared_ptr<const void> pin) {
  pins_.push_back(std::move(pin));
}

void MergingFrontier::Refill(Child* child) {
  if (!child->buffer.empty() || child->exhausted) return;
  std::vector<SearchResult> chunk;
  chunk.reserve(kPullChunk);
  const size_t got = child->frontier->Next(kPullChunk, &chunk);
  if (got == 0) {
    child->exhausted = true;
    return;
  }
  child->buffer.insert(child->buffer.end(), chunk.begin(), chunk.end());
}

size_t MergingFrontier::Next(size_t n, std::vector<SearchResult>* out) {
  // std::push_heap/pop_heap build a MAX-heap, so "greater" under
  // (distance, id) puts the smallest head at the front.
  auto head_greater = [this](size_t a, size_t b) {
    return ResultLess(children_[b].buffer.front(),
                      children_[a].buffer.front());
  };
  if (!started_) {
    started_ = true;
    heap_.reserve(children_.size());
    for (size_t c = 0; c < children_.size(); ++c) {
      Refill(&children_[c]);
      if (!children_[c].exhausted) heap_.push_back(c);
    }
    std::make_heap(heap_.begin(), heap_.end(), head_greater);
  }
  size_t produced = 0;
  while (produced < n && !heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), head_greater);
    const size_t c = heap_.back();
    Child& child = children_[c];
    out->push_back(child.buffer.front());
    child.buffer.pop_front();
    ++produced;
    Refill(&child);
    if (child.exhausted && child.buffer.empty()) {
      heap_.pop_back();
    } else {
      std::push_heap(heap_.begin(), heap_.end(), head_greater);
    }
  }
  return produced;
}

}  // namespace agoraeo::index
