#include "index/bk_tree.h"

#include <algorithm>
#include <queue>

#include "index/frontier.h"

namespace agoraeo::index {

/// Resumable best-first traversal: the paused state of BestFirstKnn.
/// Nodes wait in a min-heap keyed by their subtree's distance lower
/// bound |d - e| (every item under a child at edge e sits at exact
/// distance e from its parent, so the triangle inequality bounds the
/// whole subtree); verified items wait in a (distance, id) min-heap and
/// are released only while strictly closer than the best unexpanded
/// bound — an unexpanded subtree with bound b may still hold (b, any
/// id), so ties force expansion first.
class BkTree::FrontierImpl : public HitFrontier {
 public:
  FrontierImpl(const Node* root, const BinaryCode& query,
               const FrontierOptions& options)
      : query_(query),
        radius_(options.radius),
        allowed_(options.allowed),
        stats_(options.stats) {
    if (root != nullptr) queue_.push({0, root});
  }

  size_t Next(size_t n, std::vector<SearchResult>* out) override {
    size_t produced = 0;
    while (produced < n) {
      // Expand until the pending head is provably next: every
      // unexpanded subtree's bound strictly exceeds it.
      while (!queue_.empty() &&
             (pending_.empty() ||
              queue_.top().bound <= pending_.top().distance)) {
        Expand();
      }
      if (pending_.empty()) break;  // nothing left anywhere: exhausted
      out->push_back(pending_.top());
      pending_.pop();
      ++produced;
    }
    return produced;
  }

 private:
  struct Entry {
    uint32_t bound;  ///< lower bound on distances within the subtree
    const Node* node;
    bool operator>(const Entry& o) const { return bound > o.bound; }
  };

  void Expand() {
    const Entry top = queue_.top();
    queue_.pop();
    if (radius_.has_value() && top.bound > *radius_) {
      // Min-heap: every remaining subtree is at least as far out.
      queue_ = {};
      return;
    }
    const uint32_t d =
        static_cast<uint32_t>(top.node->code.HammingDistance(query_));
    if (stats_ != nullptr) {
      ++stats_->buckets_probed;  // nodes visited
      stats_->candidates += top.node->ids.size();
    }
    if (!radius_.has_value() || d <= *radius_) {
      for (ItemId id : top.node->ids) {
        if (allowed_ != nullptr && !allowed_->Contains(id)) continue;
        pending_.push({id, d});
        if (stats_ != nullptr) ++stats_->results;
      }
    }
    for (const auto& [edge, child] : top.node->children) {
      const uint32_t bound = d > edge ? d - edge : edge - d;
      if (radius_.has_value() && bound > *radius_) continue;
      queue_.push({bound, child.get()});
    }
  }

  const BinaryCode query_;
  const std::optional<uint32_t> radius_;
  const CandidateSet* allowed_;
  SearchStats* const stats_;

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  struct ResultGreater {
    bool operator()(const SearchResult& a, const SearchResult& b) const {
      return ResultLess(b, a);
    }
  };
  std::priority_queue<SearchResult, std::vector<SearchResult>, ResultGreater>
      pending_;
};

std::unique_ptr<HitFrontier> BkTree::OpenFrontier(
    const BinaryCode& query, const FrontierOptions& options) const {
  if (options.radius.has_value() && options.limit == 0) {
    return RadiusScan(query, *options.radius, options.allowed, options.stats);
  }
  return std::make_unique<FrontierImpl>(root_.get(), query, options);
}

std::unique_ptr<HitFrontier> BkTree::RadiusScan(const BinaryCode& query,
                                                uint32_t radius,
                                                const CandidateSet* allowed,
                                                SearchStats* stats) const {
  const uint32_t max_d =
      std::min(radius, static_cast<uint32_t>(code_bits_));
  std::vector<SearchResult> hits;
  size_t visited = 0;
  size_t candidates = 0;
  std::vector<const Node*> stack;
  if (root_ != nullptr) stack.push_back(root_.get());
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ++visited;
    const uint32_t d =
        static_cast<uint32_t>(node->code.HammingDistance(query));
    candidates += node->ids.size();
    if (d <= radius) {
      for (ItemId id : node->ids) {
        if (allowed != nullptr && !allowed->Contains(id)) continue;
        hits.push_back({id, d});
      }
    }
    // Children with edge key in [d - radius, d + radius] can contain
    // matches; std::map's ordering gives the window as a range scan.
    const uint32_t lo = d > radius ? d - radius : 0;
    for (auto it = node->children.lower_bound(lo);
         it != node->children.end() && it->first <= d + radius; ++it) {
      stack.push_back(it->second.get());
    }
  }
  if (stats != nullptr) {
    stats->buckets_probed += visited;
    stats->candidates += candidates;
    stats->results += hits.size();
  }
  return std::make_unique<DistanceBucketFrontier>(std::move(hits), max_d);
}

Status BkTree::Add(ItemId id, const BinaryCode& code) {
  if (code.empty()) return Status::InvalidArgument("empty code");
  if (code_bits_ == 0) code_bits_ = code.size();
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  if (root_ == nullptr) {
    root_ = std::make_unique<Node>();
    root_->code = code;
    root_->ids.push_back(id);
    ++num_items_;
    return Status::OK();
  }
  Node* node = root_.get();
  while (true) {
    const uint32_t d =
        static_cast<uint32_t>(node->code.HammingDistance(code));
    if (d == 0) {
      node->ids.push_back(id);
      ++num_items_;
      return Status::OK();
    }
    auto it = node->children.find(d);
    if (it == node->children.end()) {
      auto child = std::make_unique<Node>();
      child->code = code;
      child->ids.push_back(id);
      node->children.emplace(d, std::move(child));
      ++num_items_;
      return Status::OK();
    }
    node = it->second.get();
  }
}

size_t BkTree::Depth() const {
  if (root_ == nullptr) return 0;
  size_t max_depth = 0;
  std::vector<std::pair<const Node*, size_t>> stack = {{root_.get(), 1}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    for (const auto& [edge, child] : node->children) {
      stack.push_back({child.get(), depth + 1});
    }
  }
  return max_depth;
}

}  // namespace agoraeo::index
