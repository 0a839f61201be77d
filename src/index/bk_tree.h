#ifndef AGORAEO_INDEX_BK_TREE_H_
#define AGORAEO_INDEX_BK_TREE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "index/hamming_index.h"

namespace agoraeo::index {

/// A Burkhard-Keller tree over Hamming space — the classic metric-tree
/// baseline the hash-table approach is compared against in experiments
/// E1/E3.  Every node holds one code; children are keyed by their exact
/// distance to the parent.  A radius-r search at node n with
/// d = ham(query, n.code) only needs to visit children with edge keys in
/// [d - r, d + r] (triangle inequality), pruning the rest.
///
/// BK-trees answer exact radius queries without bucket enumeration, but
/// their pruning weakens as r grows relative to the code length — the
/// crossover experiment E3 charts exactly that behaviour against the
/// hash table and multi-index hashing.
class BkTree : public HammingIndex {
 public:
  Status Add(ItemId id, const BinaryCode& code) override;

  /// Lazy ranked access: a resumable best-first traversal — nodes are
  /// expanded in order of their subtree's distance lower bound, and a
  /// hit is released only once no unexpanded subtree can beat it, so
  /// the pruned walk pauses between pages exactly where it stopped.
  /// Radius walks prune every subtree whose bound exceeds the radius;
  /// restricted walks admit only allowlisted ids.  A radius walk
  /// without a limit is drained whole by every caller but a paged
  /// cursor, so it runs the pruned depth-first search at open instead
  /// (no heap operations) and streams the hits from distance buckets.
  std::unique_ptr<HitFrontier> OpenFrontier(
      const BinaryCode& query, const FrontierOptions& options) const override;

  size_t size() const override { return num_items_; }
  std::string Name() const override { return "BkTree"; }

  /// Tree depth (0 for empty; 1 for a root-only tree).
  size_t Depth() const;

 private:
  class FrontierImpl;  // the resumable best-first traversal (bk_tree.cc)

  struct Node {
    BinaryCode code;
    std::vector<ItemId> ids;  ///< duplicate codes share one node
    // Children keyed by exact Hamming distance to this node's code
    // (distance 0 never occurs: equal codes join ids).
    std::map<uint32_t, std::unique_ptr<Node>> children;
  };

  /// The unbounded radius walk: pruned DFS into distance buckets.
  std::unique_ptr<HitFrontier> RadiusScan(const BinaryCode& query,
                                          uint32_t radius,
                                          const CandidateSet* allowed,
                                          SearchStats* stats) const;

  std::unique_ptr<Node> root_;
  size_t code_bits_ = 0;
  size_t num_items_ = 0;
};

}  // namespace agoraeo::index

#endif  // AGORAEO_INDEX_BK_TREE_H_
