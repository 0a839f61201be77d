#ifndef AGORAEO_INDEX_LINEAR_SCAN_H_
#define AGORAEO_INDEX_LINEAR_SCAN_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/simd/hamming_kernels.h"
#include "index/hamming_index.h"
#include "tensor/tensor.h"

namespace agoraeo::index {

/// Exhaustive Hamming scan over all stored codes — the exact baseline
/// every hashing index is compared against in experiment E1.  All scan
/// paths (single-query, batched, restricted) stream a padded aligned
/// flat code array through the runtime-dispatched Hamming kernel layer
/// (common/simd), so distances are computed a block of rows at a time
/// with whatever ISA the host offers.
class LinearScanIndex : public HammingIndex {
 public:
  Status Add(ItemId id, const BinaryCode& code) override;
  /// Sequential Add loop with all storage reserved up front — the
  /// snapshot-restore fast path bulk-loads a whole shard through here.
  /// The whole batch is validated (uniform code width, no empty codes)
  /// before any storage is touched, so a bad batch leaves the index
  /// unchanged instead of failing partway through.
  Status BatchAdd(const std::vector<ItemId>& ids,
                  const std::vector<BinaryCode>& codes,
                  ThreadPool* pool = nullptr) override;

  /// Lazy ranked access: one blocked kernel pass at open computes every
  /// (allowed) distance.  Unbounded frontiers park the hits in
  /// per-distance buckets that are id-sorted and drained only as far
  /// as the consumer pulls, so a page of near hits never pays for
  /// ordering the far tail; bounded ones keep a sorted top-`limit`
  /// list.  A selective allowlist is scanned row by row (O(|allowed|)
  /// popcounts instead of O(n)); a dense one takes the full blocked
  /// pass with a membership check.  A query whose bit count differs
  /// from the indexed codes' opens an empty frontier.
  std::unique_ptr<HitFrontier> OpenFrontier(
      const BinaryCode& query, const FrontierOptions& options) const override;

  /// Cache-blocked batch open: queries are sharded across the pool, and
  /// each shard walks the code array in blocks so one block of codes
  /// stays cache-resident while it serves every query of the shard.
  std::vector<std::unique_ptr<HitFrontier>> OpenFrontiers(
      const std::vector<BinaryCode>& queries, const FrontierOptions& options,
      ThreadPool* pool = nullptr) const override;

  size_t size() const override { return ids_.size(); }
  std::string Name() const override { return "LinearScan"; }

 private:
  /// Whether `allowed` is selective enough to scan row by row.
  bool SparseAllowlist(const CandidateSet* allowed) const {
    return allowed != nullptr && allowed->size() * 4 < ids_.size();
  }

  /// Opens one frontier per query of `queries` from one blocked pass
  /// over the code array, writing them to `out` in query order.
  void BlockedOpen(std::span<const BinaryCode> queries,
                   const FrontierOptions& options,
                   const simd::HammingKernel* kernel,
                   std::unique_ptr<HitFrontier>* out) const;

  /// BlockedOpen's pass for a dense allowlist: rows are masked once per
  /// block, and each query collects its allowed hits into `hits`.
  /// Returns the number of allowed rows scanned.
  size_t MaskedScan(std::span<const BinaryCode> queries,
                    const FrontierOptions& options,
                    const simd::HammingKernel* kernel,
                    std::vector<std::vector<SearchResult>>* hits) const;

  std::vector<ItemId> ids_;
  /// ItemId -> row position, for the candidate-driven restricted scans
  /// (first position wins should an id be re-added).
  std::unordered_map<ItemId, size_t> pos_by_id_;
  /// Contiguous mirror of every code's words: [n, stride_] row-major,
  /// 64-byte aligned, rows zero-padded from words_per_code_ up to the
  /// kernel stride.  Every scan streams this array block-at-a-time
  /// through the dispatched kernel; the zero tail XORs to zero against
  /// the (equally padded) query, so padding never perturbs a distance.
  simd::AlignedWordBuffer flat_words_;
  size_t words_per_code_ = 0;
  size_t stride_ = 0;  ///< simd::PaddedStride(words_per_code_)
  size_t code_bits_ = 0;
};

/// One float-vector search hit.
struct FloatSearchResult {
  ItemId id;
  float distance;  ///< squared L2
};

/// Exact k-NN over raw float feature vectors (squared L2).  This is the
/// accuracy upper bound of experiment E2 and the latency strawman of E1:
/// what retrieval would cost without hashing.
class FloatLinearScan {
 public:
  /// `dim` is the fixed dimensionality of all added vectors.
  explicit FloatLinearScan(size_t dim) : dim_(dim) {}

  /// Adds a vector (must be rank-1 of length dim; asserted).
  void Add(ItemId id, const Tensor& vec);

  /// The k nearest vectors by squared L2 distance, ordered ascending.
  std::vector<FloatSearchResult> KnnSearch(const Tensor& query,
                                           size_t k) const;

  size_t size() const { return ids_.size(); }
  size_t dim() const { return dim_; }

 private:
  size_t dim_;
  std::vector<ItemId> ids_;
  std::vector<float> data_;  ///< row-major [n, dim]
};

}  // namespace agoraeo::index

#endif  // AGORAEO_INDEX_LINEAR_SCAN_H_
