#include "index/linear_scan.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>

#include "index/batch_util.h"
#include "index/frontier.h"

namespace agoraeo::index {

Status LinearScanIndex::Add(ItemId id, const BinaryCode& code) {
  if (code.empty()) return Status::InvalidArgument("empty code");
  if (code_bits_ == 0) {
    code_bits_ = code.size();
    words_per_code_ = code.words().size();
    stride_ = simd::PaddedStride(words_per_code_);
  }
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  pos_by_id_.emplace(id, ids_.size());
  ids_.push_back(id);
  flat_words_.insert(flat_words_.end(), code.words().begin(),
                     code.words().end());
  flat_words_.resize(flat_words_.size() + (stride_ - words_per_code_), 0);
  return Status::OK();
}

Status LinearScanIndex::BatchAdd(const std::vector<ItemId>& ids,
                                 const std::vector<BinaryCode>& codes,
                                 ThreadPool* /*pool*/) {
  if (ids.size() != codes.size()) {
    return Status::InvalidArgument("BatchAdd ids/codes length mismatch");
  }
  // Validate the whole batch before reserving or mutating anything: a
  // mixed-width batch must leave the index unchanged, not fail halfway
  // through with the first codes already added.
  const size_t expect_bits =
      code_bits_ != 0 ? code_bits_ : (codes.empty() ? 0 : codes.front().size());
  for (const BinaryCode& code : codes) {
    if (code.empty()) return Status::InvalidArgument("empty code");
    if (code.size() != expect_bits) {
      return Status::InvalidArgument("BatchAdd code length mismatch");
    }
  }
  ids_.reserve(ids_.size() + ids.size());
  pos_by_id_.reserve(pos_by_id_.size() + ids.size());
  if (!codes.empty()) {
    const size_t stride = stride_ != 0
                              ? stride_
                              : simd::PaddedStride(codes.front().words().size());
    flat_words_.reserve(flat_words_.size() + codes.size() * stride);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    AGORAEO_RETURN_IF_ERROR(Add(ids[i], codes[i]));
  }
  return Status::OK();
}

namespace {

/// Codes per block of every kernel scan.  256 codes of 128 bits are
/// 4 KiB of payload — comfortably L1-resident while a shard's queries
/// take turns against the block — and 256 distances fit one stack
/// buffer handed to the kernel.
constexpr size_t kCodeBlock = 256;

/// Widens `queries` to the row stride with zero tails (zero XOR zero
/// contributes nothing), row-major in one aligned buffer, so each
/// kernel call reads a pattern shaped exactly like the rows.
simd::AlignedWordBuffer PadQueries(std::span<const BinaryCode> queries,
                                   size_t stride) {
  simd::AlignedWordBuffer padded(queries.size() * stride, 0);
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::vector<uint64_t>& words = queries[q].words();
    std::copy(words.begin(), words.end(), padded.begin() + q * stride);
  }
  return padded;
}

/// Sorted-insert into a top-k buffer ordered by (distance, id).  The
/// buffer's worst element bounds admission once full, which preserves
/// the exact result under any scan order.
inline void TopKInsert(std::vector<SearchResult>* best, size_t k,
                       const SearchResult& candidate) {
  if (best->size() >= k) {
    if (!ResultLess(candidate, best->back())) return;
    best->pop_back();
  }
  best->insert(
      std::lower_bound(best->begin(), best->end(), candidate, ResultLess),
      candidate);
}

/// The farthest distance a frontier opened with `options` can emit.
uint32_t MaxDistance(const FrontierOptions& options, size_t code_bits) {
  const uint32_t bits = static_cast<uint32_t>(code_bits);
  return options.radius.has_value() ? std::min(*options.radius, bits) : bits;
}

/// Wraps one query's collected hits into its frontier: a bounded scan's
/// sorted top-`limit` list as is, an unbounded scan's hits in
/// per-distance buckets sorted only as the consumer reaches them.
std::unique_ptr<HitFrontier> FinishScan(std::vector<SearchResult> hits,
                                        const FrontierOptions& options,
                                        size_t code_bits, size_t candidates) {
  if (options.stats != nullptr) {
    options.stats->candidates += candidates;
    options.stats->results += hits.size();
  }
  if (options.limit != 0) {
    return std::make_unique<MaterializedFrontier>(std::move(hits));
  }
  return std::make_unique<DistanceBucketFrontier>(
      std::move(hits), MaxDistance(options, code_bits));
}

/// The hottest row loop, kept out of line: inlined into BlockedOpen
/// its speed swung by up to 2x with the surrounding code's layout.
[[gnu::noinline]] void AppendWithin(const uint32_t* dist, const ItemId* ids,
                                    size_t count, uint32_t max_d,
                                    std::vector<SearchResult>* hits) {
  for (size_t j = 0; j < count; ++j) {
    if (dist[j] <= max_d) hits->push_back({ids[j], dist[j]});
  }
}

}  // namespace

void LinearScanIndex::BlockedOpen(std::span<const BinaryCode> queries,
                                  const FrontierOptions& options,
                                  const simd::HammingKernel* kernel,
                                  std::unique_ptr<HitFrontier>* out) const {
  const uint32_t max_d = MaxDistance(options, code_bits_);
  const size_t limit = options.limit;
  std::vector<std::vector<SearchResult>> hits(queries.size());
  size_t candidates = 0;
  if (options.allowed != nullptr) {
    candidates = MaskedScan(queries, options, kernel, &hits);
  } else if (!ids_.empty()) {
    candidates = ids_.size();
    if (limit == 0 && max_d >= code_bits_) {
      // A full ranking keeps every row.
      for (std::vector<SearchResult>& list : hits) list.reserve(ids_.size());
    }
    const simd::AlignedWordBuffer padded = PadQueries(queries, stride_);
    alignas(64) uint32_t dist[kCodeBlock];
    for (size_t block = 0; block < ids_.size(); block += kCodeBlock) {
      const size_t count = std::min(ids_.size() - block, kCodeBlock);
      const uint64_t* rows = flat_words_.data() + block * stride_;
      for (size_t q = 0; q < queries.size(); ++q) {
        kernel->batch(rows, count, stride_, padded.data() + q * stride_, dist);
        // Bounded and unbounded scans get separate row loops: a branch
        // on the bound inside the loop costs more than the compare.
        std::vector<SearchResult>& list = hits[q];
        if (limit == 0) {
          AppendWithin(dist, ids_.data() + block, count, max_d, &list);
        } else {
          for (size_t j = 0; j < count; ++j) {
            if (dist[j] <= max_d) {
              TopKInsert(&list, limit, {ids_[block + j], dist[j]});
            }
          }
        }
      }
    }
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    out[q] = FinishScan(std::move(hits[q]), options, code_bits_, candidates);
  }
}

size_t LinearScanIndex::MaskedScan(
    std::span<const BinaryCode> queries, const FrontierOptions& options,
    const simd::HammingKernel* kernel,
    std::vector<std::vector<SearchResult>>* hits) const {
  const CandidateSet& allowed = *options.allowed;
  if (ids_.empty() || allowed.empty()) return 0;
  const uint32_t max_d = MaxDistance(options, code_bits_);
  const size_t limit = options.limit;
  size_t candidates = 0;
  const simd::AlignedWordBuffer padded = PadQueries(queries, stride_);
  alignas(64) uint32_t dist[kCodeBlock];
  bool keep[kCodeBlock];
  for (size_t block = 0; block < ids_.size(); block += kCodeBlock) {
    const size_t count = std::min(ids_.size() - block, kCodeBlock);
    // One membership test per row, shared by every query.
    size_t kept = 0;
    for (size_t j = 0; j < count; ++j) {
      keep[j] = allowed.Contains(ids_[block + j]);
      kept += keep[j] ? 1 : 0;
    }
    if (kept == 0) continue;
    candidates += kept;
    const uint64_t* rows = flat_words_.data() + block * stride_;
    for (size_t q = 0; q < queries.size(); ++q) {
      kernel->batch(rows, count, stride_, padded.data() + q * stride_, dist);
      std::vector<SearchResult>& list = (*hits)[q];
      for (size_t j = 0; j < count; ++j) {
        if (!keep[j] || dist[j] > max_d) continue;
        if (limit == 0) {
          list.push_back({ids_[block + j], dist[j]});
        } else {
          TopKInsert(&list, limit, {ids_[block + j], dist[j]});
        }
      }
    }
  }
  return candidates;
}

std::unique_ptr<HitFrontier> LinearScanIndex::OpenFrontier(
    const BinaryCode& query, const FrontierOptions& options) const {
  // The scans read and pad a query by the indexed row width; a code of
  // any other width matches nothing (and would overrun the padding).
  if (query.size() != code_bits_) {
    return std::make_unique<MaterializedFrontier>(std::vector<SearchResult>{});
  }
  const CandidateSet* allowed = options.allowed;
  const simd::HammingKernel* kernel = simd::ActiveKernel();
  if (!ids_.empty() && (allowed == nullptr || !allowed->empty())) {
    simd::CountDispatch(kernel);
  }
  if (SparseAllowlist(allowed)) {
    // Pair distances for just the allowed rows.
    const uint32_t max_d = MaxDistance(options, code_bits_);
    std::vector<SearchResult> hits;
    size_t candidates = 0;
    const uint64_t* qw = query.words().data();
    for (ItemId id : allowed->ids()) {
      auto it = pos_by_id_.find(id);
      if (it == pos_by_id_.end()) continue;
      ++candidates;
      const uint32_t d = static_cast<uint32_t>(kernel->pair(
          flat_words_.data() + it->second * stride_, qw, words_per_code_));
      if (d > max_d) continue;
      if (options.limit != 0) {
        TopKInsert(&hits, options.limit, {id, d});
      } else {
        hits.push_back({id, d});
      }
    }
    return FinishScan(std::move(hits), options, code_bits_, candidates);
  }
  std::unique_ptr<HitFrontier> out;
  BlockedOpen(std::span<const BinaryCode>(&query, 1), options, kernel, &out);
  return out;
}

std::vector<std::unique_ptr<HitFrontier>> LinearScanIndex::OpenFrontiers(
    const std::vector<BinaryCode>& queries, const FrontierOptions& options,
    ThreadPool* pool) const {
  assert(options.stats == nullptr);
  // Row by row when any query has a foreign width: OpenFrontier answers
  // those with an empty frontier.
  const bool foreign_width =
      std::any_of(queries.begin(), queries.end(), [&](const BinaryCode& q) {
        return q.size() != code_bits_;
      });
  if (foreign_width || SparseAllowlist(options.allowed)) {
    return HammingIndex::OpenFrontiers(queries, options, pool);
  }
  std::vector<std::unique_ptr<HitFrontier>> out(queries.size());
  const simd::HammingKernel* kernel = simd::ActiveKernel();
  if (!queries.empty() && !ids_.empty()) simd::CountDispatch(kernel);
  RunSharded(queries.size(), pool, [&](size_t begin, size_t end) {
    BlockedOpen(std::span<const BinaryCode>(queries).subspan(begin, end - begin),
                options, kernel, out.data() + begin);
  });
  return out;
}

void FloatLinearScan::Add(ItemId id, const Tensor& vec) {
  assert(vec.size() == dim_);
  ids_.push_back(id);
  data_.insert(data_.end(), vec.data(), vec.data() + vec.size());
}

std::vector<FloatSearchResult> FloatLinearScan::KnnSearch(const Tensor& query,
                                                          size_t k) const {
  assert(query.size() == dim_);
  auto worse = [](const FloatSearchResult& a, const FloatSearchResult& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  };
  std::priority_queue<FloatSearchResult, std::vector<FloatSearchResult>,
                      decltype(worse)>
      heap(worse);
  const float* q = query.data();
  for (size_t i = 0; i < ids_.size(); ++i) {
    const float* row = data_.data() + i * dim_;
    float acc = 0.0f;
    for (size_t j = 0; j < dim_; ++j) {
      const float d = row[j] - q[j];
      acc += d * d;
    }
    if (heap.size() < k) {
      heap.push({ids_[i], acc});
    } else if (!heap.empty() && worse({ids_[i], acc}, heap.top())) {
      heap.pop();
      heap.push({ids_[i], acc});
    }
  }
  std::vector<FloatSearchResult> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace agoraeo::index
