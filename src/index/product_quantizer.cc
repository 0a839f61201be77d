#include "index/product_quantizer.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "index/frontier.h"

namespace agoraeo::index {

namespace {

/// Squared L2 between two float spans of length n.
float SquaredL2(const float* a, const float* b, size_t n) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace

StatusOr<ProductQuantizer> ProductQuantizer::Train(const Tensor& training,
                                                   const Config& config) {
  if (training.rank() != 2) {
    return Status::InvalidArgument("training tensor must be [n, dim]");
  }
  const size_t n = training.shape()[0];
  const size_t dim = training.shape()[1];
  if (config.num_subspaces == 0 || dim % config.num_subspaces != 0) {
    return Status::InvalidArgument(
        "num_subspaces must divide the feature dimension");
  }
  if (config.num_centroids == 0 || config.num_centroids > 256) {
    return Status::InvalidArgument("num_centroids must be in [1, 256]");
  }
  if (n < config.num_centroids) {
    return Status::InvalidArgument(
        "need at least num_centroids training vectors");
  }

  ProductQuantizer pq;
  pq.dim_ = dim;
  pq.m_ = config.num_subspaces;
  pq.k_ = config.num_centroids;
  const size_t sub = pq.sub_dim();
  pq.codebooks_.resize(pq.m_);

  Rng rng(config.seed);
  const float* data = training.data();

  for (size_t s = 0; s < pq.m_; ++s) {
    auto& book = pq.codebooks_[s];
    book.resize(pq.k_ * sub);

    // Seed centroids with distinct random training rows.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    rng.Shuffle(&order);
    for (size_t c = 0; c < pq.k_; ++c) {
      const float* row = data + order[c] * dim + s * sub;
      std::copy(row, row + sub, book.begin() + c * sub);
    }

    // Lloyd iterations on the subvectors.
    std::vector<size_t> assignment(n, 0);
    std::vector<float> sums(pq.k_ * sub);
    std::vector<size_t> counts(pq.k_);
    for (size_t iter = 0; iter < config.kmeans_iterations; ++iter) {
      bool changed = false;
      for (size_t i = 0; i < n; ++i) {
        const float* x = data + i * dim + s * sub;
        float best = std::numeric_limits<float>::max();
        size_t arg = 0;
        for (size_t c = 0; c < pq.k_; ++c) {
          const float d = SquaredL2(x, book.data() + c * sub, sub);
          if (d < best) {
            best = d;
            arg = c;
          }
        }
        if (assignment[i] != arg) {
          assignment[i] = arg;
          changed = true;
        }
      }
      if (!changed && iter > 0) break;

      std::fill(sums.begin(), sums.end(), 0.0f);
      std::fill(counts.begin(), counts.end(), 0);
      for (size_t i = 0; i < n; ++i) {
        const float* x = data + i * dim + s * sub;
        float* sum = sums.data() + assignment[i] * sub;
        for (size_t j = 0; j < sub; ++j) sum[j] += x[j];
        ++counts[assignment[i]];
      }
      for (size_t c = 0; c < pq.k_; ++c) {
        if (counts[c] == 0) {
          // Empty cluster: re-seed from a random row to keep K alive.
          const float* row =
              data + order[rng.UniformInt(static_cast<uint32_t>(n))] * dim +
              s * sub;
          std::copy(row, row + sub, book.begin() + c * sub);
          continue;
        }
        const float inv = 1.0f / static_cast<float>(counts[c]);
        for (size_t j = 0; j < sub; ++j) {
          book[c * sub + j] = sums[c * sub + j] * inv;
        }
      }
    }
  }
  return pq;
}

std::vector<uint8_t> ProductQuantizer::Encode(const Tensor& feature) const {
  assert(feature.size() == dim_);
  const size_t sub = sub_dim();
  std::vector<uint8_t> code(m_);
  for (size_t s = 0; s < m_; ++s) {
    const float* x = feature.data() + s * sub;
    const auto& book = codebooks_[s];
    float best = std::numeric_limits<float>::max();
    size_t arg = 0;
    for (size_t c = 0; c < k_; ++c) {
      const float d = SquaredL2(x, book.data() + c * sub, sub);
      if (d < best) {
        best = d;
        arg = c;
      }
    }
    code[s] = static_cast<uint8_t>(arg);
  }
  return code;
}

Tensor ProductQuantizer::Decode(const std::vector<uint8_t>& code) const {
  assert(code.size() == m_);
  const size_t sub = sub_dim();
  Tensor out({dim_});
  for (size_t s = 0; s < m_; ++s) {
    const float* centroid = codebooks_[s].data() + code[s] * sub;
    std::copy(centroid, centroid + sub, out.data() + s * sub);
  }
  return out;
}

std::vector<float> ProductQuantizer::BuildAdcTable(const Tensor& query) const {
  assert(query.size() == dim_);
  const size_t sub = sub_dim();
  std::vector<float> table(m_ * k_);
  for (size_t s = 0; s < m_; ++s) {
    const float* x = query.data() + s * sub;
    const auto& book = codebooks_[s];
    for (size_t c = 0; c < k_; ++c) {
      table[s * k_ + c] = SquaredL2(x, book.data() + c * sub, sub);
    }
  }
  return table;
}

float ProductQuantizer::AdcDistance(const std::vector<float>& table,
                                    const std::vector<uint8_t>& code) const {
  float acc = 0.0f;
  for (size_t s = 0; s < m_; ++s) {
    acc += table[s * k_ + code[s]];
  }
  return acc;
}

// ---------------------------------------------------------------------------
// PqIndex
// ---------------------------------------------------------------------------

Status PqIndex::Add(ItemId id, const Tensor& feature) {
  if (feature.size() != pq_.dim()) {
    return Status::InvalidArgument("feature dimension mismatch");
  }
  const std::vector<uint8_t> code = pq_.Encode(feature);
  ids_.push_back(id);
  codes_.insert(codes_.end(), code.begin(), code.end());
  return Status::OK();
}

std::vector<FloatSearchResult> PqIndex::KnnSearch(const Tensor& query,
                                                  size_t k) const {
  std::vector<FloatSearchResult> best;
  if (ids_.empty() || k == 0) return best;
  const std::vector<float> table = pq_.BuildAdcTable(query);
  const size_t m = pq_.num_subspaces();
  const size_t kk = pq_.num_centroids();

  best.reserve(k + 1);
  auto worse = [](const FloatSearchResult& a, const FloatSearchResult& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.id < b.id);
  };
  for (size_t i = 0; i < ids_.size(); ++i) {
    const uint8_t* code = codes_.data() + i * m;
    float acc = 0.0f;
    for (size_t s = 0; s < m; ++s) acc += table[s * kk + code[s]];
    const FloatSearchResult candidate{ids_[i], acc};
    if (best.size() < k) {
      best.insert(std::lower_bound(best.begin(), best.end(), candidate, worse),
                  candidate);
    } else if (worse(candidate, best.back())) {
      best.pop_back();
      best.insert(std::lower_bound(best.begin(), best.end(), candidate, worse),
                  candidate);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// TwoStageRetriever
// ---------------------------------------------------------------------------

void TwoStageRetriever::AddFeature(ItemId id, const Tensor& feature) {
  assert(feature.size() == dim_);
  features_[id] =
      std::vector<float>(feature.data(), feature.data() + feature.size());
}

std::vector<FloatSearchResult> TwoStageRetriever::Search(
    const BinaryCode& query_code, const Tensor& query_feature, size_t k,
    size_t shortlist) const {
  FrontierOptions options;
  options.limit = shortlist;
  const std::vector<SearchResult> stage1 =
      shortlist == 0 ? std::vector<SearchResult>{}
                     : Drain(*hamming_->OpenFrontier(query_code, options),
                             shortlist);
  std::vector<FloatSearchResult> reranked;
  reranked.reserve(stage1.size());
  for (const SearchResult& hit : stage1) {
    auto it = features_.find(hit.id);
    if (it == features_.end()) continue;  // no feature registered
    reranked.push_back(
        {hit.id,
         SquaredL2(query_feature.data(), it->second.data(), dim_)});
  }
  std::sort(reranked.begin(), reranked.end(),
            [](const FloatSearchResult& a, const FloatSearchResult& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.id < b.id);
            });
  if (reranked.size() > k) reranked.resize(k);
  return reranked;
}

}  // namespace agoraeo::index
