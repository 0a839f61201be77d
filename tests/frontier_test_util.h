#ifndef AGORAEO_TESTS_FRONTIER_TEST_UTIL_H_
#define AGORAEO_TESTS_FRONTIER_TEST_UTIL_H_

// List views of the frontier API for the index tests, plus a brute-force
// reference ranking that shares no code with any index kind.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/binary_code.h"
#include "common/thread_pool.h"
#include "index/frontier.h"
#include "index/hamming_index.h"

namespace agoraeo::index {

/// Every (allowed) item within `radius`, in (distance, id) order.
inline std::vector<SearchResult> DrainRadius(
    const HammingIndex& idx, const BinaryCode& query, uint32_t radius,
    const CandidateSet* allowed = nullptr, SearchStats* stats = nullptr) {
  FrontierOptions options;
  options.radius = radius;
  options.allowed = allowed;
  options.stats = stats;
  return Drain(*idx.OpenFrontier(query, options));
}

/// The k nearest (allowed) items, in (distance, id) order.
inline std::vector<SearchResult> DrainKnn(const HammingIndex& idx,
                                          const BinaryCode& query, size_t k,
                                          const CandidateSet* allowed = nullptr,
                                          SearchStats* stats = nullptr) {
  if (k == 0) return {};
  FrontierOptions options;
  options.allowed = allowed;
  options.limit = k;
  options.stats = stats;
  return Drain(*idx.OpenFrontier(query, options), k);
}

/// Slot i drains the batched open's frontier for queries[i] (at most
/// `n` hits).
inline std::vector<std::vector<SearchResult>> DrainBatch(
    const HammingIndex& idx, const std::vector<BinaryCode>& queries,
    const FrontierOptions& options, ThreadPool* pool, size_t n = SIZE_MAX) {
  std::vector<std::unique_ptr<HitFrontier>> frontiers =
      idx.OpenFrontiers(queries, options, pool);
  std::vector<std::vector<SearchResult>> out;
  out.reserve(frontiers.size());
  for (auto& frontier : frontiers) out.push_back(Drain(*frontier, n));
  return out;
}

inline std::vector<std::vector<SearchResult>> DrainRadiusBatch(
    const HammingIndex& idx, const std::vector<BinaryCode>& queries,
    uint32_t radius, ThreadPool* pool = nullptr,
    const CandidateSet* allowed = nullptr) {
  FrontierOptions options;
  options.radius = radius;
  options.allowed = allowed;
  return DrainBatch(idx, queries, options, pool);
}

inline std::vector<std::vector<SearchResult>> DrainKnnBatch(
    const HammingIndex& idx, const std::vector<BinaryCode>& queries, size_t k,
    ThreadPool* pool = nullptr, const CandidateSet* allowed = nullptr) {
  if (k == 0) return std::vector<std::vector<SearchResult>>(queries.size());
  FrontierOptions options;
  options.allowed = allowed;
  options.limit = k;
  return DrainBatch(idx, queries, options, pool, k);
}

/// The reference ranking: every (distance, id) pair of `items`, sorted,
/// then cut to the radius, the allowlist and the first `k`.
inline std::vector<SearchResult> BruteForce(
    const std::vector<std::pair<ItemId, BinaryCode>>& items,
    const BinaryCode& query, std::optional<uint32_t> radius,
    const CandidateSet* allowed = nullptr, size_t k = SIZE_MAX) {
  std::vector<SearchResult> all;
  for (const auto& [id, code] : items) {
    all.push_back({id, static_cast<uint32_t>(query.HammingDistance(code))});
  }
  std::sort(all.begin(), all.end(), [](const SearchResult& a,
                                       const SearchResult& b) {
    return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
  });
  std::vector<SearchResult> out;
  for (const SearchResult& hit : all) {
    if (out.size() >= k) break;
    if (radius.has_value() && hit.distance > *radius) continue;
    if (allowed != nullptr && !allowed->Contains(hit.id)) continue;
    out.push_back(hit);
  }
  return out;
}

}  // namespace agoraeo::index

#endif  // AGORAEO_TESTS_FRONTIER_TEST_UTIL_H_
