/// Experiment E1 — "real-time nearest neighbor search" (paper §1, §2.2).
///
/// Measures CBIR query latency as a function of archive size for the
/// paper's hash-table lookup versus multi-index hashing, an exhaustive
/// Hamming scan, and an exhaustive float-feature scan (what retrieval
/// would cost without hashing).  Expected shape: hash lookup latency is
/// roughly flat in archive size for a fixed radius, while both scans
/// grow linearly; the float scan is slowest by a wide margin.
#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "index/hamming_table.h"
#include "index/ivf_index.h"
#include "index/linear_scan.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kBits = 128;
constexpr uint32_t kRadius = 8;

/// Builds (cached) an index of the requested kind over clustered codes.
index::HammingIndex* GetIndex(const std::string& kind, size_t n) {
  static std::map<std::pair<std::string, size_t>,
                  std::unique_ptr<index::HammingIndex>>
      cache;
  auto key = std::make_pair(kind, n);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second.get();

  const ArchiveFixture& fixture = GetArchive(n);
  const auto codes = ClusteredCodes(fixture, kBits);
  std::unique_ptr<index::HammingIndex> idx;
  if (kind == "hash_table") {
    idx = std::make_unique<index::HammingHashTable>();
  } else if (kind == "mih") {
    idx = std::make_unique<index::MultiIndexHashing>(4);
  } else {
    idx = std::make_unique<index::LinearScanIndex>();
  }
  for (size_t i = 0; i < codes.size(); ++i) {
    auto status = idx->Add(i, codes[i]);
    if (!status.ok()) std::abort();
  }
  auto [inserted, _] = cache.emplace(key, std::move(idx));
  return inserted->second.get();
}

void RunRadiusQueries(benchmark::State& state, const std::string& kind) {
  const size_t n = static_cast<size_t>(state.range(0));
  index::HammingIndex* idx = GetIndex(kind, n);
  const ArchiveFixture& fixture = GetArchive(n);
  const auto codes = ClusteredCodes(fixture, kBits);

  size_t q = 0;
  size_t results = 0, candidates = 0, queries = 0;
  for (auto _ : state) {
    index::SearchStats stats;
    auto hits =
        RadiusHits(*idx, codes[(q * 37) % codes.size()], kRadius, &stats);
    benchmark::DoNotOptimize(hits);
    results += hits.size();
    candidates += stats.candidates;
    ++queries;
    ++q;
  }
  state.counters["archive_size"] = static_cast<double>(n);
  state.counters["avg_results"] =
      queries ? static_cast<double>(results) / queries : 0;
  state.counters["avg_candidates"] =
      queries ? static_cast<double>(candidates) / queries : 0;
}

void BM_HashTableLookup(benchmark::State& state) {
  RunRadiusQueries(state, "hash_table");
}
void BM_MultiIndexHashing(benchmark::State& state) {
  RunRadiusQueries(state, "mih");
}
void BM_HammingLinearScan(benchmark::State& state) {
  RunRadiusQueries(state, "linear");
}

/// Float-feature exhaustive scan baseline (no hashing at all).
void BM_FloatFeatureScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ArchiveFixture& fixture = GetArchive(n);
  static std::map<size_t, std::unique_ptr<index::FloatLinearScan>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    auto scan = std::make_unique<index::FloatLinearScan>(
        bigearthnet::kFeatureDim);
    for (size_t i = 0; i < n; ++i) scan->Add(i, fixture.features.Row(i));
    it = cache.emplace(n, std::move(scan)).first;
  }
  size_t q = 0;
  for (auto _ : state) {
    auto hits = it->second->KnnSearch(fixture.features.Row((q * 37) % n), 20);
    benchmark::DoNotOptimize(hits);
    ++q;
  }
  state.counters["archive_size"] = static_cast<double>(n);
}

/// IVF-Flat (FAISS/Milvus-style inverted file, nprobe=8 of 64 cells):
/// the float-side middle ground between exhaustive scan and hashing.
void BM_IvfFlatSearch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const ArchiveFixture& fixture = GetArchive(n);
  static std::map<size_t, std::unique_ptr<index::IvfFlatIndex>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    index::IvfFlatIndex::Config config;
    config.nlist = 64;
    auto ivf = index::IvfFlatIndex::Train(fixture.features, config);
    if (!ivf.ok()) std::abort();
    auto owned = std::make_unique<index::IvfFlatIndex>(std::move(ivf).value());
    for (size_t i = 0; i < n; ++i) {
      if (!owned->Add(i, fixture.features.Row(i)).ok()) std::abort();
    }
    it = cache.emplace(n, std::move(owned)).first;
  }
  size_t q = 0, candidates = 0, queries = 0;
  for (auto _ : state) {
    const Tensor query = fixture.features.Row((q * 37) % n);
    auto hits = it->second->KnnSearch(query, 20, /*nprobe=*/8);
    benchmark::DoNotOptimize(hits);
    candidates += it->second->CandidatesForProbe(query, 8);
    ++queries;
    ++q;
  }
  state.counters["archive_size"] = static_cast<double>(n);
  state.counters["avg_candidates"] =
      queries ? static_cast<double>(candidates) / queries : 0;
}

BENCHMARK(BM_HashTableLookup)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MultiIndexHashing)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HammingLinearScan)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IvfFlatSearch)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FloatFeatureScan)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace agoraeo::bench

BENCHMARK_MAIN();
