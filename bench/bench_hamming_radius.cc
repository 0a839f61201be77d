/// Experiment E3 — "retrieve all images ... within a small hamming
/// radius of the query image" (paper §3.3).
///
/// Sweeps the Hamming radius and charts latency + candidate counts for
/// the single hash table (mask enumeration / bucket-scan fallback) and
/// multi-index hashing.  Expected shape: mask-enumeration cost explodes
/// combinatorially with r (until the bucket-scan fallback caps it),
/// while MIH stays sub-linear; the crossover sits at small r.
#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "index/hamming_table.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kBits = 128;
constexpr size_t kArchive = 50000;

enum class Kind { kTable, kMih };

index::HammingIndex* GetIndex(Kind kind) {
  static std::unique_ptr<index::HammingIndex> table, multi;
  auto& slot = kind == Kind::kMih ? multi : table;
  if (slot == nullptr) {
    const ArchiveFixture& fixture = GetArchive(kArchive);
    const auto codes = ClusteredCodes(fixture, kBits);
    if (kind == Kind::kMih) {
      slot = std::make_unique<index::MultiIndexHashing>(4);
    } else {
      slot = std::make_unique<index::HammingHashTable>();
    }
    for (size_t i = 0; i < codes.size(); ++i) {
      if (!slot->Add(i, codes[i]).ok()) std::abort();
    }
  }
  return slot.get();
}

void RunSweep(benchmark::State& state, Kind kind) {
  const uint32_t radius = static_cast<uint32_t>(state.range(0));
  index::HammingIndex* idx = GetIndex(kind);
  const ArchiveFixture& fixture = GetArchive(kArchive);
  const auto codes = ClusteredCodes(fixture, kBits);

  size_t q = 0, results = 0, candidates = 0, probes = 0, queries = 0;
  for (auto _ : state) {
    index::SearchStats stats;
    auto hits =
        RadiusHits(*idx, codes[(q * 41) % codes.size()], radius, &stats);
    benchmark::DoNotOptimize(hits);
    results += stats.results;
    candidates += stats.candidates;
    probes += stats.buckets_probed;
    ++queries;
    ++q;
  }
  state.counters["radius"] = radius;
  state.counters["avg_results"] =
      queries ? static_cast<double>(results) / queries : 0;
  state.counters["avg_candidates"] =
      queries ? static_cast<double>(candidates) / queries : 0;
  state.counters["avg_probes"] =
      queries ? static_cast<double>(probes) / queries : 0;
}

void BM_HashTableRadius(benchmark::State& state) {
  RunSweep(state, Kind::kTable);
}
void BM_MihRadius(benchmark::State& state) { RunSweep(state, Kind::kMih); }

BENCHMARK(BM_HashTableRadius)
    ->DenseRange(0, 6, 1)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MihRadius)
    ->DenseRange(0, 6, 1)->Arg(10)->Arg(14)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace agoraeo::bench

BENCHMARK_MAIN();
