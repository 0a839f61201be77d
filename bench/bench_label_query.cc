/// Experiment E5 — label filtering operators (paper §3.1, Figure 2-2).
///
/// Measures the latency of the Some / Exactly / AtLeast&More operators
/// with the production indexes (multikey labels array + hash on the
/// sorted labels_key) versus a collection scan, at low and high
/// selectivity.  Expected shape: indexed queries beat the scan by
/// orders of magnitude at high selectivity; Exactly is the cheapest
/// indexed operator (single hash probe).
#include <benchmark/benchmark.h>

#include "bench/harness.h"

namespace agoraeo::bench {
namespace {

using bigearthnet::LabelIdFromName;
using bigearthnet::LabelSet;
using earthqube::EarthQubeQuery;
using earthqube::LabelFilter;

constexpr size_t kArchive = 50000;

LabelSet RareLabels() {
  // Industrial + water bodies: the industrial_waterfront theme only.
  return LabelSet({*LabelIdFromName("Industrial or commercial units"),
                   *LabelIdFromName("Water bodies")});
}

LabelSet CommonLabels() {
  // Pastures: core label of a frequent theme.
  return LabelSet({*LabelIdFromName("Pastures")});
}

void RunLabelQuery(benchmark::State& state, earthqube::LabelOperator op,
                   const LabelSet& labels, bool indexed) {
  const ArchiveFixture& fixture = GetArchive(kArchive);
  earthqube::EarthQube* system = GetEarthQube(
      fixture, indexed, earthqube::LabelEncoding::kAsciiCompressed);

  EarthQubeQuery query;
  query.label_filter = {true, op, labels};
  size_t matches = 0, iters = 0;
  std::string plan;
  for (auto _ : state) {
    auto response = system->Execute(PanelRequest(query));
    if (!response.ok()) std::abort();
    benchmark::DoNotOptimize(response);
    matches += response->panel.total();
    plan = response->query_stats.plan;
    ++iters;
  }
  state.counters["matches"] =
      iters ? static_cast<double>(matches) / iters : 0;
  state.SetLabel(plan);
}

void BM_Some_Rare_Indexed(benchmark::State& state) {
  RunLabelQuery(state, earthqube::LabelOperator::kSome, RareLabels(), true);
}
void BM_Some_Rare_Scan(benchmark::State& state) {
  RunLabelQuery(state, earthqube::LabelOperator::kSome, RareLabels(), false);
}
void BM_Some_Common_Indexed(benchmark::State& state) {
  RunLabelQuery(state, earthqube::LabelOperator::kSome, CommonLabels(), true);
}
void BM_Exactly_Indexed(benchmark::State& state) {
  RunLabelQuery(state, earthqube::LabelOperator::kExactly, RareLabels(), true);
}
void BM_Exactly_Scan(benchmark::State& state) {
  RunLabelQuery(state, earthqube::LabelOperator::kExactly, RareLabels(),
                false);
}
void BM_AtLeast_Indexed(benchmark::State& state) {
  RunLabelQuery(state, earthqube::LabelOperator::kAtLeastAndMore,
                RareLabels(), true);
}
void BM_AtLeast_Scan(benchmark::State& state) {
  RunLabelQuery(state, earthqube::LabelOperator::kAtLeastAndMore,
                RareLabels(), false);
}

// Execute runs on the execution engine's workers while the calling
// thread waits, so every row is timed by the wall clock: the caller's
// CPU time would miss the work.
BENCHMARK(BM_Some_Rare_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Some_Rare_Scan)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Some_Common_Indexed)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Exactly_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Exactly_Scan)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_AtLeast_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_AtLeast_Scan)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace agoraeo::bench

BENCHMARK_MAIN();
