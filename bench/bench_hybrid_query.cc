/// Hybrid (metadata filter ∧ similarity) query execution: pre-filter
/// (docstore filter -> candidate allowlist -> restricted Hamming
/// search) versus post-filter (Hamming search -> metadata join ->
/// filter) across filter selectivities of ≈1%, 10% and 50% at 10k and
/// 100k codes.  The crossover this bench charts is what
/// EarthQubeConfig::prefilter_selectivity_threshold encodes: selective
/// filters favour pre-filtering (the restricted search touches only the
/// allowlist), broad filters favour post-filtering (most hits survive,
/// so the join is cheap and the full docstore pass is not).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>

#include "bench/harness.h"
#include "earthqube/query_request.h"
#include "milan/milan_model.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kKnn = 10;

/// An EarthQube with CBIR attached plus date windows calibrated to the
/// target selectivities; cached per archive size.  MiLaN stays
/// untrained: executor cost does not depend on retrieval quality.
struct HybridContext {
  earthqube::EarthQube system;
  std::vector<std::string> names;
  /// Selectivity percent -> calibrated acquisition-date window.
  std::map<int, DateRange> windows;
  std::map<int, double> achieved;  ///< measured selectivity per window
};

HybridContext* GetContext(size_t num_patches) {
  static std::map<size_t, std::unique_ptr<HybridContext>> cache;
  auto it = cache.find(num_patches);
  if (it != cache.end()) return it->second.get();

  const ArchiveFixture& fixture = GetArchive(num_patches);
  auto ctx = std::make_unique<HybridContext>();
  if (!ctx->system.IngestArchive(fixture.archive).ok()) std::abort();

  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 64;
  mconfig.hidden2 = 32;
  mconfig.hash_bits = 64;
  mconfig.dropout = 0.0f;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::make_unique<milan::MilanModel>(mconfig), &fixture.extractor);
  if (!cbir->AddImages(fixture.names, fixture.features).ok()) std::abort();
  ctx->system.AttachCbir(std::move(cbir));
  ctx->names = fixture.names;

  // Calibrate date windows: the p-th percentile of sorted acquisition
  // dates bounds a [min, quantile] range matching ~p% of the archive.
  std::vector<std::string> dates;
  dates.reserve(fixture.archive.patches.size());
  for (const auto& p : fixture.archive.patches) {
    dates.push_back(p.acquisition_date.ToString());
  }
  std::sort(dates.begin(), dates.end());
  for (int pct : {1, 10, 50}) {
    const size_t idx =
        std::min(dates.size() - 1, dates.size() * pct / 100);
    auto begin = CivilDate::Parse(dates.front());
    auto end = CivilDate::Parse(dates[idx]);
    if (!begin.ok() || !end.ok()) std::abort();
    const DateRange range{*begin, *end};
    ctx->windows[pct] = range;
    earthqube::EarthQubeQuery probe;
    probe.date_range = range;
    ctx->achieved[pct] =
        static_cast<double>(ctx->system.CountMatches(probe)) /
        static_cast<double>(fixture.archive.patches.size());
  }
  return cache.emplace(num_patches, std::move(ctx)).first->second.get();
}

void RunHybrid(benchmark::State& state, earthqube::PlannerMode mode) {
  const size_t num_patches = static_cast<size_t>(state.range(0));
  const int pct = static_cast<int>(state.range(1));
  HybridContext* ctx = GetContext(num_patches);

  earthqube::EarthQubeQuery panel;
  panel.date_range = ctx->windows.at(pct);

  earthqube::QueryRequest request;
  request.panel = panel;
  request.projection = earthqube::Projection::kHitsOnly;
  request.planner = mode;
  request.page_size = 0;

  size_t offset = 0;
  size_t hits = 0;
  std::string chosen;
  for (auto _ : state) {
    request.similarity = earthqube::SimilaritySpec::NameKnn(
        ctx->names[(offset++ * 131) % ctx->names.size()], kKnn);
    auto response = ctx->system.Execute(request);
    if (!response.ok()) std::abort();
    hits += response->hits.size();
    chosen = earthqube::StrategyToString(response->plan.strategy);
    benchmark::DoNotOptimize(*response);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["achieved_sel"] = ctx->achieved.at(pct);
  state.counters["avg_hits"] =
      state.iterations() > 0
          ? static_cast<double>(hits) / static_cast<double>(state.iterations())
          : 0.0;
  state.SetLabel(chosen);
}

void BM_HybridPreFilter(benchmark::State& state) {
  RunHybrid(state, earthqube::PlannerMode::kForcePreFilter);
}
void BM_HybridPostFilter(benchmark::State& state) {
  RunHybrid(state, earthqube::PlannerMode::kForcePostFilter);
}
void BM_HybridAutoPlanner(benchmark::State& state) {
  RunHybrid(state, earthqube::PlannerMode::kAuto);
}

#define HYBRID_ARGS                                              \
  ->Args({10000, 1})->Args({10000, 10})->Args({10000, 50})       \
      ->Args({100000, 1})->Args({100000, 10})->Args({100000, 50})\
      ->Unit(benchmark::kMicrosecond)

// Execute runs on the execution engine's workers while the calling
// thread waits, so every row is timed by the wall clock: the caller's
// CPU time would miss the work.
BENCHMARK(BM_HybridPreFilter) HYBRID_ARGS->UseRealTime();
BENCHMARK(BM_HybridPostFilter) HYBRID_ARGS->UseRealTime();
BENCHMARK(BM_HybridAutoPlanner) HYBRID_ARGS->UseRealTime();

}  // namespace
}  // namespace agoraeo::bench

int main(int argc, char** argv) {
  return agoraeo::bench::RunBenchmarksWithJson("hybrid_query", argc, argv);
}
