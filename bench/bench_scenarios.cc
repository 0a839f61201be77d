/// Experiments E10-E12 — the three demonstration scenarios of paper §4,
/// measured end-to-end against a fully built EarthQube instance
/// (archive ingested, MiLaN trained, CBIR index loaded).
///
///  E10 Label-based Exploration: industrial areas adjacent to inland
///      water bodies, with the label-statistics view.
///  E11 Spatial Exploration + Query-by-Existing-Example: SW-Portugal
///      rectangle, then CBIR from a result image.
///  E12 Query-by-New-Example: upload -> feature extraction -> on-the-fly
///      hashing -> radius retrieval.
///
/// Expected shape: every scenario completes in interactive time
/// (milliseconds for E10/E11 metadata+CBIR paths; E12 dominated by
/// pixel feature extraction, still well under a second).
#include <benchmark/benchmark.h>

#include "bench/harness.h"

namespace agoraeo::bench {
namespace {

using bigearthnet::LabelIdFromName;
using bigearthnet::LabelSet;
using earthqube::EarthQubeQuery;
using earthqube::GeoQuery;
using earthqube::LabelFilter;

constexpr size_t kArchive = 20000;
constexpr size_t kBits = 64;

earthqube::EarthQube* GetFullSystem() {
  static earthqube::EarthQube* system = nullptr;
  if (system == nullptr) {
    const ArchiveFixture& fixture = GetArchive(kArchive);
    system = GetEarthQube(fixture, true,
                          earthqube::LabelEncoding::kAsciiCompressed);
    milan::MilanModel* trained = GetTrainedMilan(fixture, kBits);
    // The CBIR service owns its model; reload the trained weights into a
    // fresh instance via serialization.
    const std::string tmp = "/tmp/agoraeo_bench_model.bin";
    if (!trained->Save(tmp).ok()) std::abort();
    auto loaded = milan::MilanModel::Load(tmp);
    if (!loaded.ok()) std::abort();
    auto cbir = std::make_unique<earthqube::CbirService>(
        std::move(loaded).value(), &fixture.extractor);
    if (!cbir->AddImages(fixture.names, fixture.features).ok()) std::abort();
    system->AttachCbir(std::move(cbir));
  }
  return system;
}

/// E10: label exploration with statistics.
void BM_Scenario_LabelExploration(benchmark::State& state) {
  earthqube::EarthQube* system = GetFullSystem();
  EarthQubeQuery query;
  query.label_filter = LabelFilter::AtLeastAndMore(
      LabelSet({*LabelIdFromName("Industrial or commercial units"),
                *LabelIdFromName("Water bodies")}));
  size_t matches = 0, labels_discovered = 0, iters = 0;
  for (auto _ : state) {
    auto response = system->Execute(PanelRequest(query));
    if (!response.ok()) std::abort();
    matches += response->panel.total();
    labels_discovered += response->statistics.bars().size();
    benchmark::DoNotOptimize(response);
    ++iters;
  }
  state.counters["matches"] = iters ? static_cast<double>(matches) / iters : 0;
  state.counters["labels_in_stats"] =
      iters ? static_cast<double>(labels_discovered) / iters : 0;
}

/// E11: geospatial query, then CBIR from the first result.
void BM_Scenario_SpatialCbir(benchmark::State& state) {
  earthqube::EarthQube* system = GetFullSystem();
  EarthQubeQuery geo_query;
  geo_query.geo = GeoQuery::Rect({{37.0, -9.5}, {38.5, -7.8}});
  size_t similar_found = 0, iters = 0;
  for (auto _ : state) {
    auto geo_response = system->Execute(PanelRequest(geo_query));
    if (!geo_response.ok() || geo_response->panel.total() == 0) std::abort();
    const std::string& name = geo_response->panel.entries()[0].name;
    auto cbir_response = system->Execute(
        SimilarRequest(earthqube::SimilaritySpec::NameKnn(name, 20)));
    if (!cbir_response.ok()) std::abort();
    similar_found += cbir_response->panel.total();
    benchmark::DoNotOptimize(cbir_response);
    ++iters;
  }
  state.counters["similar_found"] =
      iters ? static_cast<double>(similar_found) / iters : 0;
}

/// E12: upload a new image (pixels!) and retrieve by content.
void BM_Scenario_QueryByNewExample(benchmark::State& state) {
  earthqube::EarthQube* system = GetFullSystem();
  const ArchiveFixture& fixture = GetArchive(kArchive);
  // Pre-synthesise a handful of "uploads" outside the benchmark loop.
  bigearthnet::ArchiveConfig fresh_config;
  fresh_config.num_patches = 8;
  fresh_config.seed = 5000;
  bigearthnet::ArchiveGenerator fresh_gen(fresh_config);
  auto fresh = fresh_gen.Generate();
  if (!fresh.ok()) std::abort();
  std::vector<bigearthnet::Patch> uploads;
  for (const auto& meta : fresh->patches) {
    uploads.push_back(fresh_gen.SynthesizePatch(meta));
  }
  size_t found = 0, iters = 0, u = 0;
  for (auto _ : state) {
    auto response = system->Execute(SimilarRequest(
        earthqube::SimilaritySpec::PatchRadius(uploads[u % uploads.size()], 14,
                                               50)));
    if (!response.ok()) std::abort();
    found += response->panel.total();
    benchmark::DoNotOptimize(response);
    ++iters;
    ++u;
  }
  state.counters["retrieved"] = iters ? static_cast<double>(found) / iters : 0;
  (void)fixture;
}

// Execute runs on the execution engine's workers while the calling
// thread waits, so every row is timed by the wall clock: the caller's
// CPU time would miss the work.
BENCHMARK(BM_Scenario_LabelExploration)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_Scenario_SpatialCbir)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_Scenario_QueryByNewExample)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace agoraeo::bench

BENCHMARK_MAIN();
