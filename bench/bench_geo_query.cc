/// Experiment E6 — geospatial queries over the metadata location index
/// (paper §3.2: "we index the location attribute using MongoDB's
/// built-in 2D geohashing index").
///
/// Measures rectangle / circle / polygon queries with the geohash index
/// versus a collection scan, for small (city-scale) and large
/// (country-scale) query areas.  Expected shape: the index wins by a
/// large factor for selective areas and converges toward the scan as
/// the area approaches the whole archive.
#include <benchmark/benchmark.h>

#include "bench/harness.h"

namespace agoraeo::bench {
namespace {

using earthqube::EarthQubeQuery;
using earthqube::GeoQuery;

constexpr size_t kArchive = 50000;

geo::BoundingBox SmallRect() { return {{38.0, -9.2}, {38.4, -8.8}}; }  // ~40 km
geo::BoundingBox LargeRect() { return {{37.0, -9.5}, {42.2, -6.2}}; }  // Portugal

void RunGeoQuery(benchmark::State& state, const GeoQuery& geo, bool indexed) {
  const ArchiveFixture& fixture = GetArchive(kArchive);
  earthqube::EarthQube* system = GetEarthQube(
      fixture, indexed, earthqube::LabelEncoding::kAsciiCompressed);
  EarthQubeQuery query;
  query.geo = geo;
  size_t matches = 0, examined = 0, iters = 0;
  std::string plan;
  for (auto _ : state) {
    auto response = system->Execute(PanelRequest(query));
    if (!response.ok()) std::abort();
    benchmark::DoNotOptimize(response);
    matches += response->panel.total();
    examined += response->query_stats.docs_examined;
    plan = response->query_stats.plan;
    ++iters;
  }
  state.counters["matches"] = iters ? static_cast<double>(matches) / iters : 0;
  state.counters["docs_examined"] =
      iters ? static_cast<double>(examined) / iters : 0;
  state.SetLabel(plan);
}

void BM_SmallRect_Indexed(benchmark::State& state) {
  RunGeoQuery(state, GeoQuery::Rect(SmallRect()), true);
}
void BM_SmallRect_Scan(benchmark::State& state) {
  RunGeoQuery(state, GeoQuery::Rect(SmallRect()), false);
}
void BM_LargeRect_Indexed(benchmark::State& state) {
  RunGeoQuery(state, GeoQuery::Rect(LargeRect()), true);
}
void BM_LargeRect_Scan(benchmark::State& state) {
  RunGeoQuery(state, GeoQuery::Rect(LargeRect()), false);
}
void BM_Circle_Indexed(benchmark::State& state) {
  RunGeoQuery(state, GeoQuery::InCircle({{38.2, -9.0}, 30000}), true);
}
void BM_Circle_Scan(benchmark::State& state) {
  RunGeoQuery(state, GeoQuery::InCircle({{38.2, -9.0}, 30000}), false);
}
void BM_Polygon_Indexed(benchmark::State& state) {
  // A triangle over the SW tip of Portugal.
  RunGeoQuery(state,
              GeoQuery::InPolygon({{{37.0, -9.5}, {38.5, -9.5}, {37.7, -7.9}}}),
              true);
}
void BM_Polygon_Scan(benchmark::State& state) {
  RunGeoQuery(state,
              GeoQuery::InPolygon({{{37.0, -9.5}, {38.5, -9.5}, {37.7, -7.9}}}),
              false);
}

// Execute runs on the execution engine's workers while the calling
// thread waits, so every row is timed by the wall clock: the caller's
// CPU time would miss the work.
BENCHMARK(BM_SmallRect_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_SmallRect_Scan)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_LargeRect_Indexed)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_LargeRect_Scan)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Circle_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Circle_Scan)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Polygon_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Polygon_Scan)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace agoraeo::bench

BENCHMARK_MAIN();
