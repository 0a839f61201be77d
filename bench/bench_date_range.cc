/// Experiment E14 — acquisition-date range queries over the metadata
/// collection (paper §3.1: the query panel filters by "the acquisition
/// date range"; §3.2: MongoDB's secondary B-tree indexes serve such
/// range predicates).
///
/// Measures date-range search latency with the B+-tree range index
/// versus a collection scan, for one-week, one-month and six-month
/// windows of the archive's Jun 2017 - May 2018 span.  Expected shape:
/// the index wins by orders of magnitude for narrow windows and
/// converges toward the scan as the window approaches the full year.
///
/// The BM_Panel* family runs the conjunctions the query panel issues: a
/// date range from the archive's first day combined with a label, a
/// season or a geo rectangle, served one page at a time.  Their
/// docs_examined counter is the number of documents given the
/// per-document check; with the other terms probed as posting lists it
/// approaches the match count.
#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "common/time_util.h"

namespace agoraeo::bench {
namespace {

using earthqube::EarthQubeQuery;

constexpr size_t kArchive = 50000;

void RunPanel(benchmark::State& state, const earthqube::QueryRequest& request,
              bool indexed) {
  const ArchiveFixture& fixture = GetArchive(kArchive);
  earthqube::EarthQube* system = GetEarthQube(
      fixture, indexed, earthqube::LabelEncoding::kAsciiCompressed);
  size_t matches = 0, examined = 0, iters = 0;
  std::string plan;
  for (auto _ : state) {
    auto response = system->Execute(request);
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

void RunDateQuery(benchmark::State& state, const DateRange& range,
                  bool indexed) {
  EarthQubeQuery query;
  query.date_range = range;
  RunPanel(state, PanelRequest(query), indexed);
}

/// One page of a panel whose date range starts on the archive's first
/// day, narrowed by `narrow`.
template <typename Narrow>
void RunPanelConjunction(benchmark::State& state, Narrow narrow) {
  EarthQubeQuery query;
  query.date_range =
      DateRange{GetArchive(kArchive).config.dates.begin,
                CivilDate(2017, 11, 30)};
  narrow(&query);
  earthqube::QueryRequest request = PanelRequest(query);
  request.page_size = earthqube::kPageSize;
  RunPanel(state, request, true);
}

DateRange Week() { return {CivilDate(2017, 8, 7), CivilDate(2017, 8, 13)}; }
DateRange Month() { return {CivilDate(2017, 8, 1), CivilDate(2017, 8, 31)}; }
DateRange HalfYear() {
  return {CivilDate(2017, 6, 1), CivilDate(2017, 11, 30)};
}

void BM_Week_Indexed(benchmark::State& state) {
  RunDateQuery(state, Week(), true);
}
void BM_Week_Scan(benchmark::State& state) {
  RunDateQuery(state, Week(), false);
}
void BM_Month_Indexed(benchmark::State& state) {
  RunDateQuery(state, Month(), true);
}
void BM_Month_Scan(benchmark::State& state) {
  RunDateQuery(state, Month(), false);
}
void BM_HalfYear_Indexed(benchmark::State& state) {
  RunDateQuery(state, HalfYear(), true);
}
void BM_HalfYear_Scan(benchmark::State& state) {
  RunDateQuery(state, HalfYear(), false);
}

void BM_PanelDateLabel(benchmark::State& state) {
  RunPanelConjunction(state, [](EarthQubeQuery* query) {
    query->label_filter = earthqube::LabelFilter::Some(bigearthnet::LabelSet(
        {*bigearthnet::LabelIdFromName("Coniferous forest")}));
  });
}
void BM_PanelDateSeason(benchmark::State& state) {
  RunPanelConjunction(state, [](EarthQubeQuery* query) {
    query->seasons = {Season::kAutumn};
  });
}
void BM_PanelDateGeo(benchmark::State& state) {
  RunPanelConjunction(state, [](EarthQubeQuery* query) {
    query->geo = earthqube::GeoQuery::Rect(
        (*bigearthnet::CountryByName("Portugal"))->extent);
  });
}

// Execute runs on the execution engine's workers while the calling
// thread waits, so every row is timed by the wall clock: the caller's
// CPU time would miss the work.
BENCHMARK(BM_Week_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Week_Scan)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Month_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Month_Scan)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_HalfYear_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_HalfYear_Scan)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_PanelDateLabel)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_PanelDateSeason)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_PanelDateGeo)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace agoraeo::bench

BENCHMARK_MAIN();
