/// Experiment E15 — cost of the three-tier architecture (paper §3.2).
///
/// Measures the same query-panel searches (a) as direct in-process calls
/// against the EarthQube facade and (b) as JSON-over-HTTP round trips
/// through the back-end tier on loopback TCP, plus the health probe as
/// the floor of pure transport cost.  Expected shape: the HTTP tier adds
/// a roughly constant overhead (connection setup + JSON) that dominates
/// cheap indexed queries and becomes negligible for expensive ones —
/// which is why the paper's interactive demo can afford a REST tier.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/harness.h"
#include "netsvc/client.h"
#include "netsvc/earthqube_service.h"
#include "netsvc/server.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kArchive = 50000;

/// One server shared across benchmark repetitions.
struct Tier {
  netsvc::HttpServer server{4};
  std::unique_ptr<netsvc::EarthQubeService> service;
  uint16_t port = 0;
};

Tier* GetTier() {
  static Tier* tier = [] {
    const ArchiveFixture& fixture = GetArchive(kArchive);
    earthqube::EarthQube* system = GetEarthQube(
        fixture, true, earthqube::LabelEncoding::kAsciiCompressed);
    auto* t = new Tier();
    t->service = std::make_unique<netsvc::EarthQubeService>(system);
    t->service->RegisterRoutes(&t->server);
    if (!t->server.Start(0).ok()) std::abort();
    t->port = t->server.port();
    return t;
  }();
  return tier;
}

// Unpaged panels, as PanelRequest executes them in process.
const char* kLabelQuery =
    R"({"panel":{"labels":{"operator":"some","names":["Airports"]},)"
    R"("limit":50},"page_size":0})";
const char* kDateQuery =
    R"({"panel":{"date_range":{"begin":"2017-08-07","end":"2017-08-13"},)"
    R"("limit":50},"page_size":0})";

earthqube::EarthQubeQuery InProcessLabelQuery() {
  earthqube::EarthQubeQuery q;
  q.label_filter = earthqube::LabelFilter::Some(
      bigearthnet::LabelSet({*bigearthnet::LabelIdFromName("Airports")}));
  q.limit = 50;
  return q;
}

earthqube::EarthQubeQuery InProcessDateQuery() {
  earthqube::EarthQubeQuery q;
  q.date_range = DateRange{CivilDate(2017, 8, 7), CivilDate(2017, 8, 13)};
  q.limit = 50;
  return q;
}

void BM_InProcess_LabelSearch(benchmark::State& state) {
  const ArchiveFixture& fixture = GetArchive(kArchive);
  earthqube::EarthQube* system = GetEarthQube(
      fixture, true, earthqube::LabelEncoding::kAsciiCompressed);
  const auto query = InProcessLabelQuery();
  for (auto _ : state) {
    auto response = system->Execute(PanelRequest(query));
    if (!response.ok()) std::abort();
    benchmark::DoNotOptimize(response);
  }
}

void BM_Http_LabelSearch(benchmark::State& state) {
  Tier* tier = GetTier();
  netsvc::HttpClient client;
  for (auto _ : state) {
    auto response = client.Post(tier->port, "/api/v2/query", kLabelQuery);
    if (!response.ok() || response->status_code != 200) std::abort();
    benchmark::DoNotOptimize(response);
  }
}

void BM_InProcess_DateSearch(benchmark::State& state) {
  const ArchiveFixture& fixture = GetArchive(kArchive);
  earthqube::EarthQube* system = GetEarthQube(
      fixture, true, earthqube::LabelEncoding::kAsciiCompressed);
  const auto query = InProcessDateQuery();
  for (auto _ : state) {
    auto response = system->Execute(PanelRequest(query));
    if (!response.ok()) std::abort();
    benchmark::DoNotOptimize(response);
  }
}

void BM_Http_DateSearch(benchmark::State& state) {
  Tier* tier = GetTier();
  netsvc::HttpClient client;
  for (auto _ : state) {
    auto response = client.Post(tier->port, "/api/v2/query", kDateQuery);
    if (!response.ok() || response->status_code != 200) std::abort();
    benchmark::DoNotOptimize(response);
  }
}

void BM_Http_HealthProbe(benchmark::State& state) {
  // Pure transport floor: TCP connect + trivial handler + JSON blip.
  Tier* tier = GetTier();
  netsvc::HttpClient client;
  for (auto _ : state) {
    auto response = client.Get(tier->port, "/health");
    if (!response.ok() || response->status_code != 200) std::abort();
    benchmark::DoNotOptimize(response);
  }
}

// Wall clock: Execute runs on the engine's workers and a round trip
// waits on the server, so CPU time would count only the waiting caller.
BENCHMARK(BM_Http_HealthProbe)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_InProcess_LabelSearch)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_Http_LabelSearch)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_InProcess_DateSearch)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_Http_DateSearch)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace agoraeo::bench

BENCHMARK_MAIN();
