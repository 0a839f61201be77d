// Self-tests of the benchmark's own arithmetic and determinism, run
// before every measurement (e2ebench --selftest --workload <name>).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "stats.h"
#include "workload.h"

namespace e2ebench {

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::string AllBytes(const Inputs& in) {
  std::string out = ScheduleBytes(in.warmup) + "|" + ScheduleBytes(in.window);
  for (uint32_t q : in.verify) out += QueryBody(in, in.queries[q], 0);
  for (uint32_t q : in.probe) out += QueryBody(in, in.queries[q], 1);
  for (uint32_t q : in.panel_sweep) out += QueryBody(in, in.queries[q], 0);
  for (const IngestBatch& b : in.stream) {
    out += std::to_string(b.due_ns) + ":" + std::to_string(b.begin) + ",";
  }
  for (uint64_t c : in.codes) out += std::to_string(c) + ",";
  return out;
}

void TestSchedule(WorkloadSpec spec) {
  // Determinism does not depend on the archive's size; a smaller one
  // keeps the self-test that precedes every run quick.
  spec.archive = std::min<size_t>(spec.archive, 20000);
  const std::string a = AllBytes(MakeInputs(spec, 7, 2));
  const std::string b = AllBytes(MakeInputs(spec, 7, 2));
  const std::string c = AllBytes(MakeInputs(spec, 8, 2));
  Check(a == b, std::string(spec.name) + ": same seed, different inputs");
  Check(a != c, std::string(spec.name) + ": seed does not change inputs");
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Check(Near(Percentile(v, 0.5), 50.5), "p50 of 1..100");
  Check(Near(Percentile(v, 0.99), 99.01), "p99 of 1..100");
  Check(Near(Percentile(v, 0.0), 1) && Near(Percentile(v, 1.0), 100),
        "p0/p100 of 1..100");
  Check(Near(Percentile({7}, 0.99), 7), "percentile of one sample");
  Check(Percentile({}, 0.5) == 0, "percentile of nothing");
  Check(Near(Mean({1, 2, 6}), 3), "mean");
}

void TestCpuShare() {
  // 250 ticks at 100 Hz = 2.5 s of CPU over 500 queries = 5 ms each.
  Check(Near(CpuMsPerQuery(250, 100, 500), 5.0), "cpu ms per query");
  Check(CpuMsPerQuery(250, 100, 0) == 0, "cpu per query without queries");
}

void TestRegistryDelta() {
  const Scrape before = ParseScrape(
      R"({"c_total":10,"h_ns":{"count":4,"sum_ns":4000,"mean_ns":1000},)"
      R"("gone":3})");
  const Scrape after = ParseScrape(
      R"({"c_total":25,"h_ns":{"count":6,"sum_ns":10000,"mean_ns":1666}})");
  const RegistryDelta d(before, after);
  Check(d.Count("c_total") == 15.0, "counter delta");
  Check(d.Count("h_ns") == 2.0 && d.Sum("h_ns") == 6000.0,
        "histogram count/sum delta");
  Check(d.Mean("h_ns") == 3000.0, "histogram mean of the window");
  Check(!d.Count("gone").has_value(), "series gone after -> absent");
  Check(!d.Count("never").has_value(), "unknown series -> absent");
  Check(!d.Sum("c_total").has_value(), "counter has no sum");
  const Scrape broken = ParseScrape("not json");
  Check(!RegistryDelta(broken, after).Count("c_total").has_value(),
        "failed scrape -> absent");
  const Scrape idle = ParseScrape(R"({"h_ns":{"count":6,"sum_ns":10000}})");
  Check(RegistryDelta(idle, idle).Mean("h_ns") == 0.0,
        "no samples in the window -> mean 0");
}

}  // namespace

int RunSelfTests(const WorkloadSpec* spec) {
  TestPercentile();
  TestCpuShare();
  TestRegistryDelta();
  for (const WorkloadSpec& w : Workloads()) {
    if (spec == nullptr || spec == &w) TestSchedule(w);
  }
  if (failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace e2ebench
