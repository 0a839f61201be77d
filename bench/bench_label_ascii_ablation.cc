/// Experiment E7 — the label -> ASCII-character compression (paper
/// §3.2: "we map each (potentially multi-word) CLC label to an ASCII
/// character, thereby avoiding the manipulation of long strings").
///
/// Ablation: identical label queries against a metadata collection
/// ingested with ASCII-compressed labels versus full multi-word label
/// strings, with and without the multikey index.  Expected shape: ASCII
/// wins clearly on the unindexed scan (string comparisons dominate) and
/// retains a smaller advantage on the indexed path (shorter index
/// keys).
#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "docstore/index.h"
#include "earthqube/schema.h"

namespace agoraeo::bench {
namespace {

using bigearthnet::LabelIdFromName;
using bigearthnet::LabelSet;
using earthqube::EarthQubeQuery;
using earthqube::LabelFilter;
using earthqube::LabelEncoding;

constexpr size_t kArchive = 50000;

LabelSet QueryLabels() {
  // The longest label name in the nomenclature makes the string-length
  // effect visible.
  return LabelSet(
      {*LabelIdFromName("Land principally occupied by agriculture, with "
                        "significant areas of natural vegetation"),
       *LabelIdFromName("Pastures")});
}

void RunAblation(benchmark::State& state, LabelEncoding encoding,
                 bool indexed) {
  const ArchiveFixture& fixture = GetArchive(kArchive);
  earthqube::EarthQube* system = GetEarthQube(fixture, indexed, encoding);
  EarthQubeQuery query;
  query.label_filter = LabelFilter::AtLeastAndMore(QueryLabels());
  size_t matches = 0, iters = 0;
  for (auto _ : state) {
    auto response = system->Execute(PanelRequest(query));
    if (!response.ok()) std::abort();
    benchmark::DoNotOptimize(response);
    matches += response->panel.total();
    ++iters;
  }
  state.counters["matches"] = iters ? static_cast<double>(matches) / iters : 0;
}

/// Microbenchmark isolating the paper's actual claim: the cost of
/// evaluating the label predicate per document ("avoiding the
/// manipulation of long strings"), with the identical response-building
/// work of the end-to-end rows stripped away.
void RunFilterMatchMicro(benchmark::State& state, LabelEncoding encoding) {
  const ArchiveFixture& fixture = GetArchive(kArchive);
  std::vector<docstore::Document> docs;
  docs.reserve(fixture.archive.patches.size());
  for (const auto& meta : fixture.archive.patches) {
    docs.push_back(earthqube::MetadataToDocument(meta, encoding));
  }
  EarthQubeQuery query;
  query.label_filter = LabelFilter::AtLeastAndMore(QueryLabels());
  const docstore::Filter filter =
      query.ToFilter(encoding == LabelEncoding::kAsciiCompressed);
  size_t matches = 0;
  for (auto _ : state) {
    size_t m = 0;
    for (const auto& doc : docs) m += filter.Matches(doc);
    benchmark::DoNotOptimize(m);
    matches = m;
  }
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["ns_per_doc"] = benchmark::Counter(
      static_cast<double>(docs.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_FilterMatch_Ascii(benchmark::State& state) {
  RunFilterMatchMicro(state, LabelEncoding::kAsciiCompressed);
}
void BM_FilterMatch_FullStrings(benchmark::State& state) {
  RunFilterMatchMicro(state, LabelEncoding::kFullStrings);
}

/// Index-build microbenchmark: multikey index insertion cost depends on
/// the label key length (one index key per label per document).
void RunIndexBuildMicro(benchmark::State& state, LabelEncoding encoding) {
  const ArchiveFixture& fixture = GetArchive(kArchive);
  std::vector<docstore::Document> docs;
  for (const auto& meta : fixture.archive.patches) {
    docs.push_back(earthqube::MetadataToDocument(meta, encoding));
  }
  for (auto _ : state) {
    docstore::MultikeyIndex index(earthqube::kFieldLabels);
    for (size_t i = 0; i < docs.size(); ++i) {
      index.Insert(static_cast<docstore::DocId>(i), docs[i]);
    }
    benchmark::DoNotOptimize(index);
    state.counters["index_keys"] = static_cast<double>(index.num_keys());
  }
}

void BM_IndexBuild_Ascii(benchmark::State& state) {
  RunIndexBuildMicro(state, LabelEncoding::kAsciiCompressed);
}
void BM_IndexBuild_FullStrings(benchmark::State& state) {
  RunIndexBuildMicro(state, LabelEncoding::kFullStrings);
}

void BM_Ascii_Indexed(benchmark::State& state) {
  RunAblation(state, LabelEncoding::kAsciiCompressed, true);
}
void BM_FullStrings_Indexed(benchmark::State& state) {
  RunAblation(state, LabelEncoding::kFullStrings, true);
}
void BM_Ascii_Scan(benchmark::State& state) {
  RunAblation(state, LabelEncoding::kAsciiCompressed, false);
}
void BM_FullStrings_Scan(benchmark::State& state) {
  RunAblation(state, LabelEncoding::kFullStrings, false);
}

BENCHMARK(BM_FilterMatch_Ascii)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FilterMatch_FullStrings)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexBuild_Ascii)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexBuild_FullStrings)->Unit(benchmark::kMillisecond);
// Execute runs on the execution engine's workers while the calling
// thread waits, so these rows are timed by the wall clock: the caller's
// CPU time would miss the work.
BENCHMARK(BM_Ascii_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_FullStrings_Indexed)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Ascii_Scan)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_FullStrings_Scan)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace agoraeo::bench

BENCHMARK_MAIN();
