#ifndef AGORAEO_BENCH_HARNESS_H_
#define AGORAEO_BENCH_HARNESS_H_

/// Shared setup for the benchmark suite.  Each bench binary regenerates
/// one experiment row of DESIGN.md's experiment index; the helpers here
/// build archives, features, codes and EarthQube instances once per
/// process and cache them across benchmark repetitions.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "common/binary_code.h"
#include "common/random.h"
#include "docstore/value.h"
#include "earthqube/earthqube.h"
#include "index/frontier.h"
#include "milan/baselines.h"
#include "milan/trainer.h"
#include "tensor/tensor.h"

namespace agoraeo::bench {

/// A synthetic archive with features, cached by (size, seed).
struct ArchiveFixture {
  bigearthnet::ArchiveConfig config;
  std::unique_ptr<bigearthnet::ArchiveGenerator> generator;
  bigearthnet::Archive archive;
  bigearthnet::FeatureExtractor extractor;
  Tensor features;  ///< [n, kFeatureDim]
  std::vector<std::string> names;
  std::vector<bigearthnet::LabelSet> labels;
};

/// Builds (or returns the cached) fixture for `num_patches`.
const ArchiveFixture& GetArchive(size_t num_patches, uint64_t seed = 42);

/// Fast clustered binary codes approximating a trained hashing model's
/// output distribution: one center per scene, per-item bit flips.  Used
/// by pure data-structure benches (E1, E3) where code provenance does
/// not affect the measured quantity; quality benches (E2, E4) train the
/// real MiLaN model instead.
std::vector<BinaryCode> ClusteredCodes(const ArchiveFixture& fixture,
                                       size_t bits, double flip_rate = 0.08,
                                       uint64_t seed = 7);

/// Trains a (small) MiLaN model on the fixture and returns it; cached by
/// (fixture size, bits).
milan::MilanModel* GetTrainedMilan(const ArchiveFixture& fixture, size_t bits);

/// Builds an EarthQube instance with the fixture ingested; cached by
/// (size, indexes on/off, encoding).
earthqube::EarthQube* GetEarthQube(const ArchiveFixture& fixture,
                                   bool build_indexes,
                                   earthqube::LabelEncoding encoding);

/// Unpaged requests (the whole result in one response, full panel): a
/// query-panel submission and a similarity search.
earthqube::QueryRequest PanelRequest(const earthqube::EarthQubeQuery& query);
earthqube::QueryRequest SimilarRequest(earthqube::SimilaritySpec spec);

/// Radius search through the frontier API: every hit within `radius`,
/// drained from one open (`stats`, optional, receives the walk's work).
std::vector<index::SearchResult> RadiusHits(const index::HammingIndex& idx,
                                            const BinaryCode& query,
                                            uint32_t radius,
                                            index::SearchStats* stats = nullptr);

/// k-NN through the frontier API: a frontier bounded at k, drained.
std::vector<index::SearchResult> KnnHits(const index::HammingIndex& idx,
                                         const BinaryCode& query, size_t k);

/// Batched radius search: one batched open across `pool` (every kind
/// the benches batch does its radius work at open), each frontier then
/// drained on the calling thread.
std::vector<std::vector<index::SearchResult>> RadiusHitsBatch(
    const index::HammingIndex& idx, const std::vector<BinaryCode>& queries,
    uint32_t radius, ThreadPool* pool);

/// Prints a section header for plain-table benches.
void PrintHeader(const std::string& experiment, const std::string& claim);

/// Machine-readable benchmark reporting: collects every run and writes
/// BENCH_<suite>.json into the working directory on Finalize, so CI and
/// later PRs can track the perf trajectory without scraping console
/// tables.  One row per run: name, label, iterations, per-iteration
/// real/cpu time in ns, and all user counters (including the
/// items_per_second rate set via SetItemsProcessed).
///
/// Used as the display reporter (it tees to the normal console
/// reporter) because google-benchmark refuses custom file reporters
/// without --benchmark_out.
class JsonFileReporter : public benchmark::BenchmarkReporter {
 public:
  explicit JsonFileReporter(std::string suite);

  bool ReportContext(const Context& context) override;
  void ReportRuns(const std::vector<Run>& runs) override;
  void Finalize() override;

  /// Where the report lands ("BENCH_<suite>.json").
  const std::string& path() const { return path_; }

 private:
  std::string suite_;
  std::string path_;
  std::vector<docstore::Value> rows_;  ///< one JSON object per run
  std::unique_ptr<benchmark::BenchmarkReporter> console_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body that tees results
/// into BENCH_<suite>.json next to the normal console output:
///   int main(int argc, char** argv) {
///     return agoraeo::bench::RunBenchmarksWithJson("query_cache", argc, argv);
///   }
int RunBenchmarksWithJson(const std::string& suite, int argc, char** argv);

}  // namespace agoraeo::bench

#endif  // AGORAEO_BENCH_HARNESS_H_
