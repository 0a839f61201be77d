#include "bench/harness.h"

#include <cstdio>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "json/json.h"

namespace agoraeo::bench {

const ArchiveFixture& GetArchive(size_t num_patches, uint64_t seed) {
  // Benchmarks report through google-benchmark counters; INFO logging
  // (archive generation, ingest progress) would only pollute the tables.
  static const bool quiet = [] {
    SetLogLevel(LogLevel::kWarning);
    return true;
  }();
  (void)quiet;
  static auto* cache = new std::map<std::pair<size_t, uint64_t>,
                                    std::unique_ptr<ArchiveFixture>>();
  const auto key = std::make_pair(num_patches, seed);
  auto it = cache->find(key);
  if (it != cache->end()) return *it->second;

  auto fixture = std::make_unique<ArchiveFixture>();
  fixture->config.num_patches = num_patches;
  fixture->config.seed = seed;
  fixture->config.patches_per_scene = 40;
  fixture->generator =
      std::make_unique<bigearthnet::ArchiveGenerator>(fixture->config);
  auto archive = fixture->generator->Generate();
  if (!archive.ok()) {
    std::fprintf(stderr, "archive generation failed: %s\n",
                 archive.status().ToString().c_str());
    std::abort();
  }
  fixture->archive = std::move(archive).value();
  fixture->features =
      fixture->extractor.ExtractArchive(fixture->archive, *fixture->generator,
                                        /*num_threads=*/8);
  fixture->names.reserve(fixture->archive.patches.size());
  fixture->labels.reserve(fixture->archive.patches.size());
  for (const auto& p : fixture->archive.patches) {
    fixture->names.push_back(p.name);
    fixture->labels.push_back(p.labels);
  }
  auto [inserted, _] = cache->emplace(key, std::move(fixture));
  return *inserted->second;
}

std::vector<BinaryCode> ClusteredCodes(const ArchiveFixture& fixture,
                                       size_t bits, double flip_rate,
                                       uint64_t seed) {
  Rng rng(seed, /*stream=*/51);
  // One random center code per scene.
  std::vector<BinaryCode> centers;
  centers.reserve(fixture.archive.scene_centers.size());
  for (size_t s = 0; s < fixture.archive.scene_centers.size(); ++s) {
    BinaryCode center(bits);
    for (size_t b = 0; b < bits; ++b) center.SetBit(b, rng.Bernoulli(0.5));
    centers.push_back(std::move(center));
  }
  std::vector<BinaryCode> codes;
  codes.reserve(fixture.archive.patches.size());
  for (const auto& patch : fixture.archive.patches) {
    BinaryCode code = centers[static_cast<size_t>(patch.scene_id)];
    for (size_t b = 0; b < bits; ++b) {
      if (rng.Bernoulli(flip_rate)) code.FlipBit(b);
    }
    codes.push_back(std::move(code));
  }
  return codes;
}

milan::MilanModel* GetTrainedMilan(const ArchiveFixture& fixture,
                                   size_t bits) {
  static auto* cache =
      new std::map<std::pair<size_t, size_t>,
                   std::unique_ptr<milan::MilanModel>>();
  const auto key =
      std::make_pair(fixture.archive.patches.size(), bits);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second.get();

  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 256;
  mconfig.hidden2 = 128;
  mconfig.hash_bits = bits;
  mconfig.dropout = 0.0f;
  auto model = std::make_unique<milan::MilanModel>(mconfig);

  milan::TripletSampler sampler(fixture.labels);
  milan::TrainConfig tconfig;
  tconfig.epochs = 16;
  tconfig.batches_per_epoch = 40;
  tconfig.batch_size = 32;
  tconfig.learning_rate = 1e-3f;
  milan::Trainer trainer(model.get(), &fixture.features, &sampler, tconfig);
  auto result = trainer.Train();
  if (!result.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  auto [inserted, _] = cache->emplace(key, std::move(model));
  return inserted->second.get();
}

earthqube::QueryRequest PanelRequest(const earthqube::EarthQubeQuery& query) {
  earthqube::QueryRequest request;
  request.panel = query;
  request.page_size = 0;
  return request;
}

earthqube::QueryRequest SimilarRequest(earthqube::SimilaritySpec spec) {
  earthqube::QueryRequest request;
  request.similarity = std::move(spec);
  request.page_size = 0;
  return request;
}

earthqube::EarthQube* GetEarthQube(const ArchiveFixture& fixture,
                                   bool build_indexes,
                                   earthqube::LabelEncoding encoding) {
  static auto* cache =
      new std::map<std::tuple<size_t, bool, int>,
                   std::unique_ptr<earthqube::EarthQube>>();
  const auto key = std::make_tuple(fixture.archive.patches.size(),
                                   build_indexes, static_cast<int>(encoding));
  auto it = cache->find(key);
  if (it != cache->end()) return it->second.get();

  earthqube::EarthQubeConfig config;
  config.build_indexes = build_indexes;
  config.label_encoding = encoding;
  auto system = std::make_unique<earthqube::EarthQube>(config);
  auto status = system->IngestArchive(fixture.archive);
  if (!status.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
    std::abort();
  }
  auto [inserted, _] = cache->emplace(key, std::move(system));
  return inserted->second.get();
}

std::vector<index::SearchResult> RadiusHits(const index::HammingIndex& idx,
                                            const BinaryCode& query,
                                            uint32_t radius,
                                            index::SearchStats* stats) {
  index::FrontierOptions options;
  options.radius = radius;
  options.stats = stats;
  return index::Drain(*idx.OpenFrontier(query, options));
}

std::vector<index::SearchResult> KnnHits(const index::HammingIndex& idx,
                                         const BinaryCode& query, size_t k) {
  if (k == 0) return {};
  index::FrontierOptions options;
  options.limit = k;
  return index::Drain(*idx.OpenFrontier(query, options), k);
}

std::vector<std::vector<index::SearchResult>> RadiusHitsBatch(
    const index::HammingIndex& idx, const std::vector<BinaryCode>& queries,
    uint32_t radius, ThreadPool* pool) {
  index::FrontierOptions options;
  options.radius = radius;
  std::vector<std::unique_ptr<index::HitFrontier>> frontiers =
      idx.OpenFrontiers(queries, options, pool);
  std::vector<std::vector<index::SearchResult>> out;
  out.reserve(frontiers.size());
  for (auto& frontier : frontiers) out.push_back(index::Drain(*frontier));
  return out;
}

void PrintHeader(const std::string& experiment, const std::string& claim) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("============================================================\n");
}

JsonFileReporter::JsonFileReporter(std::string suite)
    : suite_(std::move(suite)),
      path_("BENCH_" + suite_ + ".json"),
      console_(benchmark::CreateDefaultDisplayReporter()) {}

bool JsonFileReporter::ReportContext(const Context& context) {
  return console_->ReportContext(context);
}

void JsonFileReporter::ReportRuns(const std::vector<Run>& runs) {
  console_->ReportRuns(runs);
  for (const Run& run : runs) {
    if (run.error_occurred) continue;
    const double iters =
        run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
    docstore::Document row;
    row.Set("name", docstore::Value(run.benchmark_name()));
    row.Set("label", docstore::Value(run.report_label));
    row.Set("iterations",
            docstore::Value(static_cast<int64_t>(run.iterations)));
    row.Set("real_time_per_iter_ns",
            docstore::Value(run.real_accumulated_time / iters * 1e9));
    row.Set("cpu_time_per_iter_ns",
            docstore::Value(run.cpu_accumulated_time / iters * 1e9));
    docstore::Document counters;
    for (const auto& [name, counter] : run.counters) {
      counters.Set(name, docstore::Value(static_cast<double>(counter)));
    }
    row.Set("counters", docstore::Value(std::move(counters)));
    rows_.emplace_back(std::move(row));
  }
}

void JsonFileReporter::Finalize() {
  console_->Finalize();
  std::FILE* out = std::fopen(path_.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "JsonFileReporter: cannot write %s\n", path_.c_str());
    return;
  }
  docstore::Document report;
  report.Set("suite", docstore::Value(suite_));
  report.Set("benchmarks", docstore::Value(std::move(rows_)));
  const std::string text = json::Serialize(report);
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("wrote %s\n", path_.c_str());
}

int RunBenchmarksWithJson(const std::string& suite, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonFileReporter json(suite);
  benchmark::RunSpecifiedBenchmarks(&json);
  benchmark::Shutdown();
  return 0;
}

}  // namespace agoraeo::bench
