/// Persistence benchmarks: restart time — cold re-ingest (model
/// inference + index build from raw features) vs snapshot+WAL restore
/// (decode codes from disk, no inference) at 10k and 100k codes — and
/// the read-throughput cost of a segmented index vs a monolithic one.
/// The restore rows are the paper-facing claim: a warm restart should
/// be an order of magnitude faster than re-hashing the archive.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bigearthnet/feature_extractor.h"
#include "common/random.h"
#include "earthqube/cbir_service.h"
#include "index/hamming_table.h"
#include "index/segmented_index.h"
#include "milan/milan_model.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kBits = 64;
constexpr size_t kShards = 4;
constexpr size_t kSealThreshold = 4096;
const char* kBenchRoot = "/tmp/agoraeo_bench_persistence";

/// Paper-scale hashing network (Section 3.2: 128 -> 1024 -> 512 -> K).
/// The restart comparison is only honest at this size: the cold path
/// pays full inference per archive image, the restore path pays none.
milan::MilanConfig PaperModel() {
  milan::MilanConfig config;
  config.feature_dim = bigearthnet::kFeatureDim;
  config.hash_bits = kBits;
  config.dropout = 0.0f;
  return config;
}

const bigearthnet::FeatureExtractor& Extractor() {
  static bigearthnet::FeatureExtractor extractor;
  return extractor;
}

std::unique_ptr<earthqube::CbirService> MakeService(
    const std::string& snapshot_dir) {
  earthqube::CbirConfig config;
  config.query_threads = 4;
  config.num_shards = kShards;
  config.snapshot_dir = snapshot_dir;
  config.seal_threshold = kSealThreshold;
  return std::make_unique<earthqube::CbirService>(
      std::make_unique<milan::MilanModel>(PaperModel()), &Extractor(), config);
}

/// Random features + names for n items, cached per size.
struct IngestData {
  std::vector<std::string> names;
  Tensor features;
};

const IngestData& GetIngestData(size_t n) {
  static std::map<size_t, std::unique_ptr<IngestData>> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return *it->second;
  auto data = std::make_unique<IngestData>();
  data->features = Tensor({n, bigearthnet::kFeatureDim});
  Rng rng(0xBE7C + n);
  float* raw = data->features.data();
  for (size_t i = 0; i < n * bigearthnet::kFeatureDim; ++i) {
    raw[i] = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  }
  data->names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data->names.push_back("patch_" + std::to_string(i));
  }
  return *(cache[n] = std::move(data));
}

/// Prepares (once per size) a durable state dir holding n codes: ~90%
/// checkpointed into shard snapshots, the last 10% only in the WAL, so
/// the restore row exercises both halves of the boot path.
const std::string& GetDurableDir(size_t n) {
  static std::map<size_t, std::string> prepared;
  auto it = prepared.find(n);
  if (it != prepared.end()) return it->second;
  const std::string dir = std::string(kBenchRoot) + "/state_" +
                          std::to_string(n);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const IngestData& data = GetIngestData(n);
  auto service = MakeService(dir);
  if (!service->Recover().ok()) std::abort();
  const size_t checkpointed = n - n / 10;
  {
    std::vector<std::string> head(data.names.begin(),
                                  data.names.begin() + checkpointed);
    Tensor head_features({checkpointed, bigearthnet::kFeatureDim});
    std::copy_n(data.features.data(),
                checkpointed * bigearthnet::kFeatureDim,
                head_features.data());
    if (!service->AddImages(head, head_features).ok()) std::abort();
    if (!service->Snapshot().ok()) std::abort();
  }
  {
    const size_t tail = n - checkpointed;
    std::vector<std::string> names(data.names.begin() + checkpointed,
                                   data.names.end());
    Tensor tail_features({tail, bigearthnet::kFeatureDim});
    std::copy_n(data.features.data() + checkpointed * bigearthnet::kFeatureDim,
                tail * bigearthnet::kFeatureDim, tail_features.data());
    if (!service->AddImages(names, tail_features).ok()) std::abort();
  }
  return prepared[n] = dir;
}

// ---------------------------------------------------------------------------
// Restart time: cold re-ingest vs snapshot+WAL restore
// ---------------------------------------------------------------------------

/// The restart path WITHOUT persistence: every feature goes back
/// through the hashing model before it can be indexed.
void BM_Restart_ColdReingest(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const IngestData& data = GetIngestData(n);
  for (auto _ : state) {
    auto service = MakeService("");
    if (!service->AddImages(data.names, data.features).ok()) std::abort();
    benchmark::DoNotOptimize(service->num_indexed());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.counters["codes"] = static_cast<double>(n);
}

/// The restart path WITH persistence: shard snapshots bulk-load, the
/// WAL tail replays — no model inference anywhere.
void BM_Restart_SnapshotWalRestore(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::string& dir = GetDurableDir(n);
  for (auto _ : state) {
    auto service = MakeService(dir);
    if (!service->Recover().ok()) std::abort();
    if (service->num_indexed() != n) std::abort();
    benchmark::DoNotOptimize(service->persistence_stats().restored_items);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
  state.counters["codes"] = static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// Read throughput: sealed segments vs a monolithic index
// ---------------------------------------------------------------------------

struct ReadContext {
  std::unique_ptr<index::HammingIndex> index;  ///< monolithic or segmented
  std::vector<BinaryCode> queries;
};

BinaryCode RandomCode(size_t bits, Rng* rng) {
  BinaryCode code(bits);
  for (size_t i = 0; i < bits; ++i) code.SetBit(i, rng->Bernoulli(0.5));
  return code;
}

/// seal_threshold == 0 -> one flat HammingHashTable; otherwise a
/// segmented wrapper sealing every `seal_threshold` items.
ReadContext* GetReadContext(size_t n, size_t seal_threshold) {
  static std::map<std::pair<size_t, size_t>, std::unique_ptr<ReadContext>>
      cache;
  auto key = std::make_pair(n, seal_threshold);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second.get();
  auto context = std::make_unique<ReadContext>();
  if (seal_threshold == 0) {
    context->index = std::make_unique<index::HammingHashTable>();
  } else {
    context->index = std::make_unique<index::SegmentedHammingIndex>(
        [] {
          return std::unique_ptr<index::HammingIndex>(
              std::make_unique<index::HammingHashTable>());
        },
        seal_threshold);
  }
  Rng rng(0x5EA1 + seal_threshold);
  for (size_t id = 0; id < n; ++id) {
    if (!context->index->Add(id, RandomCode(kBits, &rng)).ok()) std::abort();
  }
  for (size_t q = 0; q < 256; ++q) {
    context->queries.push_back(RandomCode(kBits, &rng));
  }
  return (cache[key] = std::move(context)).get();
}

void BM_Read_MonolithicVsSealed(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t seal_threshold = static_cast<size_t>(state.range(1));
  ReadContext* context = GetReadContext(n, seal_threshold);
  size_t cursor = 0, hits = 0;
  for (auto _ : state) {
    const BinaryCode& q = context->queries[cursor++ % context->queries.size()];
    hits += KnnHits(*context->index, q, 10).size();
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["codes"] = static_cast<double>(n);
  state.counters["segments"] =
      seal_threshold == 0
          ? 1.0
          : static_cast<double>((n + seal_threshold - 1) / seal_threshold);
}

BENCHMARK(BM_Restart_ColdReingest)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Restart_SnapshotWalRestore)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Read_MonolithicVsSealed)
    ->Args({100000, 0})      // monolithic baseline
    ->Args({100000, 25000})  // 4 segments
    ->Args({100000, 6250})   // 16 segments
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace agoraeo::bench

int main(int argc, char** argv) {
  return agoraeo::bench::RunBenchmarksWithJson("persistence", argc, argv);
}
