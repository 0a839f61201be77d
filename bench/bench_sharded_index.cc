/// The partitioned index layer: batched CBIR and hybrid mixes through
/// EarthQube at 1/2/4/8 index shards, plus a pure index-level batched
/// scatter–gather.  On a multi-core runner the multi-shard rows show
/// the wall-clock win of fanning one fused batch out across shards (one
/// task per shard per pass); on a single-core runner the shard_size_*
/// and fanout counters still document the per-shard work split the
/// parallelism acts on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/thread_pool.h"
#include "earthqube/query_request.h"
#include "index/linear_scan.h"
#include "index/sharded_index.h"
#include "milan/milan_model.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kArchive = 10000;
constexpr size_t kBits = 64;
constexpr uint32_t kRadius = 8;
constexpr size_t kBatch = 64;

// ---------------------------------------------------------------------------
// Index level: one batched radius pass, scattered across shards
// ---------------------------------------------------------------------------

struct IndexContext {
  std::unique_ptr<index::ShardedHammingIndex> idx;
  std::vector<BinaryCode> queries;
  std::unique_ptr<ThreadPool> pool;
  size_t pinned = 0;  ///< workers PinThreads() actually pinned
};

IndexContext* GetIndexContext(size_t num_shards, bool pin) {
  static std::map<std::pair<size_t, bool>, std::unique_ptr<IndexContext>>
      cache;
  auto it = cache.find({num_shards, pin});
  if (it != cache.end()) return it->second.get();

  const ArchiveFixture& fixture = GetArchive(kArchive);
  const std::vector<BinaryCode> codes = ClusteredCodes(fixture, kBits);
  auto ctx = std::make_unique<IndexContext>();
  ctx->idx = std::make_unique<index::ShardedHammingIndex>(
      num_shards, [] { return std::make_unique<index::LinearScanIndex>(); });
  for (size_t i = 0; i < codes.size(); ++i) {
    if (!ctx->idx->Add(i, codes[i]).ok()) std::abort();
  }
  for (size_t q = 0; q < kBatch; ++q) {
    ctx->queries.push_back(codes[(q * 131) % codes.size()]);
  }
  ctx->pool = std::make_unique<ThreadPool>(0);  // hardware concurrency
  if (pin) ctx->pinned = ctx->pool->PinThreads();
  return cache.emplace(std::make_pair(num_shards, pin), std::move(ctx))
      .first->second.get();
}

void BM_ShardedBatchRadius(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  const bool pin = state.range(1) != 0;
  IndexContext* ctx = GetIndexContext(num_shards, pin);
  size_t hits = 0;
  for (auto _ : state) {
    const auto batch =
        RadiusHitsBatch(*ctx->idx, ctx->queries, kRadius, ctx->pool.get());
    for (const auto& slot : batch) hits += slot.size();
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kBatch));
  const index::ShardedIndexStats stats = ctx->idx->Stats();
  state.counters["num_shards"] = static_cast<double>(stats.num_shards);
  state.counters["fanout_tasks_per_batch"] =
      stats.batch_fanouts > 0 ? static_cast<double>(stats.fanout_tasks) /
                                    static_cast<double>(stats.batch_fanouts)
                              : 0.0;
  // Routing balance evidence for single-core runs: the largest shard's
  // share of the items (1/num_shards = perfectly balanced).
  size_t largest = 0;
  for (size_t s : stats.shard_sizes) largest = std::max(largest, s);
  state.counters["largest_shard_frac"] =
      static_cast<double>(largest) / static_cast<double>(kArchive);
  state.counters["avg_hits"] =
      state.iterations() > 0
          ? static_cast<double>(hits) /
                static_cast<double>(state.iterations() * kBatch)
          : 0.0;
  // Scaling-curve context: how many cores the host actually has, how
  // wide the pool is, and whether affinity pinning was in effect — so a
  // 1-core CI row is never mistaken for a flat scaling curve.
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["pool_threads"] =
      static_cast<double>(ctx->pool->num_threads());
  state.counters["pinned_threads"] = static_cast<double>(ctx->pinned);
}

// ---------------------------------------------------------------------------
// System level: ExecuteBatch of mixed CBIR + hybrid requests through the
// execution engine's micro-batcher, whose fused passes fan out per shard
// ---------------------------------------------------------------------------

struct SystemContext {
  std::unique_ptr<earthqube::EarthQube> system;
  std::vector<earthqube::QueryRequest> mix;
};

SystemContext* GetSystemContext(size_t num_shards) {
  static std::map<size_t, std::unique_ptr<SystemContext>> cache;
  auto it = cache.find(num_shards);
  if (it != cache.end()) return it->second.get();

  const ArchiveFixture& fixture = GetArchive(kArchive);
  auto ctx = std::make_unique<SystemContext>();
  earthqube::EarthQubeConfig config;
  // Measure execution, not replay: the response cache would hide the
  // index pass entirely after the first iteration.
  config.cache.enable_response_cache = false;
  ctx->system = std::make_unique<earthqube::EarthQube>(config);
  if (!ctx->system->IngestArchive(fixture.archive).ok()) std::abort();

  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 64;
  mconfig.hidden2 = 32;
  mconfig.hash_bits = kBits;
  mconfig.dropout = 0.0f;
  earthqube::CbirConfig cbir_config;
  cbir_config.num_shards = num_shards;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::make_unique<milan::MilanModel>(mconfig), &fixture.extractor,
      cbir_config);
  if (!cbir->AddImages(fixture.names, fixture.features).ok()) std::abort();
  ctx->system->AttachCbir(std::move(cbir));

  // The mix: distinct CBIR radius queries (they fuse into one batched
  // pass) plus pre-filter hybrids sharing one panel (they fuse into one
  // restricted pass over a shared allowlist).
  earthqube::EarthQubeQuery panel;
  panel.seasons = {Season::kSummer};
  for (size_t i = 0; i < kBatch; ++i) {
    earthqube::QueryRequest request;
    request.similarity = earthqube::SimilaritySpec::NameRadius(
        fixture.names[(i * 131) % fixture.names.size()], kRadius);
    request.projection = earthqube::Projection::kHitsOnly;
    request.page_size = 0;
    if (i % 4 == 3) {
      request.panel = panel;
      request.planner = earthqube::PlannerMode::kForcePreFilter;
    }
    ctx->mix.push_back(std::move(request));
  }
  return cache.emplace(num_shards, std::move(ctx)).first->second.get();
}

void BM_ShardedEngineMix(benchmark::State& state) {
  const size_t num_shards = static_cast<size_t>(state.range(0));
  SystemContext* ctx = GetSystemContext(num_shards);
  for (auto _ : state) {
    auto responses = ctx->system->ExecuteBatch(ctx->mix);
    if (!responses.ok()) std::abort();
    benchmark::DoNotOptimize(*responses);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * ctx->mix.size()));
  const index::ShardedHammingIndex* sharded =
      ctx->system->cbir()->sharded_index();
  state.counters["num_shards"] = static_cast<double>(num_shards);
  if (sharded != nullptr) {
    const index::ShardedIndexStats stats = sharded->Stats();
    state.counters["batch_fanouts"] = static_cast<double>(stats.batch_fanouts);
    state.counters["fanout_tasks"] = static_cast<double>(stats.fanout_tasks);
    state.counters["merge_ms"] =
        static_cast<double>(stats.merge_nanos) / 1e6;
  }
}

#define SHARD_ARGS ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)

// The shard-scaling curve, unpinned and with workers pinned one per
// core ({shards, pin}).
BENCHMARK(BM_ShardedBatchRadius)
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})->Args({8, 0})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShardedEngineMix) SHARD_ARGS;

}  // namespace
}  // namespace agoraeo::bench

int main(int argc, char** argv) {
  return agoraeo::bench::RunBenchmarksWithJson("sharded_index", argc, argv);
}
