/// Staged-execution-engine throughput under closed-loop concurrency:
/// N client threads (8/32/128) each drive a Zipfian(1.0) stream over a
/// pool of distinct CBIR and pre-filter-hybrid requests against one
/// EarthQube, with the response cache DISABLED so every request is a
/// miss — the configuration where the engine itself (not the cache)
/// has to win.  Three engine configurations are compared:
///
///   plain engine        — every request its own flight (no coalescing,
///                         no micro-batching)
///   coalesce only       — singleflight on identical in-flight misses
///   coalesce + batch    — plus micro-batched index passes for
///                         distinct compatible misses
///
/// The headline is coalesce+batch vs the plain engine at 32 clients.
/// An untimed audit verifies coalesced and micro-batched responses are
/// byte-identical to the plain engine's across the whole pool.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "earthqube/exec/execution_engine.h"
#include "earthqube/query_request.h"
#include "milan/milan_model.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kNumPatches = 10000;
constexpr size_t kRequestPool = 128;
constexpr double kZipfSkew = 1.0;
constexpr size_t kOpsPerClient = 8;

/// Same inverse-CDF Zipfian sampler as bench_query_cache.
class ZipfianSampler {
 public:
  ZipfianSampler(size_t n, double skew, uint64_t seed)
      : rng_(seed, /*stream=*/31), cdf_(n) {
    double mass = 0.0;
    for (size_t r = 0; r < n; ++r) {
      mass += 1.0 / std::pow(static_cast<double>(r + 1), skew);
      cdf_[r] = mass;
    }
    for (double& c : cdf_) c /= mass;
  }

  size_t Next() {
    const double u = rng_.UniformDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

enum class Mode { kPlainEngine, kCoalesceOnly, kCoalescePlusBatch };

struct EngineBenchContext {
  std::unique_ptr<earthqube::EarthQube> system;
  std::vector<earthqube::QueryRequest> pool;
};

std::vector<earthqube::QueryRequest> BuildRequestPool(
    const ArchiveFixture& fixture) {
  // Half radius CBIR (one shared batch class), a quarter k-NN CBIR, a
  // quarter pre-filter hybrids over a recurring season filter — the
  // interactive shapes the coalescer and micro-batcher serve.
  std::vector<earthqube::QueryRequest> pool;
  pool.reserve(kRequestPool);
  for (size_t i = 0; i < kRequestPool; ++i) {
    const std::string& name = fixture.names[(i * 173) % fixture.names.size()];
    earthqube::QueryRequest request;
    request.projection = earthqube::Projection::kHitsOnly;
    request.page_size = 0;
    if (i % 4 <= 1) {
      // An interactive-style result cap: the search still pays the full
      // index pass, but waiters materialise a small response.
      request.similarity =
          earthqube::SimilaritySpec::NameRadius(name, 8, /*limit=*/50);
    } else if (i % 4 == 2) {
      request.similarity = earthqube::SimilaritySpec::NameKnn(name, 10);
    } else {
      earthqube::EarthQubeQuery panel;
      panel.seasons = {static_cast<Season>(i % 4)};
      request.panel = panel;
      request.similarity = earthqube::SimilaritySpec::NameKnn(name, 10);
      request.planner = earthqube::PlannerMode::kForcePreFilter;
    }
    pool.push_back(std::move(request));
  }
  return pool;
}

EngineBenchContext* GetContext(Mode mode) {
  static std::map<Mode, std::unique_ptr<EngineBenchContext>> cache;
  auto it = cache.find(mode);
  if (it != cache.end()) return it->second.get();

  const ArchiveFixture& fixture = GetArchive(kNumPatches);
  auto ctx = std::make_unique<EngineBenchContext>();

  earthqube::EarthQubeConfig config;
  // Cold-cache configuration: the response cache would otherwise
  // absorb the Zipfian head and measure the cache, not the engine.
  config.cache.enable_response_cache = false;
  config.cache.enable_negative_cache = false;
  config.exec.coalesce = mode != Mode::kPlainEngine;
  config.exec.micro_batch = mode == Mode::kCoalescePlusBatch;
  ctx->system = std::make_unique<earthqube::EarthQube>(config);
  if (!ctx->system->IngestArchive(fixture.archive).ok()) std::abort();

  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 64;
  mconfig.hidden2 = 32;
  mconfig.hash_bits = 64;
  mconfig.dropout = 0.0f;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::make_unique<milan::MilanModel>(mconfig), &fixture.extractor);
  if (!cbir->AddImages(fixture.names, fixture.features).ok()) std::abort();
  ctx->system->AttachCbir(std::move(cbir));

  ctx->pool = BuildRequestPool(fixture);
  return cache.emplace(mode, std::move(ctx)).first->second.get();
}

void RunClosedLoop(benchmark::State& state, Mode mode) {
  EngineBenchContext* ctx = GetContext(mode);
  earthqube::EarthQube& system = *ctx->system;
  const size_t clients = static_cast<size_t>(state.range(0));

  const earthqube::ExecStats before = system.exec_engine().Stats();
  uint64_t round = 0;
  for (auto _ : state) {
    ++round;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ZipfianSampler zipf(ctx->pool.size(), kZipfSkew,
                            /*seed=*/round * 1000 + c);
        for (size_t op = 0; op < kOpsPerClient; ++op) {
          const auto response = system.Execute(ctx->pool[zipf.Next()]);
          if (!response.ok()) std::abort();
          benchmark::DoNotOptimize(response->hits.size());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * clients * kOpsPerClient));
  const earthqube::ExecStats after = system.exec_engine().Stats();
  state.counters["coalesced"] =
      static_cast<double>(after.coalesced - before.coalesced);
  state.counters["batches"] =
      static_cast<double>(after.batches - before.batches);
  state.counters["batched_flights"] =
      static_cast<double>(after.batched_flights - before.batched_flights);
  state.counters["flights"] =
      static_cast<double>(after.flights - before.flights);
}

void BM_ClosedLoopPlainEngine(benchmark::State& state) {
  RunClosedLoop(state, Mode::kPlainEngine);
}
void BM_ClosedLoopCoalesceOnly(benchmark::State& state) {
  RunClosedLoop(state, Mode::kCoalesceOnly);
}
void BM_ClosedLoopCoalescePlusBatch(benchmark::State& state) {
  RunClosedLoop(state, Mode::kCoalescePlusBatch);
}

BENCHMARK(BM_ClosedLoopPlainEngine)
    ->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ClosedLoopCoalesceOnly)
    ->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ClosedLoopCoalescePlusBatch)
    ->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Parity audit (not timed): every pool request must produce the same
/// caller-visible response through the coalescing, micro-batching
/// engine and through the plain one.
void VerifySharedMatchesPlain() {
  EngineBenchContext* plain = GetContext(Mode::kPlainEngine);
  EngineBenchContext* batch = GetContext(Mode::kCoalescePlusBatch);
  for (size_t i = 0; i < plain->pool.size(); ++i) {
    const auto plain_response = plain->system->Execute(plain->pool[i]);
    const auto shared_response = batch->system->Execute(batch->pool[i]);
    if (!plain_response.ok() || !shared_response.ok()) std::abort();
    const auto& a = *plain_response;
    const auto& b = *shared_response;
    bool same = a.hits.size() == b.hits.size() && a.cursor == b.cursor &&
                a.plan.description == b.plan.description &&
                a.query_stats.plan == b.query_stats.plan;
    for (size_t j = 0; same && j < a.hits.size(); ++j) {
      same = a.hits[j].patch_name == b.hits[j].patch_name &&
             a.hits[j].hamming_distance == b.hits[j].hamming_distance;
    }
    if (!same) {
      std::fprintf(stderr,
                   "shared/plain response mismatch for pool request %zu\n",
                   i);
      std::abort();
    }
  }
  std::printf("parity audit: %zu pool requests byte-identical through the "
              "coalescing, micro-batching engine vs the plain engine\n",
              plain->pool.size());
}

}  // namespace
}  // namespace agoraeo::bench

int main(int argc, char** argv) {
  const int rc =
      agoraeo::bench::RunBenchmarksWithJson("exec_engine", argc, argv);
  if (rc == 0) agoraeo::bench::VerifySharedMatchesPlain();
  return rc;
}
