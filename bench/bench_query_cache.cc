/// Query-cache throughput on a skewed request mix: a Zipfian(1.0)
/// stream over a pool of distinct CBIR-only and hybrid requests —
/// the interactive EarthQube pattern where users re-run the same hot
/// panel filters and archive-image queries — executed against three
/// configurations: caches disabled, caches enabled but always cold
/// (the epoch is bumped every iteration, so every lookup is a stale
/// miss: this bounds the cache's overhead), and caches warm (steady
/// state after the first pass over the pool).  The warm/disabled ratio
/// is the headline: the response cache replaces a Hamming search plus
/// metadata join with one sharded LRU probe and a response copy.
///
/// A panel-preset pair sets a panel's first execution against a repeat
/// of it, which the allowlist cache's match set serves.
///
/// Also verifies, outside the timed region, that cached responses are
/// byte-equivalent to uncached ones (identical hits, plan, paging).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "earthqube/query_request.h"
#include "milan/milan_model.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kNumPatches = 10000;
constexpr size_t kRequestPool = 256;
constexpr double kZipfSkew = 1.0;

/// Samples ranks in [0, n) with p(r) ∝ 1/(r+1)^skew via inverse-CDF
/// binary search over the precomputed cumulative mass.
class ZipfianSampler {
 public:
  ZipfianSampler(size_t n, double skew, uint64_t seed)
      : rng_(seed, /*stream=*/23), cdf_(n) {
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

/// An EarthQube (cache on or off) plus the shared distinct-request
/// pool; cached per configuration.
struct CacheBenchContext {
  std::unique_ptr<earthqube::EarthQube> system;
  std::vector<earthqube::QueryRequest> pool;
};

std::vector<earthqube::QueryRequest> BuildRequestPool(
    const ArchiveFixture& fixture) {
  // Half CBIR-only (radius and k-NN alternating), half hybrid with a
  // recurring season filter — the shapes the response and allowlist
  // caches serve.
  std::vector<earthqube::QueryRequest> pool;
  pool.reserve(kRequestPool);
  for (size_t i = 0; i < kRequestPool; ++i) {
    const std::string& name =
        fixture.names[(i * 131) % fixture.names.size()];
    earthqube::QueryRequest request;
    request.projection = earthqube::Projection::kHitsOnly;
    request.page_size = 0;
    if (i % 2 == 0) {
      request.similarity =
          (i % 4 == 0)
              ? earthqube::SimilaritySpec::NameRadius(name, 8)
              : earthqube::SimilaritySpec::NameKnn(name, 10);
    } else {
      earthqube::EarthQubeQuery panel;
      panel.seasons = {static_cast<Season>(i % 4)};  // kSpring..kAutumn
      request.panel = panel;
      request.similarity = earthqube::SimilaritySpec::NameKnn(name, 10);
      // Every other hybrid pins pre-filter so the allowlist cache (the
      // planner-level layer) is part of the measured mix, not only the
      // response cache.
      if (i % 4 == 3) request.planner = earthqube::PlannerMode::kForcePreFilter;
    }
    pool.push_back(std::move(request));
  }
  return pool;
}

CacheBenchContext* GetContext(bool caches_enabled) {
  static std::map<bool, std::unique_ptr<CacheBenchContext>> cache;
  auto it = cache.find(caches_enabled);
  if (it != cache.end()) return it->second.get();

  const ArchiveFixture& fixture = GetArchive(kNumPatches);
  auto ctx = std::make_unique<CacheBenchContext>();

  earthqube::EarthQubeConfig config;
  config.cache.enable_response_cache = caches_enabled;
  config.cache.enable_allowlist_cache = caches_enabled;
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
  return cache.emplace(caches_enabled, std::move(ctx)).first->second.get();
}

enum class Mode { kDisabled, kCold, kWarm };

void RunZipfianMix(benchmark::State& state, Mode mode) {
  CacheBenchContext* ctx = GetContext(mode != Mode::kDisabled);
  earthqube::EarthQube& system = *ctx->system;

  if (mode == Mode::kWarm) {
    // One pass over the pool fills both caches.
    for (const auto& request : ctx->pool) {
      if (!system.Execute(request).ok()) std::abort();
    }
  }

  ZipfianSampler zipf(ctx->pool.size(), kZipfSkew, /*seed=*/99);
  const auto before = system.query_cache().ResponseStats();
  size_t hits = 0;
  for (auto _ : state) {
    if (mode == Mode::kCold) system.query_cache().Invalidate();
    const auto response = system.Execute(ctx->pool[zipf.Next()]);
    if (!response.ok()) std::abort();
    hits += response->hits.size();
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  // Hit rate over this run only (the enabled-cache system is shared
  // between the cold and warm benchmarks).
  const auto after = system.query_cache().ResponseStats();
  const uint64_t lookups =
      (after.hits + after.misses) - (before.hits + before.misses);
  state.counters["cache_hit_rate"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(after.hits - before.hits) /
                         static_cast<double>(lookups);
  state.counters["cache_entries"] = static_cast<double>(after.entries);
}

void BM_ZipfianCacheDisabled(benchmark::State& state) {
  RunZipfianMix(state, Mode::kDisabled);
}
void BM_ZipfianCacheCold(benchmark::State& state) {
  RunZipfianMix(state, Mode::kCold);
}
void BM_ZipfianCacheWarm(benchmark::State& state) {
  RunZipfianMix(state, Mode::kWarm);
}

// Execute runs on the execution engine's workers while the calling
// thread waits, so every row is timed by the wall clock: the caller's
// CPU time would miss the work.
BENCHMARK(BM_ZipfianCacheDisabled)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_ZipfianCacheCold)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_ZipfianCacheWarm)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// A query-panel preset (a label filter and a season, full rows and
/// label statistics), one page.  The first execution runs the filter
/// pass and counts labels over every match; a repeat reads the cached
/// match set and builds one page of rows.
void RunPanelPreset(benchmark::State& state, bool repeat) {
  earthqube::EarthQube& system = *GetContext(true)->system;
  earthqube::EarthQubeQuery panel;
  panel.label_filter =
      earthqube::LabelFilter::Some(bigearthnet::LabelSet({2, 39}));
  panel.seasons = {Season::kSummer, Season::kWinter};
  earthqube::QueryRequest request;
  request.panel = panel;
  request.page_size = earthqube::kPageSize;
  const auto warm = system.Execute(request);
  if (!warm.ok()) std::abort();
  for (auto _ : state) {
    if (!repeat) system.query_cache().Invalidate();
    const auto response = system.Execute(request);
    if (!response.ok()) std::abort();
    benchmark::DoNotOptimize(response->panel.total());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["matches"] = static_cast<double>(warm->panel.total());
}

void BM_PanelPresetFirst(benchmark::State& state) {
  RunPanelPreset(state, /*repeat=*/false);
}
void BM_PanelPresetRepeat(benchmark::State& state) {
  RunPanelPreset(state, /*repeat=*/true);
}

// Wall-clock timed, as the Zipfian rows above.
BENCHMARK(BM_PanelPresetFirst)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_PanelPresetRepeat)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Equivalence audit (not timed): every pool request must produce the
/// same caller-visible response cached and uncached.
void VerifyCachedEqualsUncached() {
  CacheBenchContext* cached = GetContext(true);
  CacheBenchContext* uncached = GetContext(false);
  for (size_t i = 0; i < cached->pool.size(); ++i) {
    const auto warm1 = cached->system->Execute(cached->pool[i]);
    const auto warm2 = cached->system->Execute(cached->pool[i]);
    const auto raw = uncached->system->Execute(uncached->pool[i]);
    if (!warm1.ok() || !warm2.ok() || !raw.ok()) std::abort();
    const auto same = [](const earthqube::QueryResponse& a,
                         const earthqube::QueryResponse& b) {
      if (a.hits.size() != b.hits.size() || a.cursor != b.cursor ||
          a.plan.description != b.plan.description) {
        return false;
      }
      for (size_t j = 0; j < a.hits.size(); ++j) {
        if (a.hits[j].patch_name != b.hits[j].patch_name ||
            a.hits[j].hamming_distance != b.hits[j].hamming_distance) {
          return false;
        }
      }
      return true;
    };
    if (!same(*warm2, *raw) || !same(*warm1, *warm2)) {
      std::fprintf(stderr,
                   "cached/uncached response mismatch for pool request %zu\n",
                   i);
      std::abort();
    }
  }
  std::printf("equivalence audit: %zu pool requests byte-equivalent "
              "cached vs uncached\n",
              cached->pool.size());
}

}  // namespace
}  // namespace agoraeo::bench

int main(int argc, char** argv) {
  const int rc =
      agoraeo::bench::RunBenchmarksWithJson("query_cache", argc, argv);
  if (rc == 0) agoraeo::bench::VerifyCachedEqualsUncached();
  return rc;
}
