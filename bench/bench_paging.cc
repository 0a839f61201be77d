/// Ranked direct access: what a resumable cursor actually buys.
///
/// Two layers, same question — what does page N of a ranked result set
/// cost?
///
///   Index layer (100k codes in 4 sealed shards, full-ranked walk):
///     BM_LazyFrontierPage   open a merged shard frontier, pull only the
///                           hits page N needs ((N+1) * 50), stop — each
///                           shard sorts only the distance buckets the
///                           pull actually reaches.
///     BM_EagerOverfetchPage the stateless alternative: a frontier
///                           bounded at the page end, re-opened per
///                           page — every shard keeps its own top-
///                           (N+1)*50 (4x overfetch), the merge pulls
///                           (N+1)*50 of them, page N is sliced out.
///
///   System layer (EarthQube over the same 100k archive):
///     BM_CursorResumePage   page N with a live ranked-access handle —
///                           the cursor-resume path: slice the pinned
///                           survivors, pull at most one incremental
///                           chunk.
///     BM_ColdRerunPage      page N with the handle table cleared every
///                           iteration — what every page costs a
///                           stateless server that re-executes the
///                           ranking from scratch.
///     BM_WalkResume/Rerun   the end-to-end deep-page walk (pages
///                           0..P-1), cursors vs re-execution; the
///                           rerun flavour is quadratic in P.
///
/// The resume-vs-rerun ratio at depth >= 10 is the headline number of
/// the ranked-paging work: BENCH_paging.json carries both rows so the
/// speedup is machine-checkable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "earthqube/query_request.h"
#include "index/frontier.h"
#include "index/linear_scan.h"
#include "index/sharded_index.h"
#include "milan/milan_model.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kArchive = 100000;
constexpr size_t kBits = 64;
constexpr size_t kPage = 50;      ///< k per page (the paper's default grid)
constexpr uint32_t kRadius = 16;  ///< deep ranking: thousands of hits

// ---------------------------------------------------------------------------
// Index layer: lazy frontier pull vs bounded overfetch
// ---------------------------------------------------------------------------

struct IndexContext {
  std::unique_ptr<index::ShardedHammingIndex> idx;
  BinaryCode query;
  size_t total_hits = 0;  ///< full ranking size, for the counters
};

IndexContext* GetIndexContext() {
  static std::unique_ptr<IndexContext> cached;
  if (cached != nullptr) return cached.get();

  const ArchiveFixture& fixture = GetArchive(kArchive);
  const std::vector<BinaryCode> codes = ClusteredCodes(fixture, kBits);
  auto ctx = std::make_unique<IndexContext>();
  // Seal after loading: lazy frontiers stream from sealed segments; a
  // never-sealed mutable segment would be snapshotted at open (it has
  // no stable state to stream from).
  ctx->idx = std::make_unique<index::ShardedHammingIndex>(
      4, [] { return std::make_unique<index::LinearScanIndex>(); },
      /*seal_threshold=*/0);
  for (size_t i = 0; i < codes.size(); ++i) {
    if (!ctx->idx->Add(i, codes[i]).ok()) std::abort();
  }
  if (!ctx->idx->SealAll().ok()) std::abort();
  ctx->query = codes[123];
  ctx->total_hits = ctx->idx->size();
  cached = std::move(ctx);
  return cached.get();
}

void BM_LazyFrontierPage(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  IndexContext* ctx = GetIndexContext();
  const size_t need = (depth + 1) * kPage;
  std::vector<index::SearchResult> hits;
  for (auto _ : state) {
    hits.clear();
    auto frontier = ctx->idx->OpenFrontier(ctx->query, {});  // full rank
    while (hits.size() < need) {
      if (frontier->Next(need - hits.size(), &hits) == 0) break;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["hits_pulled"] = static_cast<double>(hits.size());
  state.counters["ranking_size"] = static_cast<double>(ctx->total_hits);
}

void BM_EagerOverfetchPage(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  IndexContext* ctx = GetIndexContext();
  const size_t need = (depth + 1) * kPage;
  size_t window = 0;
  for (auto _ : state) {
    const auto all = KnnHits(*ctx->idx, ctx->query, need);
    const size_t begin = std::min(all.size(), depth * kPage);
    const size_t end = std::min(all.size(), begin + kPage);
    window = end - begin;
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["window"] = static_cast<double>(window);
  state.counters["ranking_size"] = static_cast<double>(ctx->total_hits);
}

// ---------------------------------------------------------------------------
// System layer: cursor resume vs stateless re-execution
// ---------------------------------------------------------------------------

struct SystemContext {
  std::unique_ptr<earthqube::EarthQube> system;
  earthqube::QueryRequest base;
};

SystemContext* GetSystemContext() {
  static std::unique_ptr<SystemContext> cached;
  if (cached != nullptr) return cached.get();

  const ArchiveFixture& fixture = GetArchive(kArchive);
  auto ctx = std::make_unique<SystemContext>();
  earthqube::EarthQubeConfig config;
  // Measure the ranked-access path, not response replay.
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
  cbir_config.num_shards = 4;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::make_unique<milan::MilanModel>(mconfig), &fixture.extractor,
      cbir_config);
  if (!cbir->AddImages(fixture.names, fixture.features).ok()) std::abort();
  ctx->system->AttachCbir(std::move(cbir));

  ctx->base.similarity =
      earthqube::SimilaritySpec::NameRadius(fixture.names[123], kRadius);
  ctx->base.projection = earthqube::Projection::kHitsOnly;
  ctx->base.page_size = kPage;
  cached = std::move(ctx);
  return cached.get();
}

/// Executes one page, aborting on error (bench setup bugs, not data).
size_t ExecutePage(SystemContext* ctx, size_t page) {
  earthqube::QueryRequest request = ctx->base;
  request.page = page;
  auto response = ctx->system->Execute(request);
  if (!response.ok()) std::abort();
  benchmark::DoNotOptimize(response->hits);
  return response->hits.size();
}

void BM_CursorResumePage(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  SystemContext* ctx = GetSystemContext();
  // Warm the handle the way a paging client does: walk to the page.
  ctx->system->ranked_access().Clear();
  for (size_t page = 0; page < depth; ++page) ExecutePage(ctx, page);
  size_t window = 0;
  for (auto _ : state) window = ExecutePage(ctx, depth);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["window"] = static_cast<double>(window);
  const auto stats = ctx->system->ranked_access().Stats();
  state.counters["resume_hits"] = static_cast<double>(stats.hits);
}

void BM_ColdRerunPage(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  SystemContext* ctx = GetSystemContext();
  size_t window = 0;
  for (auto _ : state) {
    // A stateless server holds no handle: every page re-executes the
    // ranking from hit 0 up through the requested window.
    ctx->system->ranked_access().Clear();
    window = ExecutePage(ctx, depth);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["depth"] = static_cast<double>(depth);
  state.counters["window"] = static_cast<double>(window);
}

void BM_WalkResume(benchmark::State& state) {
  const size_t pages = static_cast<size_t>(state.range(0));
  SystemContext* ctx = GetSystemContext();
  size_t rows = 0;
  for (auto _ : state) {
    ctx->system->ranked_access().Clear();  // each walk starts cold
    rows = 0;
    for (size_t page = 0; page < pages; ++page) rows += ExecutePage(ctx, page);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * pages));
  state.counters["pages"] = static_cast<double>(pages);
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_WalkRerun(benchmark::State& state) {
  const size_t pages = static_cast<size_t>(state.range(0));
  SystemContext* ctx = GetSystemContext();
  size_t rows = 0;
  for (auto _ : state) {
    rows = 0;
    for (size_t page = 0; page < pages; ++page) {
      ctx->system->ranked_access().Clear();
      rows += ExecutePage(ctx, page);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * pages));
  state.counters["pages"] = static_cast<double>(pages);
  state.counters["rows"] = static_cast<double>(rows);
}

#define DEPTH_ARGS ->Arg(1)->Arg(10)->Arg(25)->Unit(benchmark::kMicrosecond)

BENCHMARK(BM_LazyFrontierPage) DEPTH_ARGS;
BENCHMARK(BM_EagerOverfetchPage) DEPTH_ARGS;
// Execute runs on the execution engine's workers while the calling
// thread waits, so these rows are timed by the wall clock: the caller's
// CPU time would miss the work.
BENCHMARK(BM_CursorResumePage) DEPTH_ARGS->UseRealTime();
BENCHMARK(BM_ColdRerunPage) DEPTH_ARGS->UseRealTime();
BENCHMARK(BM_WalkResume)->Arg(12)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_WalkRerun)->Arg(12)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace agoraeo::bench

int main(int argc, char** argv) {
  return agoraeo::bench::RunBenchmarksWithJson("paging", argc, argv);
}
