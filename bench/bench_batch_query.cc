/// Experiment E1b — batched, thread-parallel CBIR queries.
///
/// The ROADMAP's first scaling increment: instead of answering queries
/// one at a time on one thread, the retrieval stack accepts query
/// batches, shards them across a ThreadPool, and (for the linear scan)
/// blocks over the code array so a cache-resident block of codes serves
/// every query of a shard.  This bench reports single-query baseline
/// throughput against batched throughput at 1/4/8 pool threads for the
/// linear-scan and hash-table backends at 10k codes, plus the
/// end-to-end CbirService path (HashFeatures + OpenStreams: one MiLaN
/// forward pass and one batched open per batch instead of per query).
///
/// The BM_Served* rows measure the shape the service answers: 170k
/// clustered 64-bit codes (one centre per 48-image scene, ~8% of bits
/// flipped per image), k-NN with k = 20 and radius 6 capped at 50 hits,
/// one query per iteration, for the linear scan, multi-index hashing
/// over 4 substrings and the single hash table.  They are the
/// measurement behind CbirService serving the linear scan only.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <optional>

#include "bench/harness.h"
#include "common/thread_pool.h"
#include "index/hamming_table.h"
#include "index/linear_scan.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kBits = 128;
constexpr uint32_t kRadius = 8;
constexpr size_t kArchive = 10000;
constexpr size_t kBatch = 64;
/// Hits pulled per stream Next() call when draining CBIR streams.
constexpr size_t kDrainChunk = 64;

/// The served shape (see the header).
constexpr size_t kServedItems = 170000;
constexpr size_t kServedBits = 64;
constexpr size_t kServedSceneSize = 48;
constexpr size_t kServedK = 20;
constexpr uint32_t kServedRadius = 6;
constexpr size_t kServedLimit = 50;
constexpr size_t kServedQueries = 256;

/// The E1b archive's codes, generated once per process.
const std::vector<BinaryCode>& ArchiveCodes() {
  static const std::vector<BinaryCode> codes =
      ClusteredCodes(GetArchive(kArchive), kBits);
  return codes;
}

/// The served-shape codes, generated once per process.
const std::vector<BinaryCode>& ServedCodes() {
  static const std::vector<BinaryCode> codes = [] {
    Rng rng(17, /*stream=*/3);
    std::vector<BinaryCode> centres(kServedItems / kServedSceneSize + 1);
    for (BinaryCode& centre : centres) {
      centre = BinaryCode(kServedBits);
      for (size_t b = 0; b < kServedBits; ++b) {
        centre.SetBit(b, rng.Bernoulli(0.5));
      }
    }
    std::vector<BinaryCode> out;
    out.reserve(kServedItems);
    for (size_t i = 0; i < kServedItems; ++i) {
      BinaryCode code = centres[i / kServedSceneSize];
      for (size_t b = 0; b < kServedBits; ++b) {
        if (rng.Bernoulli(0.08)) code.FlipBit(b);
      }
      out.push_back(std::move(code));
    }
    return out;
  }();
  return codes;
}

/// An index of `kind` over one of the code sets above, built once per
/// process per (kind, set).
index::HammingIndex* GetIndex(const std::string& kind,
                              const std::vector<BinaryCode>& codes) {
  static std::map<std::pair<std::string, const std::vector<BinaryCode>*>,
                  std::unique_ptr<index::HammingIndex>>
      cache;
  std::unique_ptr<index::HammingIndex>& idx = cache[{kind, &codes}];
  if (idx != nullptr) return idx.get();
  if (kind == "hash_table") {
    idx = std::make_unique<index::HammingHashTable>();
  } else if (kind == "mih") {
    idx = std::make_unique<index::MultiIndexHashing>(4);
  } else {
    idx = std::make_unique<index::LinearScanIndex>();
  }
  for (size_t i = 0; i < codes.size(); ++i) {
    if (!idx->Add(i, codes[i]).ok()) std::abort();
  }
  return idx.get();
}

/// Pre-generated rotating query batches so the timed loops measure the
/// search alone, not query synthesis.
const std::vector<BinaryCode>& QueryBatchCodes(size_t offset) {
  static const std::vector<std::vector<BinaryCode>> batches = [] {
    const std::vector<BinaryCode>& codes = ArchiveCodes();
    std::vector<std::vector<BinaryCode>> out(16);
    for (size_t b = 0; b < out.size(); ++b) {
      out[b].reserve(kBatch);
      for (size_t q = 0; q < kBatch; ++q) {
        out[b].push_back(codes[(b + q * 37) % codes.size()]);
      }
    }
    return out;
  }();
  return batches[offset % batches.size()];
}

/// Baseline: the batch answered as kBatch independent single-threaded
/// single queries (the seed's only query path).
void RunSingleQuery(benchmark::State& state, const std::string& kind) {
  index::HammingIndex* idx = GetIndex(kind, ArchiveCodes());
  size_t offset = 0;
  for (auto _ : state) {
    const auto& queries = QueryBatchCodes(offset++);
    size_t results = 0;
    for (const BinaryCode& q : queries) {
      auto hits = RadiusHits(*idx, q, kRadius);
      benchmark::DoNotOptimize(hits);
      results += hits.size();
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.counters["queries_per_batch"] = static_cast<double>(kBatch);
}

/// Batched path: one batched open (OpenFrontiers) sharded across `threads`
/// pool workers (threads == 0 runs the batch sequentially, isolating
/// the batching gain from the threading gain).
void RunBatchQuery(benchmark::State& state, const std::string& kind) {
  index::HammingIndex* idx = GetIndex(kind, ArchiveCodes());
  const size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  size_t offset = 0;
  for (auto _ : state) {
    const auto& queries = QueryBatchCodes(offset++);
    auto hits = RadiusHitsBatch(*idx, queries, kRadius, pool.get());
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
  state.counters["pool_threads"] = static_cast<double>(threads);
}

void BM_SingleQueryLinearScan(benchmark::State& state) {
  RunSingleQuery(state, "linear");
}
void BM_BatchLinearScan(benchmark::State& state) {
  RunBatchQuery(state, "linear");
}
void BM_SingleQueryHashTable(benchmark::State& state) {
  RunSingleQuery(state, "hash_table");
}
void BM_BatchHashTable(benchmark::State& state) {
  RunBatchQuery(state, "hash_table");
}

/// One served-shape query per iteration, subjects drawn from the
/// indexed codes (the by-name similarity path): k-NN when `radius` is
/// empty, else a radius search capped at kServedLimit hits.
void RunServedQuery(benchmark::State& state, const std::string& kind,
                    std::optional<uint32_t> radius) {
  const std::vector<BinaryCode>& codes = ServedCodes();
  index::HammingIndex* idx = GetIndex(kind, codes);
  index::FrontierOptions options;
  options.radius = radius;
  options.limit = radius.has_value() ? kServedLimit : kServedK;
  size_t q = 0;
  for (auto _ : state) {
    const BinaryCode& query = codes[(q++ % kServedQueries) * 661];
    auto hits = index::Drain(*idx->OpenFrontier(query, options),
                             options.limit);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_ServedKnnLinearScan(benchmark::State& state) {
  RunServedQuery(state, "linear", std::nullopt);
}
void BM_ServedKnnMultiIndex(benchmark::State& state) {
  RunServedQuery(state, "mih", std::nullopt);
}
void BM_ServedKnnHashTable(benchmark::State& state) {
  RunServedQuery(state, "hash_table", std::nullopt);
}
void BM_ServedRadiusLinearScan(benchmark::State& state) {
  RunServedQuery(state, "linear", kServedRadius);
}
void BM_ServedRadiusMultiIndex(benchmark::State& state) {
  RunServedQuery(state, "mih", kServedRadius);
}
void BM_ServedRadiusHashTable(benchmark::State& state) {
  RunServedQuery(state, "hash_table", kServedRadius);
}

/// End-to-end service path: query-by-feature with per-query inference
/// (baseline) versus one batched forward pass + batch index search.
earthqube::CbirService* GetCbir() {
  static std::unique_ptr<earthqube::CbirService> cbir;
  if (cbir != nullptr) return cbir.get();
  const ArchiveFixture& fixture = GetArchive(2000);
  milan::MilanModel* trained = GetTrainedMilan(fixture, 32);
  // Clone the trained weights into a service-owned model via a
  // save/load round trip (the harness cache keeps the original).
  const std::string path = "/tmp/agoraeo_bench_batch_milan.bin";
  if (!trained->Save(path).ok()) std::abort();
  auto model = milan::MilanModel::Load(path);
  if (!model.ok()) std::abort();
  earthqube::CbirConfig config;
  config.query_threads = 4;
  cbir = std::make_unique<earthqube::CbirService>(
      std::move(model).value(), &fixture.extractor, config);
  if (!cbir->AddImages(fixture.names, fixture.features).ok()) std::abort();
  return cbir.get();
}

void BM_CbirSingleQueryByFeature(benchmark::State& state) {
  earthqube::CbirService* cbir = GetCbir();
  const ArchiveFixture& fixture = GetArchive(2000);
  const size_t dim = fixture.features.shape()[1];
  size_t offset = 0;
  for (auto _ : state) {
    size_t results = 0;
    for (size_t q = 0; q < kBatch; ++q) {
      Tensor row({1, dim});
      row.SetRow(0, fixture.features.Row((offset + q * 37) % 2000));
      auto code = cbir->HashFeatures(row);
      if (!code.ok()) std::abort();
      auto stream = cbir->OpenStream(code->front(), kRadius, 0, nullptr);
      std::vector<earthqube::CbirResult> hits;
      while (stream->Next(kDrainChunk, &hits) > 0) {
      }
      results += hits.size();
    }
    benchmark::DoNotOptimize(results);
    ++offset;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
}

void BM_CbirQueryBatch(benchmark::State& state) {
  earthqube::CbirService* cbir = GetCbir();
  const ArchiveFixture& fixture = GetArchive(2000);
  const size_t dim = fixture.features.shape()[1];
  size_t offset = 0;
  for (auto _ : state) {
    Tensor batch({kBatch, dim});
    for (size_t q = 0; q < kBatch; ++q) {
      batch.SetRow(q, fixture.features.Row((offset + q * 37) % 2000));
    }
    auto codes = cbir->HashFeatures(batch);
    if (!codes.ok()) std::abort();
    auto streams = cbir->OpenStreams(*codes, kRadius,
                                     std::vector<size_t>(kBatch, 0), nullptr,
                                     std::vector<std::string>(kBatch));
    std::vector<std::vector<earthqube::CbirResult>> hits(kBatch);
    for (size_t q = 0; q < kBatch; ++q) {
      while (streams[q]->Next(kDrainChunk, &hits[q]) > 0) {
      }
    }
    benchmark::DoNotOptimize(hits);
    ++offset;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
}

// UseRealTime: worker-pool benches must report wall-clock rates, not
// the main thread's CPU time.
BENCHMARK(BM_SingleQueryLinearScan)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_BatchLinearScan)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_SingleQueryHashTable)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_BatchHashTable)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_ServedKnnLinearScan)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServedKnnMultiIndex)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServedKnnHashTable)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServedRadiusLinearScan)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServedRadiusMultiIndex)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServedRadiusHashTable)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CbirSingleQueryByFeature)->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_CbirQueryBatch)->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace agoraeo::bench

BENCHMARK_MAIN();
