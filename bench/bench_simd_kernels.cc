/// The Hamming kernel layer, measured: every compiled+supported kernel
/// against the portable scalar reference, scanning 10k codes per pass
/// at 64/128/256/512 bits — the tentpole speedup evidence for the
/// runtime-dispatched SIMD layer.  Two levels:
///
///   BM_KernelScan/<kernel>/<bits>  — the raw kernel over the padded
///       flat layout in index-sized (256-code) blocks;
///   BM_IndexBatchRadius/<kernel>   — the same hardware path end to end
///       through LinearScanIndex::OpenFrontiers (single thread,
///       128-bit codes), i.e. what the service actually runs.
///
/// The dispatch self-check counters record which kernel the host
/// auto-selected (kernel_is_vector=1 when a vector ISA won) so a JSON
/// row can never silently report scalar-vs-scalar.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "common/simd/hamming_kernels.h"
#include "index/linear_scan.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kNumCodes = 10000;
constexpr size_t kCodeBlock = 256;  // mirrors the index's scan blocking
constexpr uint32_t kRadius = 8;

struct KernelFixture {
  simd::AlignedWordBuffer rows;
  simd::AlignedWordBuffer query;
  size_t stride = 0;
};

KernelFixture* GetKernelFixture(size_t bits) {
  static std::map<size_t, std::unique_ptr<KernelFixture>> cache;
  auto it = cache.find(bits);
  if (it != cache.end()) return it->second.get();
  const size_t wpc = (bits + 63) / 64;
  auto fx = std::make_unique<KernelFixture>();
  fx->stride = simd::PaddedStride(wpc);
  fx->rows.assign(kNumCodes * fx->stride, 0);
  fx->query.assign(fx->stride, 0);
  Rng rng(bits);
  for (size_t i = 0; i < kNumCodes; ++i) {
    for (size_t w = 0; w < wpc; ++w) {
      fx->rows[i * fx->stride + w] = rng.NextUint64();
    }
  }
  for (size_t w = 0; w < wpc; ++w) fx->query[w] = rng.NextUint64();
  return cache.emplace(bits, std::move(fx)).first->second.get();
}

/// One full pass over the 10k codes in index-sized blocks.
void BM_KernelScan(benchmark::State& state, const simd::HammingKernel* kernel,
                   size_t bits) {
  KernelFixture* fx = GetKernelFixture(bits);
  const size_t stride = fx->stride;
  alignas(64) uint32_t dist[kCodeBlock];
  uint64_t sink = 0;
  for (auto _ : state) {
    for (size_t block = 0; block < kNumCodes; block += kCodeBlock) {
      const size_t count = std::min(kNumCodes - block, kCodeBlock);
      kernel->batch(fx->rows.data() + block * stride, count, stride,
                    fx->query.data(), dist);
      sink += dist[0];
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kNumCodes));
  state.counters["code_bits"] = static_cast<double>(bits);
}

/// End to end through the index: a single-threaded batched radius scan
/// of 10k 128-bit codes with the named kernel forced for the run.
void BM_IndexBatchRadius(benchmark::State& state, std::string kernel_name) {
  static index::LinearScanIndex* idx = [] {
    auto* built = new index::LinearScanIndex();
    Rng rng(99);
    for (index::ItemId id = 0; id < kNumCodes; ++id) {
      BinaryCode code(128);
      for (size_t b = 0; b < 128; ++b) code.SetBit(b, rng.Bernoulli(0.5));
      if (!built->Add(id, code).ok()) std::abort();
    }
    return built;
  }();
  static const std::vector<BinaryCode>* queries = [] {
    auto* q = new std::vector<BinaryCode>();
    Rng rng(7);
    for (size_t i = 0; i < 16; ++i) {
      BinaryCode code(128);
      for (size_t b = 0; b < 128; ++b) code.SetBit(b, rng.Bernoulli(0.5));
      q->push_back(code);
    }
    return q;
  }();
  if (!simd::ForceKernel(kernel_name)) {
    state.SkipWithError(("kernel not usable: " + kernel_name).c_str());
    return;
  }
  size_t hits = 0;
  for (auto _ : state) {
    // nullptr pool: single thread — the per-core kernel speedup, not
    // the shard fan-out (bench_sharded_index measures that).
    const auto batch = RadiusHitsBatch(*idx, *queries, kRadius, nullptr);
    for (const auto& slot : batch) hits += slot.size();
    benchmark::DoNotOptimize(batch);
  }
  simd::ForceKernel("");
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * queries->size() * kNumCodes));
  state.counters["avg_hits"] =
      state.iterations() > 0
          ? static_cast<double>(hits) /
                static_cast<double>(state.iterations() * queries->size())
          : 0.0;
}

void RegisterAll() {
  // Dispatch self-check, reported on every kernel-scan row: which
  // kernel auto-selection picked, and whether it is a vector ISA.
  const std::string active = simd::ActiveKernel()->name;
  const bool vector_active = active != "scalar" && active != "popcnt";
  for (const simd::HammingKernel* kernel : simd::CompiledKernels()) {
    if (!kernel->supported()) continue;
    for (size_t bits : {64, 128, 256, 512}) {
      const std::string name = std::string("BM_KernelScan/") + kernel->name +
                               "/" + std::to_string(bits);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [kernel, bits, vector_active](benchmark::State& state) {
            state.counters["auto_kernel_is_vector"] =
                vector_active ? 1.0 : 0.0;
            state.counters["hw_threads"] = static_cast<double>(
                std::thread::hardware_concurrency());
            BM_KernelScan(state, kernel, bits);
          })
          ->Unit(benchmark::kMicrosecond);
    }
    benchmark::RegisterBenchmark(
        (std::string("BM_IndexBatchRadius/") + kernel->name).c_str(),
        [name = std::string(kernel->name)](benchmark::State& state) {
          BM_IndexBatchRadius(state, name);
        })
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace agoraeo::bench

int main(int argc, char** argv) {
  agoraeo::bench::RegisterAll();
  return agoraeo::bench::RunBenchmarksWithJson("simd_kernels", argc, argv);
}
