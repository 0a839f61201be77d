/// Experiment E4 — code length trade-off (the paper fixes 128 bits;
/// this ablation shows why that is a sensible operating point).
///
/// Sweeps K in {16, 32, 64, 128}: retrieval quality (P@10, mAP@10) of
/// trained MiLaN codes and the cost side (hash-table bucket count and
/// radius-lookup latency).  Expected shape: quality rises with K and
/// saturates; bucket count approaches one-item-per-bucket; mask-probe
/// counts grow with K at fixed radius.
#include <chrono>
#include <cstdio>

#include "bench/harness.h"
#include "index/hamming_table.h"
#include "milan/metrics.h"

namespace agoraeo::bench {
namespace {

constexpr size_t kArchive = 4000;
constexpr size_t kNumQueries = 80;

}  // namespace
}  // namespace agoraeo::bench

int main() {
  using namespace agoraeo;
  using namespace agoraeo::bench;
  using Clock = std::chrono::steady_clock;

  PrintHeader("E4: Code length sweep",
              "128-bit codes balance retrieval quality against lookup "
              "cost; quality saturates with K");

  const ArchiveFixture& fixture = GetArchive(kArchive);
  std::printf("%6s %8s %8s %12s %14s %14s\n", "bits", "P@10", "mAP@10",
              "buckets", "radius4_us", "radius4_hits");

  for (size_t bits : {16, 32, 64, 128}) {
    milan::MilanModel* model = GetTrainedMilan(fixture, bits);
    const auto codes = model->HashBatch(fixture.features);

    auto relevant = [&](size_t q, size_t i) {
      return fixture.labels[q * 31 % fixture.labels.size()].ContainsAny(
          fixture.labels[i]);
    };
    auto rank = [&](size_t q) {
      const size_t query = q * 31 % codes.size();
      return milan::RankByHamming(codes[query], codes, query);
    };
    auto quality = milan::EvaluateRetrieval(kNumQueries, 10, rank, relevant);

    index::HammingHashTable table;
    for (size_t i = 0; i < codes.size(); ++i) {
      if (!table.Add(i, codes[i]).ok()) std::abort();
    }

    const uint32_t radius = 4;
    size_t hits = 0;
    const auto start = Clock::now();
    for (size_t q = 0; q < kNumQueries; ++q) {
      hits += RadiusHits(table, codes[q * 31 % codes.size()], radius).size();
    }
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count() /
        kNumQueries;

    std::printf("%6zu %8.3f %8.3f %12zu %14.1f %14.1f\n", bits,
                quality.precision_at_k, quality.map_at_k, table.num_buckets(),
                us, static_cast<double>(hits) / kNumQueries);
  }
  std::printf("\nexpected shape: quality saturates with K; buckets -> N; "
              "probe cost grows with K at fixed radius\n");
  return 0;
}
