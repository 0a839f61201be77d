#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/simd/hamming_kernels.h"
#include "index/hamming_table.h"
#include "index/linear_scan.h"
#include "index/segmented_index.h"
#include "index/sharded_index.h"
#include "frontier_test_util.h"

namespace agoraeo::simd {
namespace {

/// Restores automatic kernel selection when a test scope ends, so a
/// failing forced-kernel test can't leak its selection into the rest of
/// the process.
struct KernelGuard {
  ~KernelGuard() { ForceKernel(""); }
};

const HammingKernel* Scalar() { return KernelByName("scalar"); }

TEST(PaddedStrideTest, RoundsToKernelFriendlyWidths) {
  EXPECT_EQ(PaddedStride(0), 0u);
  EXPECT_EQ(PaddedStride(1), 1u);
  EXPECT_EQ(PaddedStride(2), 2u);
  EXPECT_EQ(PaddedStride(3), 4u);
  EXPECT_EQ(PaddedStride(4), 4u);
  EXPECT_EQ(PaddedStride(5), 8u);
  EXPECT_EQ(PaddedStride(8), 8u);
  EXPECT_EQ(PaddedStride(9), 16u);
  EXPECT_EQ(PaddedStride(16), 16u);
}

TEST(KernelRegistryTest, ScalarAlwaysCompiledAndSupported) {
  ASSERT_NE(Scalar(), nullptr);
  EXPECT_TRUE(Scalar()->supported());
  // The active kernel must always be one the host can actually run.
  EXPECT_TRUE(ActiveKernel()->supported());
}

TEST(KernelRegistryTest, ForceKernelRejectsUnknownNames) {
  KernelGuard guard;
  EXPECT_FALSE(ForceKernel("no-such-kernel"));
  EXPECT_FALSE(KernelForced());
  EXPECT_TRUE(ForceKernel("scalar"));
  EXPECT_TRUE(KernelForced());
  EXPECT_EQ(std::string(ActiveKernel()->name), "scalar");
  EXPECT_TRUE(ForceKernel(""));
  EXPECT_FALSE(KernelForced());
}

TEST(KernelRegistryTest, DispatchCountsAdvanceWithScans) {
  KernelGuard guard;
  ASSERT_TRUE(ForceKernel("scalar"));
  const auto& kernels = CompiledKernels();
  size_t scalar_index = kernels.size();
  for (size_t i = 0; i < kernels.size(); ++i) {
    if (std::string(kernels[i]->name) == "scalar") scalar_index = i;
  }
  ASSERT_LT(scalar_index, kernels.size());
  const uint64_t before = DispatchCount(scalar_index);

  index::LinearScanIndex idx;
  Rng rng(7);
  for (index::ItemId id = 0; id < 10; ++id) {
    BinaryCode code(128);
    for (size_t b = 0; b < 128; ++b) code.SetBit(b, rng.Bernoulli(0.5));
    ASSERT_TRUE(idx.Add(id, code).ok());
  }
  BinaryCode query(128);
  DrainRadius(idx, query, 8);
  DrainKnn(idx, query, 3);
  EXPECT_GE(DispatchCount(scalar_index), before + 2);
}

// ---------------------------------------------------------------------------
// Kernel/scalar fuzz parity: every compiled+supported kernel must be
// byte-identical to the scalar reference for batch and pair distances,
// across code widths including non-power-of-two word counts and row
// counts that leave partial vector tails.
// ---------------------------------------------------------------------------

TEST(KernelParityTest, BatchAndPairMatchScalarAcrossWidths) {
  Rng rng(42);
  // words-per-code for 64/128/192/256/512-bit codes plus padding cases.
  const size_t kWidths[] = {1, 2, 3, 4, 5, 8, 9, 16};
  const size_t kRowCounts[] = {0, 1, 2, 3, 5, 7, 8, 9, 63, 257};
  for (size_t wpc : kWidths) {
    const size_t stride = PaddedStride(wpc);
    for (size_t n : kRowCounts) {
      AlignedWordBuffer rows(n * stride, 0);
      AlignedWordBuffer query(stride, 0);
      for (size_t i = 0; i < n; ++i) {
        for (size_t w = 0; w < wpc; ++w) {
          rows[i * stride + w] = rng.NextUint64();
        }
      }
      for (size_t w = 0; w < wpc; ++w) query[w] = rng.NextUint64();

      std::vector<uint32_t> expect(n, 0);
      Scalar()->batch(rows.data(), n, stride, query.data(), expect.data());
      // Scalar pair over the unpadded width must agree with the padded
      // batch row (zero tails XOR to zero).
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(expect[i], Scalar()->pair(rows.data() + i * stride,
                                            query.data(), wpc))
            << "wpc=" << wpc << " row=" << i;
      }

      for (const HammingKernel* kernel : CompiledKernels()) {
        if (!kernel->supported()) continue;
        std::vector<uint32_t> got(n, 0xdeadbeef);
        kernel->batch(rows.data(), n, stride, query.data(), got.data());
        ASSERT_EQ(got, expect)
            << "kernel=" << kernel->name << " wpc=" << wpc << " n=" << n;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(kernel->pair(rows.data() + i * stride, query.data(), wpc),
                    static_cast<uint64_t>(expect[i]))
              << "kernel=" << kernel->name << " wpc=" << wpc << " row=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace agoraeo::simd

namespace agoraeo::index {
namespace {

BinaryCode RandomCode(size_t bits, Rng* rng) {
  BinaryCode code(bits);
  for (size_t i = 0; i < bits; ++i) code.SetBit(i, rng->Bernoulli(0.5));
  return code;
}

std::vector<std::unique_ptr<HammingIndex>> AllIndexKinds() {
  std::vector<std::unique_ptr<HammingIndex>> kinds;
  kinds.push_back(std::make_unique<LinearScanIndex>());
  kinds.push_back(std::make_unique<HammingHashTable>());
  kinds.push_back(std::make_unique<MultiIndexHashing>(4));
  kinds.push_back(std::make_unique<ShardedHammingIndex>(
      4, [] { return std::make_unique<LinearScanIndex>(); },
      /*seal_threshold=*/64));
  kinds.push_back(std::make_unique<SegmentedHammingIndex>(
      [] { return std::make_unique<LinearScanIndex>(); },
      /*seal_threshold=*/64));
  return kinds;
}

/// Flattens a search result list for equality checks.
std::vector<std::pair<ItemId, uint32_t>> Flat(
    const std::vector<SearchResult>& results) {
  std::vector<std::pair<ItemId, uint32_t>> out;
  out.reserve(results.size());
  for (const SearchResult& r : results) out.emplace_back(r.id, r.distance);
  return out;
}

// ---------------------------------------------------------------------------
// Forced-dispatch matrix: every supported kernel, driven through the
// full index stack (all four kinds plus the sharded and segmented
// wrappers), must reproduce the forced-scalar results exactly on plain,
// batched and candidate-restricted searches.
// ---------------------------------------------------------------------------

TEST(KernelIndexMatrixTest, AllKernelsMatchScalarThroughFullStack) {
  simd::KernelGuard guard;
  constexpr size_t kBits = 192;  // 3 words: padded stride exercises tails
  constexpr size_t kItems = 700;
  constexpr uint32_t kRadius = 70;
  constexpr size_t kK = 12;

  Rng rng(1234);
  std::vector<BinaryCode> codes;
  codes.reserve(kItems);
  for (size_t i = 0; i < kItems; ++i) codes.push_back(RandomCode(kBits, &rng));
  std::vector<ItemId> ids(kItems);
  for (size_t i = 0; i < kItems; ++i) ids[i] = static_cast<ItemId>(i);
  const std::vector<BinaryCode> queries(codes.begin(), codes.begin() + 8);
  std::vector<ItemId> allowed_sparse_ids, allowed_dense_ids;
  for (size_t i = 0; i < kItems; i += 13) allowed_sparse_ids.push_back(i);
  for (size_t i = 0; i < kItems; ++i) {
    if (i % 3 != 0) allowed_dense_ids.push_back(i);
  }
  const CandidateSet sparse(allowed_sparse_ids);
  const CandidateSet dense(allowed_dense_ids);

  struct Expected {
    std::vector<std::pair<ItemId, uint32_t>> radius, knn;
    std::vector<std::pair<ItemId, uint32_t>> radius_sparse, radius_dense;
    std::vector<std::pair<ItemId, uint32_t>> knn_sparse, knn_dense;
    std::vector<std::vector<std::pair<ItemId, uint32_t>>> batch_radius;
    std::vector<std::vector<std::pair<ItemId, uint32_t>>> batch_knn;
  };

  auto run = [&](HammingIndex* idx) {
    Expected e;
    e.radius = Flat(DrainRadius(*idx, queries[0], kRadius));
    e.knn = Flat(DrainKnn(*idx, queries[0], kK));
    e.radius_sparse = Flat(DrainRadius(*idx, queries[0], kRadius, &sparse));
    e.radius_dense = Flat(DrainRadius(*idx, queries[0], kRadius, &dense));
    e.knn_sparse = Flat(DrainKnn(*idx, queries[0], kK, &sparse));
    e.knn_dense = Flat(DrainKnn(*idx, queries[0], kK, &dense));
    for (const auto& hits : DrainRadiusBatch(*idx, queries, kRadius)) {
      e.batch_radius.push_back(Flat(hits));
    }
    for (const auto& hits : DrainKnnBatch(*idx, queries, kK)) {
      e.batch_knn.push_back(Flat(hits));
    }
    return e;
  };

  // Reference pass: everything forced through the scalar kernel.
  ASSERT_TRUE(simd::ForceKernel("scalar"));
  std::vector<Expected> reference;
  {
    auto kinds = AllIndexKinds();
    for (auto& idx : kinds) {
      ASSERT_TRUE(idx->BatchAdd(ids, codes).ok());
      reference.push_back(run(idx.get()));
    }
  }

  for (const simd::HammingKernel* kernel : simd::CompiledKernels()) {
    if (!kernel->supported()) continue;
    ASSERT_TRUE(simd::ForceKernel(kernel->name));
    auto kinds = AllIndexKinds();
    for (size_t kind = 0; kind < kinds.size(); ++kind) {
      ASSERT_TRUE(kinds[kind]->BatchAdd(ids, codes).ok());
      const Expected got = run(kinds[kind].get());
      const Expected& want = reference[kind];
      EXPECT_EQ(got.radius, want.radius)
          << kernel->name << " / " << kinds[kind]->Name();
      EXPECT_EQ(got.knn, want.knn)
          << kernel->name << " / " << kinds[kind]->Name();
      EXPECT_EQ(got.radius_sparse, want.radius_sparse)
          << kernel->name << " / " << kinds[kind]->Name();
      EXPECT_EQ(got.radius_dense, want.radius_dense)
          << kernel->name << " / " << kinds[kind]->Name();
      EXPECT_EQ(got.knn_sparse, want.knn_sparse)
          << kernel->name << " / " << kinds[kind]->Name();
      EXPECT_EQ(got.knn_dense, want.knn_dense)
          << kernel->name << " / " << kinds[kind]->Name();
      EXPECT_EQ(got.batch_radius, want.batch_radius)
          << kernel->name << " / " << kinds[kind]->Name();
      EXPECT_EQ(got.batch_knn, want.batch_knn)
          << kernel->name << " / " << kinds[kind]->Name();
    }
  }
}

// ---------------------------------------------------------------------------
// BatchAdd validation: a mixed-width or empty-code batch must be
// rejected up front and leave the index untouched.
// ---------------------------------------------------------------------------

TEST(LinearScanBatchAddTest, RejectsMixedWidthBatchAtomically) {
  LinearScanIndex idx;
  Rng rng(5);
  std::vector<ItemId> ids = {0, 1, 2};
  std::vector<BinaryCode> mixed = {RandomCode(128, &rng),
                                   RandomCode(64, &rng),
                                   RandomCode(128, &rng)};
  const Status status = idx.BatchAdd(ids, mixed);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(idx.size(), 0u);  // nothing from the bad batch was added

  // The index is still fully usable with a uniform batch afterwards.
  std::vector<BinaryCode> uniform = {RandomCode(128, &rng),
                                     RandomCode(128, &rng),
                                     RandomCode(128, &rng)};
  ASSERT_TRUE(idx.BatchAdd(ids, uniform).ok());
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(DrainRadius(idx, uniform[1], 0).size(), 1u);
}

TEST(LinearScanBatchAddTest, RejectsEmptyCodeInBatch) {
  LinearScanIndex idx;
  Rng rng(6);
  ASSERT_TRUE(idx.Add(0, RandomCode(64, &rng)).ok());
  std::vector<ItemId> ids = {1, 2};
  std::vector<BinaryCode> batch = {RandomCode(64, &rng), BinaryCode()};
  EXPECT_FALSE(idx.BatchAdd(ids, batch).ok());
  EXPECT_EQ(idx.size(), 1u);  // only the pre-existing item remains
}

TEST(LinearScanBatchAddTest, RejectsWidthMismatchAgainstExistingItems) {
  LinearScanIndex idx;
  Rng rng(8);
  ASSERT_TRUE(idx.Add(0, RandomCode(128, &rng)).ok());
  // Uniform batch, but of the wrong width for this index.
  std::vector<ItemId> ids = {1, 2};
  std::vector<BinaryCode> batch = {RandomCode(64, &rng),
                                   RandomCode(64, &rng)};
  EXPECT_FALSE(idx.BatchAdd(ids, batch).ok());
  EXPECT_EQ(idx.size(), 1u);
}

}  // namespace
}  // namespace agoraeo::index
