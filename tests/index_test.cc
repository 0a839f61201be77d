#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/thread_pool.h"
#include "milan/baselines.h"
#include "index/hamming_table.h"
#include "index/ivf_index.h"
#include "index/product_quantizer.h"
#include "index/linear_scan.h"
#include "frontier_test_util.h"

namespace agoraeo::index {
namespace {

BinaryCode RandomCode(size_t bits, Rng* rng) {
  BinaryCode code(bits);
  for (size_t i = 0; i < bits; ++i) code.SetBit(i, rng->Bernoulli(0.5));
  return code;
}

/// Flips exactly `flips` random distinct bits of `base`.
BinaryCode Perturb(const BinaryCode& base, size_t flips, Rng* rng) {
  BinaryCode code = base;
  auto positions = rng->SampleWithoutReplacement(base.size(), flips);
  for (size_t pos : positions) code.FlipBit(pos);
  return code;
}

// ---------------------------------------------------------------------------
// LinearScanIndex (the reference implementation)
// ---------------------------------------------------------------------------

TEST(LinearScanTest, RadiusSearchExact) {
  LinearScanIndex idx;
  Rng rng(1);
  BinaryCode query = RandomCode(64, &rng);
  ASSERT_TRUE(idx.Add(0, query).ok());                      // d = 0
  ASSERT_TRUE(idx.Add(1, Perturb(query, 3, &rng)).ok());    // d = 3
  ASSERT_TRUE(idx.Add(2, Perturb(query, 10, &rng)).ok());   // d = 10

  auto r2 = DrainRadius(idx, query, 2);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0].id, 0u);
  auto r5 = DrainRadius(idx, query, 5);
  ASSERT_EQ(r5.size(), 2u);
  EXPECT_EQ(r5[1].id, 1u);
  EXPECT_EQ(r5[1].distance, 3u);
  auto r64 = DrainRadius(idx, query, 64);
  EXPECT_EQ(r64.size(), 3u);
}

TEST(LinearScanTest, KnnOrderedAndTiedById) {
  LinearScanIndex idx;
  BinaryCode zero(16);
  BinaryCode one(16);
  one.SetBit(0, true);
  ASSERT_TRUE(idx.Add(5, one).ok());
  ASSERT_TRUE(idx.Add(3, one).ok());  // same distance, lower id
  ASSERT_TRUE(idx.Add(9, zero).ok());
  auto knn = DrainKnn(idx, zero, 3);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_EQ(knn[0].id, 9u);
  EXPECT_EQ(knn[0].distance, 0u);
  EXPECT_EQ(knn[1].id, 3u);  // tie broken by id
  EXPECT_EQ(knn[2].id, 5u);
}

TEST(LinearScanTest, KnnFewerThanK) {
  LinearScanIndex idx;
  Rng rng(2);
  ASSERT_TRUE(idx.Add(0, RandomCode(32, &rng)).ok());
  EXPECT_EQ(DrainKnn(idx, RandomCode(32, &rng), 10).size(), 1u);
}

TEST(LinearScanTest, RejectsMismatchedLengths) {
  LinearScanIndex idx;
  Rng rng(3);
  ASSERT_TRUE(idx.Add(0, RandomCode(64, &rng)).ok());
  EXPECT_TRUE(idx.Add(1, RandomCode(32, &rng)).IsInvalidArgument());
  EXPECT_TRUE(idx.Add(2, BinaryCode()).IsInvalidArgument());
}

TEST(LinearScanTest, ForeignWidthQueriesMatchNothing) {
  // A query of any width but the indexed one opens an empty frontier on
  // every scan path (full, dense and sparse allowlist, batched) instead
  // of reading past the padded query buffer.
  LinearScanIndex idx;
  Rng rng(4);
  const size_t n = 300;
  for (ItemId id = 0; id < n; ++id) {
    ASSERT_TRUE(idx.Add(id, RandomCode(64, &rng)).ok());
  }
  std::vector<ItemId> all_ids(n);
  for (ItemId id = 0; id < n; ++id) all_ids[id] = id;
  const CandidateSet dense(all_ids);
  const CandidateSet sparse({1, 7, 42});
  const BinaryCode native = RandomCode(64, &rng);
  ThreadPool pool(2);
  for (size_t bits : {size_t{63}, size_t{65}, size_t{128}}) {
    SCOPED_TRACE(bits);
    BinaryCode foreign(bits);
    for (size_t i = 0; i < bits; ++i) foreign.SetBit(i, true);
    for (const CandidateSet* allowed : {static_cast<const CandidateSet*>(
                                            nullptr),
                                        &dense, &sparse}) {
      EXPECT_TRUE(DrainRadius(idx, foreign, 64, allowed).empty());
      EXPECT_TRUE(DrainKnn(idx, foreign, 10, allowed).empty());
      // A batch mixing widths answers the native query as usual.
      const auto batch =
          DrainKnnBatch(idx, {foreign, native, foreign}, 10, &pool, allowed);
      ASSERT_EQ(batch.size(), 3u);
      EXPECT_TRUE(batch[0].empty());
      EXPECT_EQ(batch[1], DrainKnn(idx, native, 10, allowed));
      EXPECT_TRUE(batch[2].empty());
    }
  }
}

TEST(FloatLinearScanTest, ExactNeighbors) {
  FloatLinearScan idx(2);
  idx.Add(0, Tensor({2}, {0, 0}));
  idx.Add(1, Tensor({2}, {1, 0}));
  idx.Add(2, Tensor({2}, {5, 5}));
  auto knn = idx.KnnSearch(Tensor({2}, {0.4f, 0}), 2);
  ASSERT_EQ(knn.size(), 2u);
  EXPECT_EQ(knn[0].id, 0u);
  EXPECT_EQ(knn[1].id, 1u);
  EXPECT_NEAR(knn[0].distance, 0.16f, 1e-5f);
}

// ---------------------------------------------------------------------------
// HammingHashTable
// ---------------------------------------------------------------------------

TEST(HammingHashTableTest, ExactLookupRadiusZero) {
  HammingHashTable idx;
  Rng rng(4);
  BinaryCode a = RandomCode(128, &rng);
  BinaryCode b = Perturb(a, 1, &rng);
  ASSERT_TRUE(idx.Add(1, a).ok());
  ASSERT_TRUE(idx.Add(2, a).ok());  // same bucket
  ASSERT_TRUE(idx.Add(3, b).ok());
  auto hits = DrainRadius(idx, a, 0);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1u);
  EXPECT_EQ(hits[1].id, 2u);
  EXPECT_EQ(idx.num_buckets(), 2u);
  EXPECT_EQ(idx.size(), 3u);
}

TEST(HammingHashTableTest, ProbeCountBinomialSums) {
  EXPECT_EQ(HammingHashTable::ProbeCount(128, 0), 1u);
  EXPECT_EQ(HammingHashTable::ProbeCount(128, 1), 129u);
  EXPECT_EQ(HammingHashTable::ProbeCount(128, 2), 1u + 128u + 8128u);
  EXPECT_EQ(HammingHashTable::ProbeCount(4, 4), 16u);  // whole space
  EXPECT_EQ(HammingHashTable::ProbeCount(512, 60), SIZE_MAX);  // saturates
}

TEST(HammingHashTableTest, StatsReportProbeStrategy) {
  HammingHashTable idx;
  Rng rng(5);
  for (ItemId i = 0; i < 100; ++i) {
    ASSERT_TRUE(idx.Add(i, RandomCode(32, &rng)).ok());
  }
  // Small radius: mask enumeration, ring by ring as the walk is
  // drained (probes = 1 + 32 = 33).
  SearchStats small;
  FrontierOptions options;
  options.radius = 1;
  options.stats = &small;
  auto frontier = idx.OpenFrontier(RandomCode(32, &rng), options);
  EXPECT_EQ(small.buckets_probed, 0u);  // nothing probed before a pull
  Drain(*frontier);
  EXPECT_EQ(small.buckets_probed, 33u);
  // A radius past the crossover scans every bucket, chosen up front at
  // open rather than after enumerating the cheap rings first.
  SearchStats large;
  options.radius = 20;
  options.stats = &large;
  frontier = idx.OpenFrontier(RandomCode(32, &rng), options);
  EXPECT_EQ(large.buckets_probed, idx.num_buckets());
  Drain(*frontier);
  EXPECT_EQ(large.buckets_probed, idx.num_buckets());
}

// ---------------------------------------------------------------------------
// MultiIndexHashing
// ---------------------------------------------------------------------------

TEST(MultiIndexHashingTest, SubstringGuarantee) {
  // Construct a code pair at distance exactly r and verify MIH finds it
  // for every r in a sweep.
  for (uint32_t r = 0; r <= 16; r += 4) {
    MultiIndexHashing idx(4);
    Rng rng(6 + r);
    BinaryCode base = RandomCode(128, &rng);
    BinaryCode far = Perturb(base, r, &rng);
    ASSERT_TRUE(idx.Add(1, far).ok());
    auto hits = DrainRadius(idx, base, r);
    ASSERT_EQ(hits.size(), 1u) << "radius " << r;
    EXPECT_EQ(hits[0].distance, r);
  }
}

TEST(MultiIndexHashingTest, RejectsOversizedSubstrings) {
  MultiIndexHashing idx(1);  // 128-bit single substring > 64 bits
  Rng rng(7);
  EXPECT_TRUE(idx.Add(0, RandomCode(128, &rng)).IsInvalidArgument());
}

TEST(MultiIndexHashingTest, UnevenSplitWorks) {
  MultiIndexHashing idx(3);  // 64 = 22 + 21 + 21
  Rng rng(8);
  BinaryCode base = RandomCode(64, &rng);
  ASSERT_TRUE(idx.Add(0, base).ok());
  ASSERT_TRUE(idx.Add(1, Perturb(base, 5, &rng)).ok());
  auto hits = DrainRadius(idx, base, 6);
  EXPECT_EQ(hits.size(), 2u);
}

// ---------------------------------------------------------------------------
// Cross-implementation equivalence (property tests)
// ---------------------------------------------------------------------------

struct EquivalenceParams {
  size_t bits;
  size_t n_items;
  uint32_t radius;
};

class IndexEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParams> {};

TEST_P(IndexEquivalenceTest, AllIndexesReturnIdenticalRadiusResults) {
  const auto& params = GetParam();
  Rng rng(1000 + params.bits + params.radius);

  LinearScanIndex scan;
  HammingHashTable table;
  MultiIndexHashing mih(4);

  // Clustered codes so radius searches have non-trivial results.
  std::vector<std::pair<ItemId, BinaryCode>> items;
  std::vector<BinaryCode> centers;
  for (int c = 0; c < 5; ++c) centers.push_back(RandomCode(params.bits, &rng));
  for (ItemId i = 0; i < params.n_items; ++i) {
    const BinaryCode code = Perturb(
        centers[i % centers.size()],
        rng.UniformInt(static_cast<uint32_t>(params.bits / 8)), &rng);
    items.emplace_back(i, code);
    ASSERT_TRUE(scan.Add(i, code).ok());
    ASSERT_TRUE(table.Add(i, code).ok());
    ASSERT_TRUE(mih.Add(i, code).ok());
  }

  for (int q = 0; q < 10; ++q) {
    const BinaryCode query =
        Perturb(centers[static_cast<size_t>(q) % centers.size()],
                rng.UniformInt(4), &rng);
    const auto expected = BruteForce(items, query, params.radius);
    const auto from_scan = DrainRadius(scan, query, params.radius);
    const auto from_table = DrainRadius(table, query, params.radius);
    const auto from_mih = DrainRadius(mih, query, params.radius);
    EXPECT_EQ(from_scan, expected) << "linear scan, query " << q;
    EXPECT_EQ(from_table, expected) << "hash table, query " << q;
    EXPECT_EQ(from_mih, expected) << "MIH, query " << q;
  }
}

TEST_P(IndexEquivalenceTest, KnnMatchesReferenceDistances) {
  const auto& params = GetParam();
  Rng rng(2000 + params.bits + params.radius);

  LinearScanIndex scan;
  HammingHashTable table;
  MultiIndexHashing mih(4);
  std::vector<std::pair<ItemId, BinaryCode>> items;
  std::vector<BinaryCode> centers;
  for (int c = 0; c < 4; ++c) centers.push_back(RandomCode(params.bits, &rng));
  for (ItemId i = 0; i < params.n_items; ++i) {
    const BinaryCode code =
        Perturb(centers[i % centers.size()],
                rng.UniformInt(static_cast<uint32_t>(params.bits / 6)), &rng);
    items.emplace_back(i, code);
    ASSERT_TRUE(scan.Add(i, code).ok());
    ASSERT_TRUE(table.Add(i, code).ok());
    ASSERT_TRUE(mih.Add(i, code).ok());
  }
  const size_t k = 7;
  for (int q = 0; q < 5; ++q) {
    const BinaryCode query = RandomCode(params.bits, &rng);
    const auto expected = BruteForce(items, query, std::nullopt, nullptr, k);
    EXPECT_EQ(DrainKnn(scan, query, k), expected) << "linear scan knn, query " << q;
    const auto from_table = DrainKnn(table, query, k);
    const auto from_mih = DrainKnn(mih, query, k);
    // Distances must agree exactly (ids may differ only on equal
    // distance; our tie-break is deterministic so full equality holds).
    EXPECT_EQ(from_table, expected) << "hash table knn, query " << q;
    EXPECT_EQ(from_mih, expected) << "MIH knn, query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexEquivalenceTest,
    ::testing::Values(EquivalenceParams{32, 200, 2},
                      EquivalenceParams{32, 200, 6},
                      EquivalenceParams{64, 300, 3},
                      EquivalenceParams{64, 300, 8},
                      EquivalenceParams{128, 400, 4},
                      EquivalenceParams{128, 400, 10}));

// ---------------------------------------------------------------------------
// Candidate-restricted search (the hybrid-query pre-filter leg)
// ---------------------------------------------------------------------------

/// Builds one index of each kind over the same clustered codes.
struct AllKinds {
  LinearScanIndex scan;
  HammingHashTable table;
  MultiIndexHashing mih{4};
  std::vector<HammingIndex*> all;

  AllKinds(size_t bits, size_t n_items, Rng* rng) {
    std::vector<BinaryCode> centers;
    for (int c = 0; c < 5; ++c) centers.push_back(RandomCode(bits, rng));
    for (ItemId i = 0; i < n_items; ++i) {
      const BinaryCode code =
          Perturb(centers[i % centers.size()],
                  rng->UniformInt(static_cast<uint32_t>(bits / 8)), rng);
      for (HammingIndex* idx :
           {static_cast<HammingIndex*>(&scan), static_cast<HammingIndex*>(&table),
            static_cast<HammingIndex*>(&mih)}) {
        // Not ASSERT_TRUE: gtest assertions only early-return inside the
        // constructor instead of failing the test.
        if (!idx->Add(i, code).ok()) std::abort();
      }
    }
    all = {&scan, &table, &mih};
  }
};

TEST(RestrictedSearchTest, RadiusSearchInEqualsPostFilteredRadiusSearch) {
  Rng rng(77);
  constexpr size_t kBits = 64;
  constexpr size_t kItems = 300;
  AllKinds kinds(kBits, kItems, &rng);

  // Allowlists of varied density, including ids absent from the index.
  for (double density : {0.02, 0.25, 0.9}) {
    std::vector<ItemId> ids;
    for (ItemId i = 0; i < kItems + 20; ++i) {
      if (rng.Bernoulli(density)) ids.push_back(i);
    }
    const CandidateSet allowed(ids);
    for (int q = 0; q < 8; ++q) {
      const BinaryCode query = RandomCode(kBits, &rng);
      for (HammingIndex* idx : kinds.all) {
        auto expected = DrainRadius(*idx, query, 8);
        expected.erase(
            std::remove_if(expected.begin(), expected.end(),
                           [&](const SearchResult& r) {
                             return !allowed.Contains(r.id);
                           }),
            expected.end());
        EXPECT_EQ(DrainRadius(*idx, query, 8, &allowed), expected)
            << idx->Name() << " density " << density << " query " << q;
      }
    }
  }
}

TEST(RestrictedSearchTest, KnnSearchInReturnsNearestAllowed) {
  Rng rng(78);
  constexpr size_t kBits = 64;
  constexpr size_t kItems = 250;
  AllKinds kinds(kBits, kItems, &rng);

  for (double density : {0.05, 0.5}) {
    std::vector<ItemId> ids;
    for (ItemId i = 0; i < kItems; ++i) {
      if (rng.Bernoulli(density)) ids.push_back(i);
    }
    const CandidateSet allowed(ids);
    for (int q = 0; q < 6; ++q) {
      const BinaryCode query = RandomCode(kBits, &rng);
      // Reference: rank everything, keep the first k allowed.
      const size_t k = 9;
      auto ranked = DrainKnn(kinds.scan, query, kItems);
      std::vector<SearchResult> expected;
      for (const SearchResult& r : ranked) {
        if (expected.size() >= k) break;
        if (allowed.Contains(r.id)) expected.push_back(r);
      }
      for (HammingIndex* idx : kinds.all) {
        EXPECT_EQ(DrainKnn(*idx, query, k, &allowed), expected)
            << idx->Name() << " density " << density << " query " << q;
      }
    }
  }
}

TEST(RestrictedSearchTest, EmptyAndFullAllowlists) {
  Rng rng(79);
  constexpr size_t kBits = 32;
  constexpr size_t kItems = 120;
  AllKinds kinds(kBits, kItems, &rng);

  std::vector<ItemId> everyone;
  for (ItemId i = 0; i < kItems; ++i) everyone.push_back(i);
  const CandidateSet all_ids(everyone);
  const CandidateSet none;

  const BinaryCode query = RandomCode(kBits, &rng);
  for (HammingIndex* idx : kinds.all) {
    EXPECT_TRUE(DrainRadius(*idx, query, 6, &none).empty()) << idx->Name();
    EXPECT_TRUE(DrainKnn(*idx, query, 5, &none).empty()) << idx->Name();
    // A full allowlist restricts nothing.
    EXPECT_EQ(DrainRadius(*idx, query, 6, &all_ids),
              DrainRadius(*idx, query, 6))
        << idx->Name();
    EXPECT_EQ(DrainKnn(*idx, query, 5, &all_ids), DrainKnn(*idx, query, 5))
        << idx->Name();
  }
}

TEST(IndexStressTest, EmptyIndexReturnsNothing) {
  HammingHashTable table;
  MultiIndexHashing mih(4);
  LinearScanIndex scan;
  Rng rng(9);
  const BinaryCode query = RandomCode(64, &rng);
  EXPECT_TRUE(DrainRadius(table, query, 5).empty());
  EXPECT_TRUE(DrainRadius(mih, query, 5).empty());
  EXPECT_TRUE(DrainRadius(scan, query, 5).empty());
  EXPECT_TRUE(DrainKnn(table, query, 3).empty());
  EXPECT_TRUE(DrainKnn(mih, query, 3).empty());
  EXPECT_TRUE(DrainKnn(scan, query, 3).empty());
}

TEST(IndexStressTest, DuplicateCodesAllReturned) {
  HammingHashTable table;
  Rng rng(10);
  const BinaryCode code = RandomCode(64, &rng);
  for (ItemId i = 0; i < 50; ++i) ASSERT_TRUE(table.Add(i, code).ok());
  EXPECT_EQ(DrainRadius(table, code, 0).size(), 50u);
  EXPECT_EQ(table.num_buckets(), 1u);
  EXPECT_EQ(DrainKnn(table, code, 10).size(), 10u);
}


// ---------------------------------------------------------------------------
// Batched opens (OpenFrontiers)
// ---------------------------------------------------------------------------

/// The three HammingIndex kinds loaded with identical clustered codes.
struct IndexSet {
  std::vector<std::unique_ptr<HammingIndex>> indexes;
  std::vector<BinaryCode> queries;
};

IndexSet BuildIndexSet(size_t bits, size_t n_items, size_t n_queries,
                       uint64_t seed, bool with_duplicates = false) {
  IndexSet set;
  set.indexes.push_back(std::make_unique<LinearScanIndex>());
  set.indexes.push_back(std::make_unique<HammingHashTable>());
  set.indexes.push_back(std::make_unique<MultiIndexHashing>(4));

  Rng rng(seed);
  std::vector<BinaryCode> centers;
  for (int c = 0; c < 5; ++c) centers.push_back(RandomCode(bits, &rng));
  for (ItemId i = 0; i < n_items; ++i) {
    // Duplicate codes force (distance, id) ties across many ids.
    const BinaryCode code =
        with_duplicates && i % 3 != 0
            ? centers[i % centers.size()]
            : Perturb(centers[i % centers.size()],
                      rng.UniformInt(static_cast<uint32_t>(bits / 8)), &rng);
    for (auto& idx : set.indexes) {
      EXPECT_TRUE(idx->Add(i, code).ok());
    }
  }
  for (size_t q = 0; q < n_queries; ++q) {
    // Include exact-duplicate queries (exercises the hash table's dedup).
    if (q % 4 == 3 && q > 0) {
      set.queries.push_back(set.queries[q - 1]);
    } else {
      set.queries.push_back(
          Perturb(centers[q % centers.size()], rng.UniformInt(4), &rng));
    }
  }
  return set;
}

TEST(BatchSearchTest, BatchEqualsSequentialForEveryKind) {
  IndexSet set = BuildIndexSet(64, 300, 13, 71);
  constexpr uint32_t kRadius = 8;
  constexpr size_t kK = 9;
  for (auto& idx : set.indexes) {
    const auto batch_radius = DrainRadiusBatch(*idx, set.queries, kRadius);
    const auto batch_knn = DrainKnnBatch(*idx, set.queries, kK);
    ASSERT_EQ(batch_radius.size(), set.queries.size()) << idx->Name();
    ASSERT_EQ(batch_knn.size(), set.queries.size()) << idx->Name();
    for (size_t q = 0; q < set.queries.size(); ++q) {
      EXPECT_EQ(batch_radius[q], DrainRadius(*idx, set.queries[q], kRadius))
          << idx->Name() << " radius, query " << q;
      EXPECT_EQ(batch_knn[q], DrainKnn(*idx, set.queries[q], kK))
          << idx->Name() << " knn, query " << q;
    }
  }
}

TEST(BatchSearchTest, BatchedRestrictedEqualsSequentialRestricted) {
  // The execution engine's micro-batched pre-filter pass: many query
  // codes against one shared allowlist must equal per-query restricted
  // searches, with and without a pool.
  IndexSet set = BuildIndexSet(64, 300, 13, 74);
  constexpr uint32_t kRadius = 8;
  constexpr size_t kK = 7;
  Rng rng(75);
  std::vector<ItemId> ids;
  for (ItemId i = 0; i < 320; ++i) {
    if (rng.Bernoulli(0.3)) ids.push_back(i);
  }
  const CandidateSet allowed(ids);
  ThreadPool pool(3);
  for (auto& idx : set.indexes) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      const auto batch_radius =
          DrainRadiusBatch(*idx, set.queries, kRadius, p, &allowed);
      const auto batch_knn = DrainKnnBatch(*idx, set.queries, kK, p, &allowed);
      ASSERT_EQ(batch_radius.size(), set.queries.size()) << idx->Name();
      for (size_t q = 0; q < set.queries.size(); ++q) {
        EXPECT_EQ(batch_radius[q],
                  DrainRadius(*idx, set.queries[q], kRadius, &allowed))
            << idx->Name() << " restricted radius, query " << q;
        EXPECT_EQ(batch_knn[q], DrainKnn(*idx, set.queries[q], kK, &allowed))
            << idx->Name() << " restricted knn, query " << q;
      }
    }
  }
}

TEST(BatchSearchTest, EmptyBatchReturnsEmpty) {
  IndexSet set = BuildIndexSet(64, 50, 0, 72);
  const std::vector<BinaryCode> empty;
  ThreadPool pool(2);
  for (auto& idx : set.indexes) {
    EXPECT_TRUE(DrainRadiusBatch(*idx, empty, 5, &pool).empty())
        << idx->Name();
    EXPECT_TRUE(DrainKnnBatch(*idx, empty, 3, &pool).empty()) << idx->Name();
  }
}

TEST(BatchSearchTest, ResultsIndependentOfThreadCount) {
  IndexSet set = BuildIndexSet(128, 400, 17, 73);
  constexpr uint32_t kRadius = 10;
  constexpr size_t kK = 6;
  for (auto& idx : set.indexes) {
    const auto expected_radius = DrainRadiusBatch(*idx, set.queries, kRadius);
    const auto expected_knn = DrainKnnBatch(*idx, set.queries, kK);
    for (size_t threads : {1, 2, 4, 8}) {
      ThreadPool pool(threads);
      EXPECT_EQ(DrainRadiusBatch(*idx, set.queries, kRadius, &pool),
                expected_radius)
          << idx->Name() << " radius with " << threads << " threads";
      EXPECT_EQ(DrainKnnBatch(*idx, set.queries, kK, &pool), expected_knn)
          << idx->Name() << " knn with " << threads << " threads";
    }
  }
}

TEST(BatchSearchTest, TieOrderingIsCanonicalAcrossKinds) {
  // Regression for the (distance, id) contract under heavy ties: many
  // items share identical codes, so whole runs of results differ only by
  // id.  Every kind (single-query and batch) must produce the exact same
  // canonically ordered list.
  IndexSet set = BuildIndexSet(32, 240, 11, 74, /*with_duplicates=*/true);
  constexpr uint32_t kRadius = 6;
  constexpr size_t kK = 25;
  ThreadPool pool(3);
  auto& reference = set.indexes[0];
  const auto expected_radius =
      DrainRadiusBatch(*reference, set.queries, kRadius);
  const auto expected_knn = DrainKnnBatch(*reference, set.queries, kK);
  for (size_t q = 0; q < set.queries.size(); ++q) {
    // The reference result itself must be (distance, id) sorted.
    EXPECT_TRUE(std::is_sorted(expected_radius[q].begin(),
                               expected_radius[q].end(), ResultLess))
        << "query " << q;
    EXPECT_TRUE(std::is_sorted(expected_knn[q].begin(), expected_knn[q].end(),
                               ResultLess))
        << "query " << q;
  }
  for (size_t i = 1; i < set.indexes.size(); ++i) {
    auto& idx = set.indexes[i];
    EXPECT_EQ(DrainRadiusBatch(*idx, set.queries, kRadius, &pool),
              expected_radius)
        << idx->Name();
    EXPECT_EQ(DrainKnnBatch(*idx, set.queries, kK, &pool), expected_knn)
        << idx->Name();
    for (size_t q = 0; q < set.queries.size(); ++q) {
      EXPECT_EQ(DrainRadius(*idx, set.queries[q], kRadius),
                expected_radius[q])
          << idx->Name() << " single-query radius, query " << q;
      EXPECT_EQ(DrainKnn(*idx, set.queries[q], kK), expected_knn[q])
          << idx->Name() << " single-query knn, query " << q;
    }
  }
}

TEST(BatchSearchTest, ConcurrentBatchesShareOnePool) {
  // Regression for per-call completion tracking: many batch calls
  // running concurrently on ONE shared query pool must each return
  // their own correct results (waiting on global pool quiescence would
  // couple and potentially starve them).
  IndexSet set = BuildIndexSet(64, 300, 16, 77);
  constexpr uint32_t kRadius = 8;
  auto& idx = set.indexes[0];  // LinearScan: sharded override
  const auto expected = DrainRadiusBatch(*idx, set.queries, kRadius);
  ThreadPool shared_pool(4);
  std::vector<std::thread> callers;
  std::vector<int> ok(6, 0);
  for (size_t c = 0; c < ok.size(); ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        if (DrainRadiusBatch(*idx, set.queries, kRadius, &shared_pool) !=
            expected) {
          return;  // leaves ok[c] == 0
        }
      }
      ok[c] = 1;
    });
  }
  for (auto& t : callers) t.join();
  for (size_t c = 0; c < ok.size(); ++c) {
    EXPECT_EQ(ok[c], 1) << "caller " << c;
  }
}

TEST(BatchSearchTest, DrainedStatsCountReturnedHits) {
  IndexSet set = BuildIndexSet(64, 200, 7, 75);
  constexpr uint32_t kRadius = 7;
  for (auto& idx : set.indexes) {
    const auto batch = DrainRadiusBatch(*idx, set.queries, kRadius);
    for (size_t q = 0; q < set.queries.size(); ++q) {
      SearchStats single;
      const auto hits =
          DrainRadius(*idx, set.queries[q], kRadius, nullptr, &single);
      EXPECT_EQ(hits, batch[q]) << idx->Name() << " query " << q;
      EXPECT_EQ(single.results, hits.size()) << idx->Name() << " query " << q;
      EXPECT_GE(single.candidates, hits.size())
          << idx->Name() << " query " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Product quantization
// ---------------------------------------------------------------------------

namespace {

/// Gaussian mixture in d dimensions: `clusters` centers, per-point noise.
Tensor ClusteredFloats(size_t n, size_t d, size_t clusters, float noise,
                       Rng* rng) {
  Tensor centers = Tensor::RandomNormal({clusters, d}, 3.0f, rng);
  Tensor out({n, d});
  for (size_t i = 0; i < n; ++i) {
    const size_t c = i % clusters;
    for (size_t j = 0; j < d; ++j) {
      out[i * d + j] =
          centers[c * d + j] + static_cast<float>(noise * rng->Normal());
    }
  }
  return out;
}

}  // namespace

TEST(ProductQuantizerTest, TrainRejectsBadConfigs) {
  Rng rng(41);
  Tensor data = Tensor::RandomNormal({300, 32}, 1.0f, &rng);
  ProductQuantizer::Config config;
  config.num_subspaces = 5;  // does not divide 32
  EXPECT_FALSE(ProductQuantizer::Train(data, config).ok());
  config.num_subspaces = 8;
  config.num_centroids = 300;  // > 256
  EXPECT_FALSE(ProductQuantizer::Train(data, config).ok());
  config.num_centroids = 256;  // n < K
  Tensor tiny = Tensor::RandomNormal({100, 32}, 1.0f, &rng);
  EXPECT_FALSE(ProductQuantizer::Train(tiny, config).ok());
}

TEST(ProductQuantizerTest, EncodeDecodeReducesError) {
  Rng rng(42);
  Tensor data = ClusteredFloats(2000, 32, 16, 0.15f, &rng);
  ProductQuantizer::Config config;
  config.num_subspaces = 4;
  config.num_centroids = 32;
  auto pq = ProductQuantizer::Train(data, config);
  ASSERT_TRUE(pq.ok());

  // Reconstruction must be far better than quantizing to the data mean
  // (a 1-centroid codebook): measure relative error on held-in rows.
  double err = 0.0, scale = 0.0;
  for (size_t i = 0; i < 100; ++i) {
    const Tensor row = data.Row(i * 17 % 2000);
    const Tensor rec = pq->Decode(pq->Encode(row));
    for (size_t j = 0; j < row.size(); ++j) {
      const double d = row[j] - rec[j];
      err += d * d;
      scale += row[j] * row[j];
    }
  }
  EXPECT_LT(err / scale, 0.05) << "relative quantization error too high";
}

TEST(ProductQuantizerTest, AdcMatchesExplicitDecode) {
  Rng rng(43);
  Tensor data = ClusteredFloats(600, 16, 8, 0.3f, &rng);
  ProductQuantizer::Config config;
  config.num_subspaces = 4;
  config.num_centroids = 16;
  auto pq = ProductQuantizer::Train(data, config);
  ASSERT_TRUE(pq.ok());
  const Tensor query = data.Row(5);
  const auto table = pq->BuildAdcTable(query);
  for (size_t i = 0; i < 20; ++i) {
    const auto code = pq->Encode(data.Row(i * 29 % 600));
    const Tensor rec = pq->Decode(code);
    float direct = 0.0f;
    for (size_t j = 0; j < query.size(); ++j) {
      const float d = query[j] - rec[j];
      direct += d * d;
    }
    EXPECT_NEAR(pq->AdcDistance(table, code), direct, 1e-3f) << i;
  }
}

TEST(PqIndexTest, KnnFindsTrueClusterNeighbours) {
  Rng rng(44);
  constexpr size_t kN = 3000, kD = 32, kClusters = 10;
  Tensor data = ClusteredFloats(kN, kD, kClusters, 0.1f, &rng);
  ProductQuantizer::Config config;
  config.num_subspaces = 8;
  config.num_centroids = 64;
  auto pq = ProductQuantizer::Train(data, config);
  ASSERT_TRUE(pq.ok());
  PqIndex index(std::move(pq).value());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(index.Add(i, data.Row(i)).ok());
  }
  // Query with cluster-0 points: the 10 nearest by ADC must be almost
  // entirely cluster-0 members (ids ≡ 0 mod kClusters).
  size_t correct = 0, total = 0;
  for (size_t q = 0; q < 10; ++q) {
    const auto hits = index.KnnSearch(data.Row(q * kClusters), 10);
    ASSERT_EQ(hits.size(), 10u);
    for (const auto& h : hits) {
      correct += (h.id % kClusters == 0);
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

TEST(PqIndexTest, RejectsWrongDimension) {
  Rng rng(45);
  Tensor data = Tensor::RandomNormal({300, 16}, 1.0f, &rng);
  ProductQuantizer::Config config;
  config.num_subspaces = 4;
  config.num_centroids = 16;
  auto pq = ProductQuantizer::Train(data, config);
  ASSERT_TRUE(pq.ok());
  PqIndex index(std::move(pq).value());
  Tensor wrong = Tensor::RandomNormal({8}, 1.0f, &rng);
  EXPECT_TRUE(index.Add(0, wrong).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Two-stage retrieval (Hamming shortlist -> float re-rank)
// ---------------------------------------------------------------------------

TEST(TwoStageTest, RerankingImprovesOverPureHamming) {
  Rng rng(46);
  constexpr size_t kN = 2000, kD = 32, kClusters = 8, kBits = 16;
  Tensor data = ClusteredFloats(kN, kD, kClusters, 0.2f, &rng);

  // A deliberately coarse binary sketch (16-bit LSH) so Hamming ranking
  // alone is noticeably lossy.
  milan::RandomHyperplaneLsh lsh(kD, kBits, /*seed=*/9);
  HammingHashTable table;
  TwoStageRetriever two_stage(&table, kD);
  FloatLinearScan exact(kD);
  for (size_t i = 0; i < kN; ++i) {
    const Tensor row = data.Row(i);
    ASSERT_TRUE(table.Add(i, lsh.Hash(row)).ok());
    two_stage.AddFeature(i, row);
    exact.Add(i, row);
  }

  size_t hamming_correct = 0, reranked_correct = 0, total = 0;
  for (size_t q = 0; q < 20; ++q) {
    const size_t qi = q * 31 % kN;
    const Tensor qf = data.Row(qi);
    const BinaryCode qc = lsh.Hash(qf);
    // Ground truth: exact float top-10.
    const auto truth = exact.KnnSearch(qf, 10);
    std::set<ItemId> truth_ids;
    for (const auto& t : truth) truth_ids.insert(t.id);

    const auto hamming_only = DrainKnn(table, qc, 10);
    for (const auto& h : hamming_only) {
      hamming_correct += truth_ids.count(h.id);
    }
    const auto reranked = two_stage.Search(qc, qf, 10, /*shortlist=*/200);
    ASSERT_LE(reranked.size(), 10u);
    for (const auto& h : reranked) reranked_correct += truth_ids.count(h.id);
    total += 10;
  }
  const double hamming_recall =
      static_cast<double>(hamming_correct) / static_cast<double>(total);
  const double reranked_recall =
      static_cast<double>(reranked_correct) / static_cast<double>(total);
  EXPECT_GT(reranked_recall, hamming_recall)
      << "re-ranking must improve recall@10";
  EXPECT_GT(reranked_recall, 0.7);
}

TEST(TwoStageTest, ShortlistOfEverythingEqualsExactSearch) {
  Rng rng(47);
  constexpr size_t kN = 500, kD = 16;
  Tensor data = ClusteredFloats(kN, kD, 5, 0.3f, &rng);
  milan::RandomHyperplaneLsh lsh(kD, 32, 11);
  HammingHashTable table;
  TwoStageRetriever two_stage(&table, kD);
  FloatLinearScan exact(kD);
  for (size_t i = 0; i < kN; ++i) {
    const Tensor row = data.Row(i);
    ASSERT_TRUE(table.Add(i, lsh.Hash(row)).ok());
    two_stage.AddFeature(i, row);
    exact.Add(i, row);
  }
  const Tensor qf = data.Row(3);
  const auto truth = exact.KnnSearch(qf, 5);
  const auto got = two_stage.Search(lsh.Hash(qf), qf, 5, /*shortlist=*/kN);
  ASSERT_EQ(got.size(), truth.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, truth[i].id) << i;
    EXPECT_FLOAT_EQ(got[i].distance, truth[i].distance) << i;
  }
}


// ---------------------------------------------------------------------------
// IVF-Flat
// ---------------------------------------------------------------------------

TEST(IvfFlatTest, TrainRejectsBadConfigs) {
  Rng rng(51);
  Tensor data = Tensor::RandomNormal({30, 16}, 1.0f, &rng);
  IvfFlatIndex::Config config;
  config.nlist = 64;  // more cells than training rows
  EXPECT_FALSE(IvfFlatIndex::Train(data, config).ok());
  config.nlist = 0;
  EXPECT_FALSE(IvfFlatIndex::Train(data, config).ok());
}

TEST(IvfFlatTest, FullProbeMatchesExactScan) {
  Rng rng(52);
  Tensor data = ClusteredFloats(800, 16, 6, 0.3f, &rng);
  IvfFlatIndex::Config config;
  config.nlist = 16;
  auto ivf = IvfFlatIndex::Train(data, config);
  ASSERT_TRUE(ivf.ok());
  FloatLinearScan exact(16);
  for (size_t i = 0; i < 800; ++i) {
    ASSERT_TRUE(ivf->Add(i, data.Row(i)).ok());
    exact.Add(i, data.Row(i));
  }
  for (size_t q = 0; q < 10; ++q) {
    const Tensor query = data.Row(q * 67 % 800);
    const auto truth = exact.KnnSearch(query, 8);
    const auto got = ivf->KnnSearch(query, 8, /*nprobe=*/16);
    ASSERT_EQ(got.size(), truth.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, truth[i].id) << "query " << q << " rank " << i;
    }
  }
}

TEST(IvfFlatTest, RecallRisesWithNprobe) {
  Rng rng(53);
  constexpr size_t kN = 4000, kD = 32;
  Tensor data = ClusteredFloats(kN, kD, 24, 0.25f, &rng);
  IvfFlatIndex::Config config;
  config.nlist = 48;
  auto ivf = IvfFlatIndex::Train(data, config);
  ASSERT_TRUE(ivf.ok());
  FloatLinearScan exact(kD);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(ivf->Add(i, data.Row(i)).ok());
    exact.Add(i, data.Row(i));
  }
  auto recall_at = [&](size_t nprobe) {
    size_t hit = 0, total = 0;
    for (size_t q = 0; q < 25; ++q) {
      const Tensor query = data.Row(q * 151 % kN);
      const auto truth = exact.KnnSearch(query, 10);
      std::set<ItemId> truth_ids;
      for (const auto& t : truth) truth_ids.insert(t.id);
      for (const auto& h : ivf->KnnSearch(query, 10, nprobe)) {
        hit += truth_ids.count(h.id);
      }
      total += truth.size();
    }
    return static_cast<double>(hit) / static_cast<double>(total);
  };
  const double r1 = recall_at(1);
  const double r4 = recall_at(4);
  const double r48 = recall_at(48);
  EXPECT_LE(r1, r4 + 1e-9);
  EXPECT_GT(r4, 0.5);
  EXPECT_DOUBLE_EQ(r48, 1.0);  // full probe == exact
  // Probing fewer cells must actually scan fewer candidates.
  const Tensor probe_query = data.Row(0);
  EXPECT_LT(ivf->CandidatesForProbe(probe_query, 4),
            ivf->CandidatesForProbe(probe_query, 48));
}

TEST(IvfFlatTest, BatchKnnMatchesSequential) {
  Rng rng(76);
  Tensor data = ClusteredFloats(600, 16, 6, 0.3f, &rng);
  IvfFlatIndex::Config config;
  config.nlist = 12;
  auto ivf = IvfFlatIndex::Train(data, config);
  ASSERT_TRUE(ivf.ok());
  for (size_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(ivf->Add(i, data.Row(i)).ok());
  }
  Tensor queries({8, 16});
  for (size_t q = 0; q < 8; ++q) queries.SetRow(q, data.Row(q * 71 % 600));
  ThreadPool pool(3);
  const auto batch = ivf->BatchKnnSearch(queries, 5, /*nprobe=*/4, &pool);
  ASSERT_EQ(batch.size(), 8u);
  for (size_t q = 0; q < 8; ++q) {
    const auto single = ivf->KnnSearch(queries.Row(q), 5, 4);
    ASSERT_EQ(batch[q].size(), single.size()) << "query " << q;
    for (size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batch[q][i].id, single[i].id) << "query " << q << " rank " << i;
      EXPECT_FLOAT_EQ(batch[q][i].distance, single[i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(IvfFlatTest, RejectsWrongDimension) {
  Rng rng(54);
  Tensor data = Tensor::RandomNormal({100, 8}, 1.0f, &rng);
  IvfFlatIndex::Config config;
  config.nlist = 4;
  auto ivf = IvfFlatIndex::Train(data, config);
  ASSERT_TRUE(ivf.ok());
  Tensor wrong = Tensor::RandomNormal({16}, 1.0f, &rng);
  EXPECT_TRUE(ivf->Add(0, wrong).IsInvalidArgument());
}

}  // namespace
}  // namespace agoraeo::index
