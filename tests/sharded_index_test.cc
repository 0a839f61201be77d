#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "index/hamming_table.h"
#include "index/linear_scan.h"
#include "index/sharded_index.h"
#include "frontier_test_util.h"

namespace agoraeo::index {
namespace {

BinaryCode RandomCode(size_t bits, Rng* rng) {
  BinaryCode code(bits);
  for (size_t i = 0; i < bits; ++i) code.SetBit(i, rng->Bernoulli(0.5));
  return code;
}

enum class Kind { kHashTable, kMultiIndex, kLinearScan };

const Kind kAllKinds[] = {Kind::kHashTable, Kind::kMultiIndex,
                          Kind::kLinearScan};

std::unique_ptr<HammingIndex> MakeKind(Kind kind) {
  switch (kind) {
    case Kind::kHashTable:
      return std::make_unique<HammingHashTable>();
    case Kind::kMultiIndex:
      return std::make_unique<MultiIndexHashing>(4);
    case Kind::kLinearScan:
      return std::make_unique<LinearScanIndex>();
  }
  return nullptr;
}

/// A plain index and sharded wrappers over the same kind, loaded with
/// identical items: the parity fixture.
struct ParityFixture {
  std::unique_ptr<HammingIndex> plain;
  std::vector<std::unique_ptr<ShardedHammingIndex>> sharded;  // 1, 3, 8
  std::vector<BinaryCode> codes;
  std::vector<BinaryCode> queries;
  CandidateSet allowed;

  ParityFixture(Kind kind, size_t num_items, size_t bits, uint64_t seed) {
    Rng rng(seed);
    plain = MakeKind(kind);
    for (size_t shards : {1u, 3u, 8u}) {
      sharded.push_back(std::make_unique<ShardedHammingIndex>(
          shards, [kind] { return MakeKind(kind); }));
    }
    codes.reserve(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      codes.push_back(RandomCode(bits, &rng));
      if (!plain->Add(i, codes.back()).ok()) std::abort();
      for (auto& idx : sharded) {
        if (!idx->Add(i, codes.back()).ok()) std::abort();
      }
    }
    for (size_t q = 0; q < 12; ++q) {
      queries.push_back(RandomCode(bits, &rng));
    }
    std::vector<ItemId> subset;
    for (size_t i = 0; i < num_items; ++i) {
      if (rng.Bernoulli(0.35)) subset.push_back(i);
    }
    allowed = CandidateSet(std::move(subset));
  }
};

// ---------------------------------------------------------------------------
// Sharded-vs-unsharded parity: every search flavour, every index kind,
// shard counts 1, 3 and 8
// ---------------------------------------------------------------------------

TEST(ShardedIndexTest, SingleQueryParityAllKinds) {
  for (Kind kind : kAllKinds) {
    ParityFixture f(kind, 300, 64, 11);
    for (const auto& idx : f.sharded) {
      ASSERT_EQ(idx->size(), f.plain->size());
      for (const BinaryCode& q : f.queries) {
        EXPECT_EQ(DrainRadius(*idx, q, 12), DrainRadius(*f.plain, q, 12));
        EXPECT_EQ(DrainKnn(*idx, q, 9), DrainKnn(*f.plain, q, 9));
        EXPECT_EQ(DrainRadius(*idx, q, 14, &f.allowed),
                  DrainRadius(*f.plain, q, 14, &f.allowed));
        EXPECT_EQ(DrainKnn(*idx, q, 7, &f.allowed),
                  DrainKnn(*f.plain, q, 7, &f.allowed));
      }
    }
  }
}

TEST(ShardedIndexTest, BatchParityAllKindsPooledAndSequential) {
  ThreadPool pool(4);
  for (Kind kind : kAllKinds) {
    ParityFixture f(kind, 250, 64, 23);
    const auto want_radius = DrainRadiusBatch(*f.plain, f.queries, 12);
    const auto want_knn = DrainKnnBatch(*f.plain, f.queries, 8);
    const auto want_radius_in =
        DrainRadiusBatch(*f.plain, f.queries, 14, nullptr, &f.allowed);
    const auto want_knn_in = DrainKnnBatch(*f.plain, f.queries, 6, nullptr, &f.allowed);
    for (const auto& idx : f.sharded) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        EXPECT_EQ(DrainRadiusBatch(*idx, f.queries, 12, p), want_radius);
        EXPECT_EQ(DrainKnnBatch(*idx, f.queries, 8, p), want_knn);
        EXPECT_EQ(DrainRadiusBatch(*idx, f.queries, 14, p, &f.allowed),
                  want_radius_in);
        EXPECT_EQ(DrainKnnBatch(*idx, f.queries, 6, p, &f.allowed),
                  want_knn_in);
      }
    }
  }
}

TEST(ShardedIndexTest, BatchAddParityAndParallelIngest) {
  ThreadPool pool(4);
  Rng rng(31);
  std::vector<ItemId> ids;
  std::vector<BinaryCode> codes;
  for (size_t i = 0; i < 400; ++i) {
    ids.push_back(i);
    codes.push_back(RandomCode(64, &rng));
  }
  auto plain = MakeKind(Kind::kLinearScan);
  ASSERT_TRUE(plain->BatchAdd(ids, codes).ok());
  ShardedHammingIndex sharded(
      5, [] { return MakeKind(Kind::kLinearScan); });
  ASSERT_TRUE(sharded.BatchAdd(ids, codes, &pool).ok());
  ASSERT_EQ(sharded.size(), plain->size());
  for (size_t q = 0; q < 8; ++q) {
    const BinaryCode query = RandomCode(64, &rng);
    EXPECT_EQ(DrainRadius(sharded, query, 14), DrainRadius(*plain, query, 14));
  }
  // Every item routed to exactly one shard; sizes sum to the total.
  const ShardedIndexStats stats = sharded.Stats();
  ASSERT_EQ(stats.shard_sizes.size(), 5u);
  size_t total = 0;
  for (size_t s = 0; s < stats.shard_sizes.size(); ++s) {
    total += stats.shard_sizes[s];
  }
  EXPECT_EQ(total, ids.size());
}

TEST(ShardedIndexTest, BatchAddLengthMismatchRejected) {
  ShardedHammingIndex sharded(3, [] { return MakeKind(Kind::kHashTable); });
  Rng rng(5);
  EXPECT_TRUE(sharded
                  .BatchAdd({0, 1}, {RandomCode(32, &rng)},
                            /*pool=*/nullptr)
                  .IsInvalidArgument());
}

TEST(ShardedIndexTest, MixedCodeLengthsRejectedAcrossShards) {
  // The second code routes to a different (still empty) shard — the
  // partition layer must still enforce the monolithic one-length
  // contract instead of letting that shard anchor its own length.
  ShardedHammingIndex sharded(8, [] { return MakeKind(Kind::kHashTable); });
  Rng rng(13);
  ASSERT_TRUE(sharded.Add(0, RandomCode(32, &rng)).ok());
  for (ItemId id = 1; id < 16; ++id) {
    EXPECT_TRUE(sharded.Add(id, RandomCode(64, &rng)).IsInvalidArgument())
        << id;
  }
  // A batch with one bad slot is rejected whole, nothing ingested.
  EXPECT_TRUE(sharded
                  .BatchAdd({20, 21},
                            {RandomCode(32, &rng), RandomCode(64, &rng)},
                            /*pool=*/nullptr)
                  .IsInvalidArgument());
  EXPECT_EQ(sharded.size(), 1u);
}

TEST(ShardedIndexTest, RoutingIsIdStableAndBalanced) {
  // Stability: the same id always routes to the same shard.
  for (ItemId id = 0; id < 100; ++id) {
    EXPECT_EQ(ShardedHammingIndex::ShardOf(id, 8),
              ShardedHammingIndex::ShardOf(id, 8));
    EXPECT_EQ(ShardedHammingIndex::ShardOf(id, 1), 0u);
  }
  // Balance: sequential ids spread over shards instead of clumping
  // (each shard within 2x of the ideal eighth for 4k sequential ids).
  std::vector<size_t> counts(8, 0);
  const size_t n = 4096;
  for (ItemId id = 0; id < n; ++id) {
    ++counts[ShardedHammingIndex::ShardOf(id, 8)];
  }
  for (size_t c : counts) {
    EXPECT_GT(c, n / 16);
    EXPECT_LT(c, n / 4);
  }
}

TEST(ShardedIndexTest, StatsCountFanoutsAndName) {
  ThreadPool pool(4);
  ParityFixture f(Kind::kHashTable, 100, 64, 47);
  ShardedHammingIndex& idx = *f.sharded[1];  // 3 shards
  EXPECT_EQ(idx.num_shards(), 3u);
  EXPECT_EQ(idx.Name(), "sharded(HammingHashTable, 3)");

  const ShardedIndexStats before = idx.Stats();
  (void)DrainRadiusBatch(idx, f.queries, 10, &pool);
  (void)DrainRadius(idx, f.queries[0], 10);
  const ShardedIndexStats after = idx.Stats();
  EXPECT_EQ(after.batch_fanouts, before.batch_fanouts + 1);
  EXPECT_EQ(after.fanout_tasks, before.fanout_tasks + 3);
  EXPECT_EQ(after.single_fanouts, before.single_fanouts + 1);
}

TEST(ShardedIndexTest, StatsAggregateAcrossShards) {
  ParityFixture f(Kind::kLinearScan, 200, 64, 53);
  SearchStats plain_stats, sharded_stats;
  (void)DrainRadius(*f.plain, f.queries[0], 12, nullptr, &plain_stats);
  (void)DrainRadius(*f.sharded[2], f.queries[0], 12, nullptr, &sharded_stats);
  // The linear scan evaluates every item exactly once whether the items
  // live in one partition or eight.
  EXPECT_EQ(sharded_stats.candidates, plain_stats.candidates);
  EXPECT_EQ(sharded_stats.results, plain_stats.results);
}

// ---------------------------------------------------------------------------
// Concurrency: ingest and query the partitioned index from 8 threads
// (runs under TSan in CI — the name matches the index_test regex)
// ---------------------------------------------------------------------------

TEST(ShardedIndexTest, ConcurrentIngestQueryHammer) {
  ShardedHammingIndex idx(4, [] { return MakeKind(Kind::kHashTable); });
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 4;
  constexpr size_t kPerWriter = 250;

  // Seed a few items so early readers have something to find.
  Rng seed_rng(71);
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(idx.Add(1'000'000 + i, RandomCode(64, &seed_rng)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> write_errors{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([w, &idx, &write_errors] {
      Rng rng(100 + w);
      for (size_t i = 0; i < kPerWriter; ++i) {
        const ItemId id = w * kPerWriter + i;
        if (!idx.Add(id, RandomCode(64, &rng)).ok()) {
          write_errors.fetch_add(1);
        }
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([r, &idx, &stop] {
      Rng rng(200 + r);
      while (!stop.load()) {
        const BinaryCode query = RandomCode(64, &rng);
        const auto radius_hits = DrainRadius(idx, query, 20);
        for (size_t i = 1; i < radius_hits.size(); ++i) {
          ASSERT_TRUE(ResultLess(radius_hits[i - 1], radius_hits[i]));
        }
        const auto knn_hits = DrainKnn(idx, query, 5);
        ASSERT_LE(knn_hits.size(), 5u);
        (void)idx.size();
      }
    });
  }
  for (size_t w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (size_t r = 0; r < kReaders; ++r) threads[kWriters + r].join();

  EXPECT_EQ(write_errors.load(), 0u);
  EXPECT_EQ(idx.size(), kWriters * kPerWriter + 16);
}

}  // namespace
}  // namespace agoraeo::index
