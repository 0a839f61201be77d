#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cache/epoch.h"
#include "cache/sharded_lru_cache.h"

namespace agoraeo::cache {
namespace {

using namespace std::chrono_literals;

ShardedLruCacheOptions SmallOptions(size_t capacity_bytes,
                                    size_t num_shards = 1) {
  ShardedLruCacheOptions options;
  options.capacity_bytes = capacity_bytes;
  options.num_shards = num_shards;
  return options;
}

TEST(ShardedLruCache, GetMissThenHit) {
  ShardedLruCache<std::string, int> cache(SmallOptions(1024));
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", 1, 8);
  auto hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 8u);
  EXPECT_EQ(stats.capacity_bytes, 1024u);
}

TEST(ShardedLruCache, GetIfCountsARejectedEntryAsAMissAndKeepsIt) {
  ShardedLruCache<std::string, int> cache(SmallOptions(1024));
  cache.Put("a", 3, 8);
  EXPECT_FALSE(cache.GetIf("a", [](int v) { return v > 5; }).has_value());
  EXPECT_EQ(cache.Stats().hits, 0u);
  EXPECT_EQ(cache.Stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.GetIf("a", [](int v) { return v == 3; });
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 3);
  EXPECT_EQ(cache.Stats().hits, 1u);
}

TEST(ShardedLruCache, PutReplacesExistingKey) {
  ShardedLruCache<std::string, int> cache(SmallOptions(1024));
  cache.Put("a", 1, 8);
  cache.Put("a", 2, 16);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get("a"), 2);
  EXPECT_EQ(cache.Stats().bytes, 16u);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsedOnByteOverflow) {
  // One shard with room for three 10-byte entries.
  ShardedLruCache<std::string, int> cache(SmallOptions(30));
  cache.Put("a", 1, 10);
  cache.Put("b", 2, 10);
  cache.Put("c", 3, 10);
  // Touch "a" so "b" is now the least recently used.
  EXPECT_TRUE(cache.Get("a").has_value());
  cache.Put("d", 4, 10);
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_TRUE(cache.Get("d").has_value());
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_LE(cache.Stats().bytes, 30u);
}

TEST(ShardedLruCache, OversizedValueIsNotAdmitted) {
  ShardedLruCache<std::string, int> cache(SmallOptions(100, /*num_shards=*/4));
  // Per-shard budget is 25 bytes; a 40-byte value must not be admitted,
  // must leave any existing entry alone, and must be counted as a
  // rejection (not a put) so misconfiguration is observable.
  cache.Put("big", 1, 40);
  EXPECT_FALSE(cache.Get("big").has_value());
  cache.Put("key", 7, 10);
  cache.Put("key", 8, 40);  // grown past the budget: rejected, old kept
  EXPECT_EQ(*cache.Get("key"), 7);
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.rejected_puts, 2u);
}

TEST(ShardedLruCache, EraseAndClear) {
  ShardedLruCache<std::string, int> cache(SmallOptions(1024));
  cache.Put("a", 1, 8);
  cache.Put("b", 2, 8);
  EXPECT_TRUE(cache.Erase("a"));
  EXPECT_FALSE(cache.Erase("a"));
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Stats().bytes, 0u);
}

TEST(ShardedLruCache, EpochBumpInvalidatesLazily) {
  EpochValidator epoch;
  ShardedLruCacheOptions options = SmallOptions(1024);
  options.validator = &epoch;
  ShardedLruCache<std::string, int> cache(options);
  cache.Put("a", 1, 8);
  EXPECT_TRUE(cache.Get("a").has_value());
  epoch.Bump();
  // The entry is still resident but must be treated as a miss and
  // dropped on this access.
  EXPECT_FALSE(cache.Get("a").has_value());
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.stale_drops, 1u);
  EXPECT_EQ(stats.entries, 0u);
  // A post-bump Put is valid under the new epoch.
  cache.Put("a", 2, 8);
  EXPECT_EQ(*cache.Get("a"), 2);
}

TEST(ShardedLruCache, TtlExpiresEntriesViaInjectedClock) {
  auto now = std::make_shared<std::chrono::steady_clock::time_point>(
      std::chrono::steady_clock::now());
  ShardedLruCacheOptions options = SmallOptions(1024);
  options.ttl = 100ms;
  options.clock = [now] { return *now; };
  ShardedLruCache<std::string, int> cache(options);
  cache.Put("a", 1, 8);
  *now += 50ms;
  EXPECT_TRUE(cache.Get("a").has_value());
  *now += 60ms;
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.Stats().expired_drops, 1u);
}

TEST(ShardedLruCache, ShardCountRoundsUpToPowerOfTwo) {
  ShardedLruCache<int, int> cache(SmallOptions(1024, /*num_shards=*/5));
  EXPECT_EQ(cache.num_shards(), 8u);
}

TEST(ShardedLruCache, IntegerKeysSpreadAcrossShards) {
  // std::hash<int> is identity-like; the shard mixer must still spread
  // consecutive keys instead of pinning them to one shard.
  ShardedLruCache<int, int> cache(SmallOptions(1u << 20, /*num_shards=*/8));
  for (int i = 0; i < 256; ++i) cache.Put(i, i, 16);
  EXPECT_EQ(cache.size(), 256u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
}

TEST(ShardedLruCache, ConcurrentMixedAccessWithEpochBumps) {
  // N threads hammer Get/Put on overlapping keys while another thread
  // bumps the epoch; run under -DAGORAEO_SANITIZE=thread in CI.
  EpochValidator epoch;
  ShardedLruCacheOptions options;
  options.capacity_bytes = 1u << 16;
  options.num_shards = 8;
  options.validator = &epoch;
  ShardedLruCache<int, std::string> cache(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 128;
  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int key = (t * 31 + i) % kKeySpace;
        if (i % 3 == 0) {
          cache.Put(key, "value-" + std::to_string(key), 64);
        } else if (auto hit = cache.Get(key)) {
          // A hit must always observe a complete value for its key.
          ASSERT_EQ(*hit, "value-" + std::to_string(key));
          observed_hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  workers.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      epoch.Bump();
      std::this_thread::yield();
    }
  });
  for (std::thread& w : workers) w.join();

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, observed_hits.load());
  EXPECT_LE(stats.bytes, options.capacity_bytes);
  // Every non-Put op is exactly one Get (= one hit or one miss).
  constexpr uint64_t kGetsPerThread =
      kOpsPerThread - (kOpsPerThread + 2) / 3;
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kGetsPerThread);
}

}  // namespace
}  // namespace agoraeo::cache
