#ifndef AGORAEO_CACHE_SHARDED_LRU_CACHE_H_
#define AGORAEO_CACHE_SHARDED_LRU_CACHE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache_stats.h"
#include "cache/epoch.h"

namespace agoraeo::cache {

/// Configuration of a ShardedLruCache.
struct ShardedLruCacheOptions {
  /// Total byte budget, split evenly across shards.  An item larger than
  /// one shard's budget is never admitted.
  size_t capacity_bytes = 64u << 20;
  /// Number of independent mutex-guarded shards; rounded up to a power
  /// of two so shard selection is a mask.  More shards = less contention.
  size_t num_shards = 16;
  /// Entries older than this are dropped on access; zero disables aging.
  std::chrono::milliseconds ttl{0};
  /// When set, entries recorded under an older epoch are dropped on
  /// access (see EpochValidator).  Not owned; must outlive the cache.
  const EpochValidator* validator = nullptr;
  /// Time source for TTL bookkeeping; tests inject a fake clock to avoid
  /// sleeping.  Null uses std::chrono::steady_clock.
  std::function<std::chrono::steady_clock::time_point()> clock;
};

/// A thread-safe, sharded, byte-accounted LRU cache.
///
/// Keys hash onto one of N shards; each shard holds its own mutex, LRU
/// list and hash map, so concurrent lookups of different keys rarely
/// contend.  Every entry carries an explicit byte size (the caller
/// measures its own values); shards evict least-recently-used entries
/// whenever their share of the byte budget overflows.  Optional TTL and
/// epoch validation both invalidate lazily: entries are checked when
/// touched, never swept.
///
/// Get returns a copy of the stored value — entries may be evicted by
/// another thread the moment the shard lock is released, so references
/// into the cache are never exposed.  Cache large values as
/// std::shared_ptr<const V> to make that copy cheap.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  explicit ShardedLruCache(ShardedLruCacheOptions options)
      : options_(std::move(options)) {
    size_t shards = 1;
    while (shards < options_.num_shards) shards <<= 1;
    shard_mask_ = shards - 1;
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    per_shard_capacity_ = options_.capacity_bytes / shards;
  }

  /// Looks a key up, refreshing its LRU position.  Stale (old-epoch) and
  /// expired (TTL) entries are dropped and reported as misses.
  std::optional<Value> Get(const Key& key) {
    return GetIf(key, [](const Value&) { return true; });
  }

  /// Get for a lookup that only some values can answer: a live entry
  /// `usable(value)` rejects is reported as a miss and stays cached
  /// (the caller typically replaces it).  `usable` runs under the shard
  /// lock.
  template <typename Usable>
  std::optional<Value> GetIf(const Key& key, Usable usable) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    if (options_.validator != nullptr &&
        it->second->epoch != options_.validator->Current()) {
      ++shard.stats.stale_drops;
      ++shard.stats.misses;
      RemoveLocked(shard, it);
      return std::nullopt;
    }
    if (options_.ttl.count() > 0 && Now() >= it->second->expiry) {
      ++shard.stats.expired_drops;
      ++shard.stats.misses;
      RemoveLocked(shard, it);
      return std::nullopt;
    }
    if (!usable(std::as_const(it->second->value))) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.stats.hits;
    return it->second->value;
  }

  /// Inserts or replaces an entry accounted at `size_bytes`; returns
  /// whether the entry was admitted.  Values larger than one shard's
  /// byte budget are not admitted (the cache stays a cache, not an
  /// accidental copy of the whole result set); a rejected Put leaves any
  /// existing entry for the key untouched and does not count as a put.
  ///
  /// `computed_at_epoch` is the epoch the value was derived under —
  /// callers MUST snapshot validator->Current() BEFORE reading the
  /// source data, not at insertion time: a mutation that lands between
  /// the read and the Put bumps the epoch, and an entry stamped with
  /// the later epoch would serve pre-mutation data as fresh forever.
  /// With the early snapshot such an entry is simply stale on its first
  /// Get.  Ignored when no validator is configured; nullopt stamps the
  /// current epoch (only correct when no mutation can race this Put).
  bool Put(const Key& key, Value value, size_t size_bytes,
           std::optional<uint64_t> computed_at_epoch = std::nullopt) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (size_bytes > per_shard_capacity_) {
      // Counted so a misconfigured cache (budget below typical value
      // size) is distinguishable from one that sees no repeat traffic.
      ++shard.stats.rejected_puts;
      return false;
    }
    ++shard.stats.puts;
    auto it = shard.map.find(key);
    if (it != shard.map.end()) RemoveLocked(shard, it);
    Entry entry;
    entry.key = key;
    entry.value = std::move(value);
    entry.bytes = size_bytes;
    if (options_.validator != nullptr) {
      entry.epoch = computed_at_epoch.has_value()
                        ? *computed_at_epoch
                        : options_.validator->Current();
    }
    if (options_.ttl.count() > 0) entry.expiry = Now() + options_.ttl;
    shard.lru.push_front(std::move(entry));
    shard.map.emplace(key, shard.lru.begin());
    shard.bytes += size_bytes;
    while (shard.bytes > per_shard_capacity_) {
      auto victim = shard.map.find(shard.lru.back().key);
      RemoveLocked(shard, victim);
      ++shard.stats.evictions;
    }
    return true;
  }

  /// Removes one key; returns whether it was present.
  bool Erase(const Key& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) return false;
    RemoveLocked(shard, it);
    return true;
  }

  /// Drops every entry (lifetime counters are kept).
  void Clear() {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      shard->lru.clear();
      shard->map.clear();
      shard->bytes = 0;
    }
  }

  /// Current entry count across shards.
  size_t size() const {
    size_t n = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      n += shard->map.size();
    }
    return n;
  }

  /// Aggregated counters and occupancy.
  CacheStats Stats() const {
    CacheStats out;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      out += shard->stats;
      out.entries += shard->map.size();
      out.bytes += shard->bytes;
    }
    out.capacity_bytes = options_.capacity_bytes;
    return out;
  }

  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t bytes = 0;
    uint64_t epoch = 0;
    std::chrono::steady_clock::time_point expiry{};
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> map;
    size_t bytes = 0;
    CacheStats stats;  ///< counters only; occupancy is derived
  };

  Shard& ShardFor(const Key& key) {
    // Mix the hash so std::hash's identity-like output for integers
    // still spreads across shards.
    uint64_t h = static_cast<uint64_t>(Hash{}(key));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return *shards_[h & shard_mask_];
  }

  std::chrono::steady_clock::time_point Now() const {
    return options_.clock ? options_.clock()
                          : std::chrono::steady_clock::now();
  }

  void RemoveLocked(Shard& shard,
                    typename decltype(Shard::map)::iterator it) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }

  ShardedLruCacheOptions options_;
  size_t shard_mask_ = 0;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< Shard holds a mutex
};

}  // namespace agoraeo::cache

#endif  // AGORAEO_CACHE_SHARDED_LRU_CACHE_H_
