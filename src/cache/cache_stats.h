#ifndef AGORAEO_CACHE_CACHE_STATS_H_
#define AGORAEO_CACHE_CACHE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace agoraeo::cache {

/// Counters describing one cache's lifetime activity and current
/// occupancy.  Per-shard counters are aggregated into one of these by
/// ShardedLruCache::Stats().
struct CacheStats {
  // Lifetime counters.
  uint64_t hits = 0;
  uint64_t misses = 0;       ///< includes stale and expired drops
  uint64_t puts = 0;         ///< admitted inserts/replacements only
  uint64_t rejected_puts = 0;  ///< values larger than one shard's budget
  uint64_t evictions = 0;    ///< capacity-driven LRU evictions
  uint64_t stale_drops = 0;  ///< entries dropped by epoch mismatch on Get
  uint64_t expired_drops = 0;  ///< entries dropped by TTL expiry on Get

  // Current occupancy.
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t capacity_bytes = 0;

  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    puts += o.puts;
    rejected_puts += o.rejected_puts;
    evictions += o.evictions;
    stale_drops += o.stale_drops;
    expired_drops += o.expired_drops;
    entries += o.entries;
    bytes += o.bytes;
    capacity_bytes += o.capacity_bytes;
    return *this;
  }
};

/// Appends one cache's scrape-time sample family,
/// `agoraeo_cache_<field>{cache="<name>"}` — the one definition of the
/// per-cache metric names, shared by EarthQube's query caches and the
/// coordinator's merged-ranking cache.
inline void AppendCacheSamples(const std::string& name, const CacheStats& s,
                               std::vector<obs::Sample>* out) {
  const auto named = [&](const char* base) {
    return obs::LabeledName(base, "cache", name);
  };
  obs::PushCounter(out, named("agoraeo_cache_hits_total"), s.hits);
  obs::PushCounter(out, named("agoraeo_cache_misses_total"), s.misses);
  obs::PushCounter(out, named("agoraeo_cache_puts_total"), s.puts);
  obs::PushCounter(out, named("agoraeo_cache_rejected_puts_total"),
                   s.rejected_puts);
  obs::PushCounter(out, named("agoraeo_cache_evictions_total"), s.evictions);
  obs::PushCounter(out, named("agoraeo_cache_stale_drops_total"),
                   s.stale_drops);
  obs::PushCounter(out, named("agoraeo_cache_expired_drops_total"),
                   s.expired_drops);
  obs::PushGauge(out, named("agoraeo_cache_entries"),
                 static_cast<double>(s.entries));
  obs::PushGauge(out, named("agoraeo_cache_bytes"),
                 static_cast<double>(s.bytes));
  obs::PushGauge(out, named("agoraeo_cache_capacity_bytes"),
                 static_cast<double>(s.capacity_bytes));
}

}  // namespace agoraeo::cache

#endif  // AGORAEO_CACHE_CACHE_STATS_H_
