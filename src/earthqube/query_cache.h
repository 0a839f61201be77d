#ifndef AGORAEO_EARTHQUBE_QUERY_CACHE_H_
#define AGORAEO_EARTHQUBE_QUERY_CACHE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

#include "cache/cache_stats.h"
#include "cache/epoch.h"
#include "cache/sharded_lru_cache.h"
#include "docstore/collection.h"
#include "earthqube/query_request.h"
#include "earthqube/statistics.h"
#include "index/hamming_index.h"

namespace agoraeo::earthqube {

/// Knobs of EarthQube's query-path caches (EarthQubeConfig::cache).
struct QueryCacheConfig {
  /// Response cache: whole QueryResponses keyed by a canonical request
  /// fingerprint (CBIR-only and hybrid requests; paging-aware).
  bool enable_response_cache = true;
  /// Allowlist cache: one FilterMatchSet per panel filter, keyed by the
  /// panel-filter fingerprint and shared by panel requests and the
  /// hybrid pre-filter leg, so a repeated panel builds only its page and
  /// a repeated pre-filter hybrid skips the docstore filter pass.
  bool enable_allowlist_cache = true;
  /// Negative cache: NotFound similarity subjects (bad archive names)
  /// are remembered under a short TTL so repeated bad lookups don't
  /// touch the docstore or index.  Counted separately in the stats.
  bool enable_negative_cache = true;
  size_t response_capacity_bytes = 64u << 20;
  /// Age limit for negative entries.  Deliberately short: the epoch
  /// catches ingests through this facade, the TTL bounds how long a
  /// name that appeared through any other path keeps "not existing".
  std::chrono::milliseconds negative_ttl{2000};
  /// Time source for TTL bookkeeping across all three caches; tests
  /// inject a fake clock to avoid sleeping.  Null = steady_clock.
  std::function<std::chrono::steady_clock::time_point()> clock;
};

/// One panel filter's matches, the allowlist cache's entry: panel
/// requests and the hybrid pre-filter leg share it.  `ids` holds every
/// match's DocId in DocId order (ingest order), so any page of a panel
/// is direct access into it; `filter_stats` are the docstore stats of
/// the filter pass that found them, replayed on a hit so a cached answer
/// stays byte-identical to an uncached one.  The panel's label counts
/// and the Hamming-index allowlist are derived from the ids on first
/// demand, each at most once, so neither consumer pays for the other's.
struct FilterMatchSet {
  std::vector<docstore::DocId> ids;
  docstore::QueryStats filter_stats;
  /// Guards the two derived members below.
  mutable std::mutex mu;
  mutable std::optional<LabelStatistics::LabelCounts> label_counts;
  mutable std::optional<index::CandidateSet> candidates;
};

/// EarthQube's query-cache subsystem: a response cache, an allowlist
/// (filter match set) cache and a negative cache over one shared
/// EpochValidator.  Any archive mutation bumps the epoch, lazily
/// invalidating every entry of all three without a sweep.  Thread-safe;
/// Get/Put may race with Invalidate freely.
class QueryCache {
 public:
  explicit QueryCache(const QueryCacheConfig& config);

  /// Canonical fingerprint of a panel query's filter semantics.
  /// `include_limit` distinguishes a limited pass (the response cache,
  /// and a panel with a nonzero limit, whose match set is a prefix with
  /// its own docs_examined) from the unlimited match set that unlimited
  /// panels and the hybrid pre-filter leg share.
  static std::string PanelFingerprint(const EarthQubeQuery& query,
                                      bool include_limit = true);

  /// Canonical fingerprint of a full request, covering the panel, the
  /// similarity spec, projection, planner mode and paging — requests
  /// with equal fingerprints produce byte-identical responses.
  /// nullopt for uploaded-patch subjects (hashing raw pixels would cost
  /// as much as the inference the cache is meant to skip).
  static std::optional<std::string> RequestFingerprint(
      const QueryRequest& request);

  /// Byte estimate of a response's heap footprint, for cache accounting.
  static size_t ApproxResponseBytes(const QueryResponse& response);

  // --- response cache ------------------------------------------------------
  //
  // Both Puts take the epoch snapshotted BEFORE the value was computed
  // (see ShardedLruCache::Put): a mutation racing the execution then
  // leaves the entry stale instead of serving pre-mutation data as
  // fresh.

  /// Returns the cached response (served_from_cache still false — the
  /// caller copies and flags it), or null on miss / cache disabled.
  std::shared_ptr<const QueryResponse> GetResponse(
      const std::string& fingerprint);
  /// Returns whether the response was admitted (false when the cache is
  /// disabled or the entry exceeds a shard's budget) — the engine's
  /// flight pre-warm counters hang off this.
  bool PutResponse(const std::string& fingerprint,
                   const QueryResponse& response, uint64_t computed_at_epoch);

  // --- allowlist (filter match set) cache ---------------------------------

  std::shared_ptr<const FilterMatchSet> GetMatchSet(
      const std::string& fingerprint);
  /// Charged for its ids and the largest allowlist they can derive.
  void PutMatchSet(const std::string& fingerprint,
                   std::shared_ptr<const FilterMatchSet> matches,
                   uint64_t computed_at_epoch);

  // --- negative cache ------------------------------------------------------

  /// Returns the remembered NotFound for a request fingerprint, or
  /// nullopt on miss / cache disabled.
  std::optional<Status> GetNegative(const std::string& fingerprint);
  /// Remembers a NotFound outcome (non-NotFound statuses are ignored).
  void PutNegative(const std::string& fingerprint, const Status& status,
                   uint64_t computed_at_epoch);

  // --- invalidation & introspection ---------------------------------------

  /// Bumps the shared epoch: every currently cached entry of every cache
  /// becomes stale and is dropped lazily on its next access.
  void Invalidate() { epoch_.Bump(); }
  uint64_t epoch() const { return epoch_.Current(); }

  cache::CacheStats ResponseStats() const { return responses_.Stats(); }
  cache::CacheStats AllowlistStats() const { return allowlists_.Stats(); }
  cache::CacheStats NegativeStats() const { return negatives_.Stats(); }

 private:
  QueryCacheConfig config_;
  cache::EpochValidator epoch_;
  /// Values are shared_ptr so a hit hands out a reference instead of
  /// deep-copying a potentially large response under the shard mutex.
  cache::ShardedLruCache<std::string, std::shared_ptr<const QueryResponse>>
      responses_;
  cache::ShardedLruCache<std::string, std::shared_ptr<const FilterMatchSet>>
      allowlists_;
  cache::ShardedLruCache<std::string, Status> negatives_;
};

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_QUERY_CACHE_H_
