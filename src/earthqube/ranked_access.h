#ifndef AGORAEO_EARTHQUBE_RANKED_ACCESS_H_
#define AGORAEO_EARTHQUBE_RANKED_ACCESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "docstore/filter.h"
#include "earthqube/cbir_service.h"
#include "index/hamming_index.h"

namespace agoraeo::earthqube {

/// Knobs of the ranked direct-access registry (EarthQubeConfig::ranked):
/// resumable top-k cursors over lazily streamed shard frontiers.
struct RankedAccessConfig {
  /// Max live query handles; the least recently touched one is evicted
  /// past this (its next page transparently falls back to re-execution).
  size_t handle_capacity = 256;
  /// Byte budget across every handle's buffered survivors.
  size_t handle_max_bytes = 32u << 20;
  /// Age limit since last touch; zero keeps handles until eviction.
  std::chrono::milliseconds handle_ttl{60000};
  /// Time source for TTL bookkeeping; tests inject a fake clock to
  /// avoid sleeping.  Null = steady_clock.
  std::function<std::chrono::steady_clock::time_point()> clock;
};

/// Counters of the registry (the cursor_resume_total and
/// ranked_handles metric families read these).
struct RankedAccessStats {
  uint64_t hits = 0;         ///< resumes served from a live handle
  uint64_t misses = 0;       ///< no handle resident (fresh or fallen back)
  uint64_t expired = 0;      ///< handle dropped on TTL expiry
  uint64_t epoch_drops = 0;  ///< handle dropped on cluster/cache epoch bump
  uint64_t registered = 0;
  uint64_t evicted = 0;      ///< capacity/byte-pressure evictions
  size_t handles = 0;        ///< resident handles (gauge)
  size_t bytes = 0;          ///< buffered survivor bytes (gauge)
};

/// The pinned state of one paged ranking: the lazy stream plus every
/// survivor materialised so far, so page N costs only the pull from
/// survivor |seen| to begin+page_size — not a re-execution of pages
/// 0..N-1.  All mutable state is guarded by `mu`; two requests resuming
/// the same cursor serialise on it.  The identity triple (id,
/// fingerprint, epoch) is immutable after registration.
class RankedHandle {
 public:
  /// How survivors are produced from the raw stream.
  enum class Kind {
    kPlain,       ///< stream output IS the result (CBIR-only, pre-filter)
    kPostFilter,  ///< stream -> metadata join -> filter survivors
  };

  RankedHandle(std::string id, std::string fingerprint, uint64_t epoch,
               Kind kind)
      : id_(std::move(id)),
        fingerprint_(std::move(fingerprint)),
        epoch_(epoch),
        kind_(kind) {}

  const std::string& id() const { return id_; }
  const std::string& fingerprint() const { return fingerprint_; }
  uint64_t epoch() const { return epoch_; }
  Kind kind() const { return kind_; }

 private:
  friend class RankedAccess;
  friend class EarthQube;
  friend struct RankedAccessTestPeer;  ///< tests populate survivor state

  const std::string id_;
  const std::string fingerprint_;
  const uint64_t epoch_;
  const Kind kind_;

  std::mutex mu_;
  /// The lazy ranked stream; null reads as exhausted (tests populate
  /// survivor state by hand).
  std::unique_ptr<CbirHitStream> stream_;
  /// Every survivor produced so far, in rank order.
  std::vector<CbirResult> survivors_;
  /// Post-filter only: cumulative docs examined when survivor i was
  /// admitted — replayed so a resumed page reports the same
  /// docs_examined a fresh execution of that page would.
  std::vector<uint64_t> examined_after_;
  uint64_t examined_total_ = 0;
  /// Survivor cap (the request's limit/k); 0 = unbounded.
  size_t survivor_cap_ = 0;
  bool exhausted_ = false;
  /// Post-filter only: the panel filter re-applied per raw hit.
  docstore::Filter filter_ = docstore::Filter::True();

  // Registry bookkeeping, guarded by the REGISTRY mutex (not mu_).
  size_t bytes_ = 0;
  std::chrono::steady_clock::time_point last_touch_{};
  std::list<std::string>::iterator lru_pos_{};
};

/// The bounded, TTL'd, epoch-validated table of live RankedHandles,
/// keyed by handle id (a deterministic hash of the page-free request
/// fingerprint, so every node of a cluster mints the same cursor for
/// the same ranking).  Thread-safe.  A lookup that fails for any reason
/// is not an error — the caller re-executes the page from a fresh
/// stream and re-registers.
class RankedAccess {
 public:
  explicit RankedAccess(const RankedAccessConfig& config);

  /// Deterministic handle id for a stream fingerprint: FNV-1a 64 in
  /// hex.  Not std::hash — the id travels inside cursors between
  /// processes, so it must be stable across implementations.
  static std::string HandleIdFor(const std::string& fingerprint);

  /// Returns the live handle for `id` iff it is resident, unexpired,
  /// was registered under `current_epoch` AND stores exactly
  /// `fingerprint`; null otherwise (counted as miss / expired /
  /// epoch_drop).  The full-fingerprint comparison closes the 64-bit
  /// FNV id space: two queries whose fingerprints collide under the
  /// non-cryptographic hash must not serve each other's ranking.  A
  /// returned handle is pinned by the shared_ptr — eviction can drop it
  /// from the table mid-use safely.
  std::shared_ptr<RankedHandle> Get(const std::string& id,
                                    const std::string& fingerprint,
                                    uint64_t current_epoch);

  /// Registers a freshly opened handle.  First-wins: when a concurrent
  /// request already registered this id under the same epoch and
  /// fingerprint, the resident handle is returned and `handle` is
  /// discarded (two racing page-0 executions must converge on one
  /// pinned stream).  A resident with the same id but a DIFFERENT
  /// fingerprint (FNV collision) keeps the slot; `handle` is returned
  /// unregistered and serves its one request ephemerally.
  std::shared_ptr<RankedHandle> Register(std::shared_ptr<RankedHandle> handle);

  /// Re-accounts a handle's survivor bytes after an extension and
  /// refreshes its LRU position; may evict colder handles.  `bytes` is
  /// the caller's ApproxBytes measurement, taken while it still held
  /// handle->mu_ — Touch itself must not walk survivors_, which a
  /// concurrent resume of the same cursor may be extending.
  void Touch(const std::shared_ptr<RankedHandle>& handle, size_t bytes);

  /// Approximate heap footprint of a handle's buffered survivor state.
  /// Callers must hold handle.mu_ (or own the handle exclusively).
  static size_t ApproxBytes(const RankedHandle& handle);

  /// Drops every handle (a new CBIR service invalidates the streams'
  /// borrowed name map, not just their results).
  void Clear();

  RankedAccessStats Stats() const;
  const RankedAccessConfig& config() const { return config_; }

 private:
  std::chrono::steady_clock::time_point Now() const;
  /// Evicts LRU handles past the count/byte budgets; `keep` survives.
  void EvictLocked(const RankedHandle* keep);
  void RemoveLocked(const std::string& id);

  const RankedAccessConfig config_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<RankedHandle>> handles_;
  /// Most recent at the front; RankedHandle::lru_pos_ points in here.
  std::list<std::string> lru_;
  size_t total_bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t expired_ = 0;
  uint64_t epoch_drops_ = 0;
  uint64_t registered_ = 0;
  uint64_t evicted_ = 0;
};

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_RANKED_ACCESS_H_
