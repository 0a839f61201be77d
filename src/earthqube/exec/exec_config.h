#ifndef AGORAEO_EARTHQUBE_EXEC_EXEC_CONFIG_H_
#define AGORAEO_EARTHQUBE_EXEC_EXEC_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace agoraeo::earthqube {

/// Knobs of the staged execution engine (EarthQubeConfig::exec).
///
/// The engine is EarthQube's only executor: a staged pipeline —
/// validate/plan, admission queue, fingerprint-keyed coalescer,
/// micro-batcher, per-request materialisation — so concurrent
/// interactive traffic shares work instead of repeating it.  With
/// `coalesce` and `micro_batch` off it runs every request as its own
/// flight.
struct ExecConfig {
  /// Singleflight: concurrent requests with identical canonical
  /// fingerprints collapse onto one in-flight execution and share the
  /// resulting response.
  bool coalesce = true;
  /// Micro-batching: distinct in-flight CBIR/hybrid misses with
  /// compatible shapes (same radius/k; for hybrids the same panel
  /// filter and planner mode) run through one batched index pass.
  bool micro_batch = true;
  /// Largest number of distinct requests fused into one batched pass.
  size_t max_batch = 128;
  /// Admission-queue depth bound; submissions beyond it are rejected
  /// with Overloaded (HTTP 429) instead of queueing unboundedly.
  size_t max_queue = 4096;
};

/// Lifetime counters of one engine, aggregated by ExecutionEngine::
/// Stats().  All counters are monotonic.
struct ExecStats {
  uint64_t submitted = 0;      ///< requests admitted via SubmitAsync
  uint64_t completed = 0;      ///< waiters completed (incl. errors)
  uint64_t cache_hits = 0;     ///< flights served from the response cache
  uint64_t negative_hits = 0;  ///< flights served from the negative cache
  uint64_t coalesced = 0;      ///< waiters attached to an in-flight twin
  uint64_t flights = 0;        ///< underlying executions enqueued
  uint64_t direct = 0;         ///< flights executed alone
  uint64_t batches = 0;        ///< micro-batched index passes
  uint64_t batched_flights = 0;  ///< flights served by those passes
  uint64_t rejected = 0;       ///< submissions bounced off the full queue
  /// Flight completions whose shared response was admitted to the
  /// response cache before the waiters woke (the coalescer's pre-warm
  /// drain: the next identical request is a cache hit, not a flight).
  uint64_t flight_warms = 0;
  /// Admission-time response-cache hits whose entry was written by a
  /// flight completion (proof the pre-warm path serves real traffic).
  uint64_t warm_from_flight_hits = 0;
};

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_EXEC_EXEC_CONFIG_H_
