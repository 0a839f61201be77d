#ifndef AGORAEO_EARTHQUBE_EXEC_EXECUTION_ENGINE_H_
#define AGORAEO_EARTHQUBE_EXEC_EXECUTION_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "earthqube/exec/exec_config.h"
#include "earthqube/query_request.h"
#include "obs/observability.h"

namespace agoraeo::earthqube {

class EarthQube;

/// The staged execution engine behind EarthQube::Execute.
///
/// Stages, in order:
///   1. validate/plan — EarthQube::PreflightCheck plus the canonical
///      request fingerprint (the coalescer's and cache's shared key).
///   2. coalescer (singleflight) — a submission whose fingerprint
///      matches an in-flight execution attaches to it as a waiter
///      instead of executing again; all waiters of a flight share its
///      one result.
///   3. cache probe — flight leaders (only) probe the response and
///      negative caches, so N coalesced identical misses cost exactly
///      one cache miss and one execution.
///   4. admission queue + micro-batcher — worker threads pop flights;
///      distinct batchable misses (CBIR-only, or hybrids sharing a
///      panel filter and planner mode) that are in flight within one
///      time/size window are fused into one batched index open.
///   5. per-request materialisation — each waiter's callback receives
///      its own QueryResponse copy of the shared result.
///
/// Thread-safe.  The engine owns its worker threads; destruction drains
/// the queue (every outstanding waiter is completed) and joins.
class ExecutionEngine {
 public:
  /// Completion callback; invoked exactly once with this submission's
  /// own response copy, on an engine worker (or inline on the
  /// submitting thread for admission-time completions: validation
  /// errors, cache hits, rejections).
  using Callback = std::function<void(StatusOr<QueryResponse>)>;

  /// `system` must outlive the engine (EarthQube owns its engine and
  /// declares it last, so it is destroyed first).  `obs` (optional,
  /// must outlive the engine) registers the engine's stage histograms,
  /// batch-size histogram and queue-depth gauge.
  ExecutionEngine(const EarthQube* system, const ExecConfig& config,
                  obs::Observability* obs = nullptr);
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Submits one request; `done` receives the outcome.  The callback
  /// must not block for long and must not wait on another submission
  /// to this engine.  `trace` (optional) collects the request's stage
  /// spans (admit, coalesce, cache probe, queue wait, batch wait, index
  /// pass, materialize); null is the untraced fast path.
  void SubmitAsync(const QueryRequest& request, Callback done,
                   std::shared_ptr<obs::Trace> trace = nullptr);

  /// Pauses/resumes the workers' queue consumption (admissions still
  /// proceed).  Nests; EarthQube::ExecuteBatchAsync gates a whole batch
  /// on it, and tests/benches use it for deterministic coalescing.
  void Pause();
  void Resume();

  ExecStats Stats() const;
  const ExecConfig& config() const { return config_; }

 private:
  struct Flight;

  struct Waiter;

  /// Completes every waiter of a flight with one shared result and
  /// retires the flight from the coalescer map.
  void CompleteFlight(const std::shared_ptr<Flight>& flight,
                      StatusOr<QueryResponse> result);
  void CompleteWaiter(const std::shared_ptr<Waiter>& waiter,
                      StatusOr<QueryResponse> result);

  /// Records that a flight completion pre-warmed the response cache
  /// under `fingerprint`, so a later admission-time hit on it can be
  /// attributed to the flight drain (warm_from_flight_hits).
  void RecordFlightWarm(const std::optional<std::string>& fingerprint);
  /// Whether `fingerprint` was pre-warmed by a flight completion.
  bool WasWarmedByFlight(const std::optional<std::string>& fingerprint) const;

  void WorkerLoop();
  /// Moves every queued flight whose batch key matches into `group`
  /// (caller holds mu_).
  void CollectMatching(const std::string& key,
                       std::vector<std::shared_ptr<Flight>>* group);
  /// Runs one popped group and completes each flight.  A panel-only
  /// flight (never batchable, so always alone) runs ExecutePanelOnly;
  /// similarity flights of any group size run one ExecuteSimilarity
  /// under one epoch snapshot, then are response- or negative-cached.
  void ExecuteGroup(const std::vector<std::shared_ptr<Flight>>& group);

  const EarthQube* system_;
  const ExecConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Flight>> queue_;
  /// Coalescer: fingerprint -> the in-flight execution to attach to.
  std::unordered_map<std::string, std::shared_ptr<Flight>> in_flight_;
  size_t paused_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  /// Fingerprints whose cache entries were written by flight
  /// completions; bounded (cleared when it grows past kWarmedSetCap) —
  /// it only feeds attribution counters, so dropping history merely
  /// undercounts warm_from_flight_hits.
  static constexpr size_t kWarmedSetCap = 4096;
  mutable std::mutex warmed_mu_;
  std::unordered_set<std::string> warmed_by_flight_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> negative_hits_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> flights_{0};
  std::atomic<uint64_t> direct_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_flights_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> flight_warms_{0};
  std::atomic<uint64_t> warm_from_flight_hits_{0};

  /// Observability hooks; all null when the engine runs uninstrumented
  /// (each record site is one null check).
  obs::Histogram* stage_admit_ = nullptr;
  obs::Histogram* stage_cache_probe_ = nullptr;
  obs::Histogram* stage_queue_wait_ = nullptr;
  obs::Histogram* stage_batch_wait_ = nullptr;
  obs::Histogram* stage_index_pass_ = nullptr;
  obs::Histogram* request_total_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
};

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_EXEC_EXECUTION_ENGINE_H_
