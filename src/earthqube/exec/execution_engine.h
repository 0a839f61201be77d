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
///      instead of executing again; all waiters of a flight share one
///      shared_ptr<const QueryResponse>.
///   3. cache probe — flight leaders (only) probe the response and
///      negative caches, so N coalesced identical misses cost exactly
///      one cache miss and one execution.
///   4. admission queue + micro-batcher — worker threads pop flights;
///      distinct batchable misses (CBIR-only, or hybrids sharing a
///      panel filter and planner mode) that are in flight within one
///      time/size window are fused into one batched index open.
///   5. per-request materialisation — each waiter materialises its own
///      QueryResponse copy from the shared result (Get / callback).
///
/// Thread-safe.  The engine owns its worker threads; destruction drains
/// the queue (every outstanding waiter is completed) and joins.
class ExecutionEngine {
 public:
  struct Waiter;

  /// Completion callback; invoked exactly once, on an engine worker (or
  /// inline on the submitting thread for admission-time completions:
  /// validation errors, cache hits, rejections).
  using Callback = std::function<void(const StatusOr<QueryResponse>&)>;

  /// A handle on one submission.  Get() blocks until the underlying
  /// flight completes and materialises this waiter's response copy.
  class Ticket {
   public:
    Ticket() = default;
    StatusOr<QueryResponse> Get();
    bool valid() const { return waiter_ != nullptr; }

   private:
    friend class ExecutionEngine;
    explicit Ticket(std::shared_ptr<Waiter> waiter)
        : waiter_(std::move(waiter)) {}
    std::shared_ptr<Waiter> waiter_;
  };

  /// `system` must outlive the engine (EarthQube owns its engine and
  /// declares it last, so it is destroyed first).  `obs` (optional,
  /// must outlive the engine) registers the engine's stage histograms,
  /// batch-size histogram and queue-depth gauge.
  ExecutionEngine(const EarthQube* system, const ExecConfig& config,
                  obs::Observability* obs = nullptr);
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Submits one request; the returned ticket's Get() is the blocking
  /// flavour EarthQube::Execute wraps.  The traced overloads thread a
  /// per-request Trace through the engine's stages (admit, coalesce,
  /// cache probe, queue wait, batch wait, index pass, materialize);
  /// null trace is the untraced fast path.
  Ticket Submit(const QueryRequest& request) {
    return Submit(request, nullptr);
  }
  Ticket Submit(const QueryRequest& request,
                std::shared_ptr<obs::Trace> trace);

  /// Submits one request with a completion callback — the deferred
  /// netsvc pipeline's entry point.  The callback must not block for
  /// long and must not re-enter the engine synchronously with a Get().
  void SubmitAsync(const QueryRequest& request, Callback done) {
    SubmitAsync(request, nullptr, std::move(done));
  }
  void SubmitAsync(const QueryRequest& request,
                   std::shared_ptr<obs::Trace> trace, Callback done);

  /// Submits a whole batch under one admission gate: workers are paused
  /// until every request is admitted, so identical requests coalesce
  /// deterministically and distinct batchable requests are guaranteed
  /// to land in one micro-batch window.
  std::vector<Ticket> SubmitBatch(const std::vector<QueryRequest>& requests);

  /// Pauses/resumes the workers' queue consumption (admissions still
  /// proceed).  Nests; used by SubmitBatch and by tests/benches that
  /// need deterministic coalescing.
  void Pause();
  void Resume();

  ExecStats Stats() const;
  const ExecConfig& config() const { return config_; }

 private:
  struct Flight;

  /// Stage 1–3 for one request; returns the submission's waiter.
  std::shared_ptr<Waiter> Admit(const QueryRequest& request, Callback done,
                                std::shared_ptr<obs::Trace> trace = nullptr);

  /// Completes every waiter of a flight with a shared result and
  /// retires the flight from the coalescer map.
  void CompleteFlight(const std::shared_ptr<Flight>& flight,
                      const Status& status,
                      std::shared_ptr<const QueryResponse> response);
  void CompleteWaiter(const std::shared_ptr<Waiter>& waiter,
                      const Status& status,
                      std::shared_ptr<const QueryResponse> response);

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
  void ExecuteDirect(const std::shared_ptr<Flight>& flight);
  /// Runs a micro-batch of similarity flights as one batched open
  /// (EarthQube::ExecuteSimilarity), then caches and completes each.
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
