#include "earthqube/exec/execution_engine.h"

#include <algorithm>
#include <chrono>

#include "earthqube/earthqube.h"

namespace agoraeo::earthqube {

/// One submission: its completion callback, which receives the
/// submission's own copy of its flight's result.
struct ExecutionEngine::Waiter {
  Callback callback;
  /// Per-request trace (null for the untraced fast path) and the
  /// submission timestamp the total-latency histogram measures from.
  std::shared_ptr<obs::Trace> trace;
  uint64_t submit_ns = 0;
};

/// One underlying execution.  `waiters` is guarded by the engine mutex:
/// the coalescer appends to it until CompleteFlight retires the flight
/// from the in-flight map and takes the list.
struct ExecutionEngine::Flight {
  QueryRequest request;
  std::optional<std::string> fingerprint;
  /// Micro-batch compatibility class; nullopt = not batchable (panel-
  /// only, uploaded-patch subject, or micro-batching disabled).
  std::optional<std::string> batch_key;
  /// Epoch at admission: a later submission only coalesces onto this
  /// flight while the epoch is unchanged — a request admitted after an
  /// ingest must not share a response computed from pre-ingest state
  /// (the coalescer mirror of the cache's snapshot-before-execute rule).
  uint64_t admission_epoch = 0;
  std::vector<std::shared_ptr<Waiter>> waiters;
  /// Stage timestamps (0 = stage never reached): queued, popped by a
  /// worker, and execution begun after any micro-batch window.
  uint64_t enqueue_ns = 0;
  uint64_t pop_ns = 0;
  uint64_t exec_start_ns = 0;
};

namespace {

/// How long a worker holding a batchable miss waits for further
/// compatible misses before executing.  The window is only waited out
/// when the admission queue was non-empty at pop time (i.e. there is
/// concurrent traffic); a lone request on an idle engine executes
/// immediately, so single-client latency does not pay the window.
constexpr std::chrono::microseconds kBatchWindow{200};

/// The micro-batcher's compatibility class: flights with equal keys can
/// share one batched (restricted) index open.  Mode value (radius/k) must
/// match because the index pass takes one of them; per-request limit,
/// projection and paging stay free — they are applied during
/// materialisation.  Hybrids additionally pin the panel filter (the
/// shared allowlist) and the planner mode (the shared strategy choice).
std::optional<std::string> BatchKeyFor(const QueryRequest& request) {
  if (!request.similarity.has_value()) return std::nullopt;
  const SimilaritySpec& spec = *request.similarity;
  if (spec.patch.has_value()) return std::nullopt;  // no cheap fingerprint
  if (!spec.archive_name.has_value() && !spec.code.has_value()) {
    return std::nullopt;
  }
  if (!spec.radius.has_value() && !spec.k.has_value()) return std::nullopt;
  std::string key = spec.radius.has_value()
                        ? "r:" + std::to_string(*spec.radius)
                        : "k:" + std::to_string(*spec.k);
  if (request.panel.has_value()) {
    key += "|h:" + std::to_string(static_cast<int>(request.planner)) + "|" +
           QueryCache::PanelFingerprint(*request.panel,
                                        /*include_limit=*/false);
  }
  return key;
}

}  // namespace

ExecutionEngine::ExecutionEngine(const EarthQube* system,
                                 const ExecConfig& config,
                                 obs::Observability* obs)
    : system_(system), config_(config) {
  if (obs != nullptr && obs->metrics_enabled()) {
    auto stage = [&](const char* name) {
      return obs->HistogramOrNull(
          obs::LabeledName("agoraeo_engine_stage_ns", "stage", name));
    };
    stage_admit_ = stage("admit");
    stage_cache_probe_ = stage("cache_probe");
    stage_queue_wait_ = stage("queue_wait");
    stage_batch_wait_ = stage("batch_wait");
    stage_index_pass_ = stage("index_pass");
    request_total_ = obs->HistogramOrNull("agoraeo_engine_request_ns");
    batch_size_ = obs->registry().GetHistogram("agoraeo_engine_batch_size",
                                               /*min_ns=*/1,
                                               /*max_ns=*/4096);
    queue_depth_ = obs->GaugeOrNull("agoraeo_engine_queue_depth");
  }
  // One engine worker per hardware thread.
  const size_t workers =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ExecutionEngine::~ExecutionEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // A paused engine must still drain: no waiter may block forever.
    paused_ = 0;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ExecutionEngine::CompleteWaiter(const std::shared_ptr<Waiter>& waiter,
                                     StatusOr<QueryResponse> result) {
  if (request_total_ != nullptr && waiter->submit_ns != 0) {
    request_total_->Record(obs::NowNanos() - waiter->submit_ns);
  }
  Callback callback = std::move(waiter->callback);
  callback(std::move(result));
}

void ExecutionEngine::CompleteFlight(const std::shared_ptr<Flight>& flight,
                                     StatusOr<QueryResponse> result) {
  std::vector<std::shared_ptr<Waiter>> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (flight->fingerprint.has_value()) {
      auto it = in_flight_.find(*flight->fingerprint);
      if (it != in_flight_.end() && it->second == flight) in_flight_.erase(it);
    }
    waiters.swap(flight->waiters);
  }
  completed_.fetch_add(waiters.size());

  // Queue-stage observability, once per flight: durations into the
  // stage histograms, spans onto every traced waiter.
  const bool any_traced = [&] {
    for (const auto& waiter : waiters) {
      if (waiter->trace != nullptr) return true;
    }
    return false;
  }();
  if (flight->enqueue_ns != 0 &&
      (any_traced || stage_queue_wait_ != nullptr)) {
    const uint64_t end_ns = obs::NowNanos();
    const uint64_t pop_ns =
        flight->pop_ns != 0 ? flight->pop_ns : end_ns;
    const uint64_t exec_ns =
        flight->exec_start_ns != 0 ? flight->exec_start_ns : pop_ns;
    if (stage_queue_wait_ != nullptr) {
      stage_queue_wait_->Record(pop_ns - flight->enqueue_ns);
    }
    if (stage_batch_wait_ != nullptr && exec_ns > pop_ns) {
      stage_batch_wait_->Record(exec_ns - pop_ns);
    }
    if (stage_index_pass_ != nullptr) {
      stage_index_pass_->Record(end_ns - exec_ns);
    }
    for (const std::shared_ptr<Waiter>& waiter : waiters) {
      if (waiter->trace == nullptr) continue;
      waiter->trace->AddSpan("queue_wait", flight->enqueue_ns,
                             pop_ns - flight->enqueue_ns);
      if (exec_ns > pop_ns) {
        waiter->trace->AddSpan("batch_wait", pop_ns, exec_ns - pop_ns);
      }
      waiter->trace->AddSpan("index_pass", exec_ns, end_ns - exec_ns);
    }
  }
  // Per-request materialisation: every waiter but the last gets its own
  // copy of the flight's result (identical fingerprints imply identical
  // paging and projection, so the copy IS the materialised response);
  // the last takes the result itself.
  for (size_t i = 0; i < waiters.size(); ++i) {
    const std::shared_ptr<Waiter>& waiter = waiters[i];
    const uint64_t materialize_start =
        waiter->trace != nullptr ? obs::NowNanos() : 0;
    StatusOr<QueryResponse> own = i + 1 < waiters.size()
                                      ? StatusOr<QueryResponse>(result)
                                      : std::move(result);
    if (waiter->trace != nullptr) {
      waiter->trace->AddSpanEndingNow("materialize", materialize_start);
    }
    CompleteWaiter(waiter, std::move(own));
  }
}

void ExecutionEngine::SubmitAsync(const QueryRequest& request, Callback done,
                                  std::shared_ptr<obs::Trace> trace) {
  auto waiter = std::make_shared<Waiter>();
  waiter->callback = std::move(done);
  waiter->trace = std::move(trace);
  const bool timing = waiter->trace != nullptr || stage_admit_ != nullptr ||
                      request_total_ != nullptr;
  const uint64_t admit_start = timing ? obs::NowNanos() : 0;
  waiter->submit_ns = admit_start;
  submitted_.fetch_add(1);

  // Closes the admission stage: histogram + "admit" span cover
  // validation, fingerprinting, and the coalesce/enqueue decision.
  // Returns the stage's end timestamp so the next stage can reuse it
  // instead of re-reading the clock on the warm path.
  auto finish_admit_stage = [&]() -> uint64_t {
    if (admit_start == 0) return 0;
    const uint64_t now = obs::NowNanos();
    if (stage_admit_ != nullptr) {
      stage_admit_->Record(now - admit_start);
    }
    if (waiter->trace != nullptr) {
      waiter->trace->AddSpan("admit", admit_start, now - admit_start);
    }
    return now;
  };

  // Stage 1: validate.  Admission failures complete inline.
  const Status preflight = system_->PreflightCheck(request);
  if (!preflight.ok()) {
    finish_admit_stage();
    completed_.fetch_add(1);
    CompleteWaiter(waiter, preflight);
    return;
  }
  const std::optional<std::string> fingerprint =
      QueryCache::RequestFingerprint(request);
  const uint64_t epoch = system_->query_cache().epoch();

  // Stage 2: coalesce.  Checked before the cache probe so N identical
  // concurrent misses cost exactly one cache miss (the leader's).
  std::shared_ptr<Flight> flight;
  Status bounced;  // an admission refusal, completed once mu_ is released
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool register_in_flight =
        config_.coalesce && fingerprint.has_value() && !shutdown_;
    if (register_in_flight) {
      auto it = in_flight_.find(*fingerprint);
      if (it != in_flight_.end()) {
        // Only share a flight admitted under the current epoch: after
        // an ingest, this submission must observe post-ingest state.
        if (it->second->admission_epoch == epoch) {
          it->second->waiters.push_back(waiter);
          coalesced_.fetch_add(1);
          if (waiter->trace != nullptr) {
            waiter->trace->AddSpanEndingNow("coalesce", admit_start);
          }
          if (stage_admit_ != nullptr && admit_start != 0) {
            stage_admit_->Record(obs::NowNanos() - admit_start);
          }
          return;
        }
        register_in_flight = false;  // stale twin keeps the map slot
      }
    }
    if (shutdown_) {
      bounced = Status::FailedPrecondition("execution engine shut down");
    } else if (queue_.size() >= config_.max_queue) {
      rejected_.fetch_add(1);
      bounced = Status::Overloaded("execution engine admission queue full");
    } else {
      flight = std::make_shared<Flight>();
      flight->request = request;
      flight->fingerprint = fingerprint;
      if (config_.micro_batch) flight->batch_key = BatchKeyFor(request);
      flight->admission_epoch = epoch;
      flight->waiters.push_back(waiter);
      if (register_in_flight) in_flight_[*fingerprint] = flight;
    }
  }
  if (!bounced.ok()) {
    finish_admit_stage();
    completed_.fetch_add(1);
    CompleteWaiter(waiter, bounced);
    return;
  }

  const uint64_t admit_end = finish_admit_stage();

  // Stage 3: leader-only cache probe.  Followers that attached above
  // (or attach while we probe) share the outcome.
  const uint64_t probe_start =
      waiter->trace != nullptr || stage_cache_probe_ != nullptr
          ? (admit_end != 0 ? admit_end : obs::NowNanos())
          : 0;
  auto finish_probe_stage = [&] {
    if (probe_start == 0) return;
    if (stage_cache_probe_ != nullptr) {
      stage_cache_probe_->Record(obs::NowNanos() - probe_start);
    }
    if (waiter->trace != nullptr) {
      waiter->trace->AddSpanEndingNow("cache_probe", probe_start);
    }
  };
  if (auto probed = system_->ProbeCaches(request, fingerprint)) {
    finish_probe_stage();
    if (probed->ok()) {
      cache_hits_.fetch_add(1);
      // Attribute the hit when a flight completion wrote the entry —
      // the pre-warm drain (satellite of the coalescer): waiters of the
      // original flight shared its response, and everyone after them is
      // served here without ever reaching the queue.
      if (WasWarmedByFlight(fingerprint)) {
        warm_from_flight_hits_.fetch_add(1);
      }
    } else {
      negative_hits_.fetch_add(1);
    }
    CompleteFlight(flight, std::move(*probed));
    return;
  }

  finish_probe_stage();

  // Stage 4: enqueue for the workers.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (timing || stage_queue_wait_ != nullptr) {
      flight->enqueue_ns = obs::NowNanos();
    }
    queue_.push_back(std::move(flight));
    flights_.fetch_add(1);
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
  }
  work_cv_.notify_all();
}

void ExecutionEngine::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  ++paused_;
}

void ExecutionEngine::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (paused_ > 0) --paused_;
  }
  work_cv_.notify_all();
}

void ExecutionEngine::CollectMatching(
    const std::string& key, std::vector<std::shared_ptr<Flight>>* group) {
  for (auto it = queue_.begin();
       it != queue_.end() && group->size() < config_.max_batch;) {
    if ((*it)->batch_key == key) {
      if ((*it)->enqueue_ns != 0) (*it)->pop_ns = obs::NowNanos();
      group->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void ExecutionEngine::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (!queue_.empty() && paused_ == 0);
    });
    if (queue_.empty()) {
      if (shutdown_) return;  // fully drained
      continue;
    }
    std::shared_ptr<Flight> flight = std::move(queue_.front());
    queue_.pop_front();
    if (flight->enqueue_ns != 0) flight->pop_ns = obs::NowNanos();
    const bool queue_was_empty = queue_.empty();

    std::vector<std::shared_ptr<Flight>> group;
    group.push_back(std::move(flight));
    if (group.front()->batch_key.has_value()) {
      const std::string key = *group.front()->batch_key;
      CollectMatching(key, &group);
      // Wait out the window only when there was concurrent traffic at
      // pop time (a lone request on an idle engine runs immediately)
      // AND nothing incompatible is left queued — the window must never
      // stall other pending work behind this worker.
      if (!shutdown_ && group.size() < config_.max_batch &&
          !queue_was_empty && queue_.empty()) {
        const auto deadline = std::chrono::steady_clock::now() + kBatchWindow;
        while (!shutdown_ && group.size() < config_.max_batch &&
               queue_.empty() &&
               work_cv_.wait_until(lock, deadline) !=
                   std::cv_status::timeout) {
          CollectMatching(key, &group);
        }
        CollectMatching(key, &group);
      }
    }

    // Gate execution on Resume: flights collected while an admission
    // gate (ExecuteBatchAsync) is paused must not complete before the
    // rest of the batch is admitted, or identical slots would miss the
    // coalescer and re-execute.
    work_cv_.wait(lock, [&] { return shutdown_ || paused_ == 0; });
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    lock.unlock();
    if (batch_size_ != nullptr) {
      batch_size_->Record(static_cast<uint64_t>(group.size()));
    }
    {
      bool any_timed = false;
      for (const std::shared_ptr<Flight>& member : group) {
        if (member->enqueue_ns != 0) { any_timed = true; break; }
      }
      if (any_timed) {
        const uint64_t exec_start = obs::NowNanos();
        for (const std::shared_ptr<Flight>& member : group) {
          if (member->enqueue_ns != 0) member->exec_start_ns = exec_start;
        }
      }
    }
    ExecuteGroup(group);
    lock.lock();
  }
}

void ExecutionEngine::RecordFlightWarm(
    const std::optional<std::string>& fingerprint) {
  if (!fingerprint.has_value()) return;
  flight_warms_.fetch_add(1);
  std::lock_guard<std::mutex> lock(warmed_mu_);
  if (warmed_by_flight_.size() >= kWarmedSetCap) warmed_by_flight_.clear();
  warmed_by_flight_.insert(*fingerprint);
}

bool ExecutionEngine::WasWarmedByFlight(
    const std::optional<std::string>& fingerprint) const {
  if (!fingerprint.has_value()) return false;
  std::lock_guard<std::mutex> lock(warmed_mu_);
  return warmed_by_flight_.count(*fingerprint) != 0;
}

void ExecutionEngine::ExecuteGroup(
    const std::vector<std::shared_ptr<Flight>>& group) {
  if (group.size() > 1) {
    batches_.fetch_add(1);
    batched_flights_.fetch_add(group.size());
  } else {
    direct_.fetch_add(1);
  }
  if (!group.front()->request.similarity.has_value()) {
    // Panel-only: never batchable (no batch key) and never cached.
    CompleteFlight(group.front(),
                   system_->ExecutePanelOnly(group.front()->request));
    return;
  }
  // Snapshot the epoch BEFORE any read, one per shared pass: an ingest
  // racing this group bumps it, leaving the entries put below stale
  // instead of serving pre-ingest data as fresh.
  const uint64_t epoch_snapshot = system_->query_cache().epoch();
  std::vector<const QueryRequest*> requests;
  requests.reserve(group.size());
  for (const std::shared_ptr<Flight>& flight : group) {
    requests.push_back(&flight->request);
  }
  // Equal batch keys imply one shared plan: the same mode, panel filter
  // and planner mode.  Subjects resolve per flight, so an unknown name
  // fails (and negative-caches) alone instead of poisoning the batch.
  std::vector<StatusOr<QueryResponse>> responses =
      system_->ExecuteSimilarity(requests, epoch_snapshot);
  for (size_t i = 0; i < group.size(); ++i) {
    const std::shared_ptr<Flight>& flight = group[i];
    // Cache puts happen BEFORE the waiters wake: by the time any waiter
    // observes completion, the next identical request is already a
    // cache hit.
    if (!responses[i].ok()) {
      system_->MaybeCacheNegative(flight->request, flight->fingerprint,
                                  responses[i].status(), epoch_snapshot);
    } else if (system_->CacheResponse(flight->request, flight->fingerprint,
                                      *responses[i], epoch_snapshot)) {
      RecordFlightWarm(flight->fingerprint);
    }
    CompleteFlight(flight, std::move(responses[i]));
  }
}

ExecStats ExecutionEngine::Stats() const {
  ExecStats stats;
  stats.submitted = submitted_.load();
  stats.completed = completed_.load();
  stats.cache_hits = cache_hits_.load();
  stats.negative_hits = negative_hits_.load();
  stats.coalesced = coalesced_.load();
  stats.flights = flights_.load();
  stats.direct = direct_.load();
  stats.batches = batches_.load();
  stats.batched_flights = batched_flights_.load();
  stats.rejected = rejected_.load();
  stats.flight_warms = flight_warms_.load();
  stats.warm_from_flight_hits = warm_from_flight_hits_.load();
  return stats;
}

}  // namespace agoraeo::earthqube
