#ifndef AGORAEO_OBS_OBSERVABILITY_H_
#define AGORAEO_OBS_OBSERVABILITY_H_

/// The per-instance observability bundle: one metrics registry, one
/// slow-query log, and the trace factory, configured by one ObsConfig.
/// EarthQube owns one (nodes and the monolith alike); the cluster
/// Coordinator owns its own.  Per-instance rather than process-global
/// because tests and benches boot several full stacks in one process
/// and their numbers must not bleed together.

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"

namespace agoraeo::obs {

class Observability {
 public:
  explicit Observability(const ObsConfig& config = ObsConfig())
      : config_(config),
        slow_log_(config.slow_query_threshold_ns, kSlowQueryRing) {}

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  const ObsConfig& config() const { return config_; }
  MetricsRegistry& registry() { return registry_; }
  SlowQueryLog& slow_log() { return slow_log_; }

  bool metrics_enabled() const { return config_.enable_metrics; }
  bool tracing_enabled() const { return config_.enable_tracing; }

  /// A fresh trace for one request, or nullptr when tracing is off —
  /// every span site null-checks, so disabled tracing costs one branch.
  std::shared_ptr<Trace> StartTrace() const {
    if (!config_.enable_tracing) return nullptr;
    return std::make_shared<Trace>();
  }
  /// Same, adopting a propagated id (cluster child executions).
  std::shared_ptr<Trace> StartTrace(std::string id) const {
    if (!config_.enable_tracing) return nullptr;
    return std::make_shared<Trace>(std::move(id));
  }

  /// Registry lookups that respect enable_metrics by returning nullptr:
  /// instrumentation sites hold pointers and null-check, so a disabled
  /// registry truly costs nothing on the hot path.
  Counter* CounterOrNull(const std::string& name) {
    return config_.enable_metrics ? registry_.GetCounter(name) : nullptr;
  }
  Gauge* GaugeOrNull(const std::string& name) {
    return config_.enable_metrics ? registry_.GetGauge(name) : nullptr;
  }
  Histogram* HistogramOrNull(const std::string& name) {
    return config_.enable_metrics
               ? registry_.GetHistogram(name, kHistogramMinNs,
                                        kHistogramMaxNs)
               : nullptr;
  }

 private:
  const ObsConfig config_;
  MetricsRegistry registry_;
  SlowQueryLog slow_log_;
};

}  // namespace agoraeo::obs

#endif  // AGORAEO_OBS_OBSERVABILITY_H_
