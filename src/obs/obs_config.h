#ifndef AGORAEO_OBS_OBS_CONFIG_H_
#define AGORAEO_OBS_OBS_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace agoraeo::obs {

/// Knobs for the observability layer.  One ObsConfig rides inside
/// EarthQubeConfig (and Coordinator::Options) and configures that
/// instance's metrics registry, tracer, and slow-query log.
struct ObsConfig {
  /// Master switch for the metrics registry.  When false the owning
  /// component passes null metric pointers down the stack, so the hot
  /// path pays nothing (not even a relaxed atomic add).
  bool enable_metrics = true;

  /// Master switch for per-request tracing.  When false StartTrace()
  /// returns nullptr and every span site no-ops on the null check.
  bool enable_tracing = true;

  /// A completed request whose wall time is >= this lands in the
  /// slow-query ring.  Default 50 ms.  Zero records every traced
  /// request (useful in tests and probes).
  uint64_t slow_query_threshold_ns = 50'000'000;
};

/// Bounded capacity of the slow-query ring; the oldest entry is evicted
/// first.
inline constexpr size_t kSlowQueryRing = 64;

/// Latency histogram range: everything below the minimum lands in the
/// first bucket, everything above the maximum in the overflow bucket
/// (1 us .. 60 s).
inline constexpr uint64_t kHistogramMinNs = 1'000;
inline constexpr uint64_t kHistogramMaxNs = 60'000'000'000ULL;

}  // namespace agoraeo::obs

#endif  // AGORAEO_OBS_OBS_CONFIG_H_
