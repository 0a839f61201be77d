#ifndef AGORAEO_OBS_METRICS_H_
#define AGORAEO_OBS_METRICS_H_

/// Lock-cheap process metrics: counters, gauges, and log-bucketed
/// latency histograms behind a name-keyed registry that renders both
/// Prometheus text exposition and JSON.
///
/// Design constraints:
///  - The record path is hot (it sits inside the engine's per-request
///    stages and the index scan loop), so Counter/Gauge are single
///    relaxed atomics and Histogram stripes its atomics across sixteen
///    cache-line-aligned shards keyed by thread to avoid one contended
///    line under closed-loop client load.
///  - Metric objects are created once (registry mutex) and then
///    referenced by stable pointer; the hot path never touches the
///    registry map.
///  - Labels are embedded in the metric name string
///    (`agoraeo_http_requests_total{route="/api/v2/query"}`); the
///    exposition renderer understands the brace block when it has to
///    splice in quantile labels.
///  - This header is std-only — no repo dependencies — so every layer
///    (common/, netsvc/, index/) can include it without cycles.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace agoraeo::obs {

/// Monotonic nanoseconds; the clock every span and histogram uses.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Point-in-time signed level (queue depth, in-flight requests).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Merged view of one histogram at a point in time; quantiles are
/// interpolated within the matched bucket.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Per-bucket counts; buckets[i] counts values in
  /// (bounds[i-1], bounds[i]] with an implicit lower edge of 0, plus a
  /// final overflow bucket past bounds.back().
  std::vector<uint64_t> buckets;
  std::vector<uint64_t> bounds;  ///< inclusive upper edges, ns

  /// Interpolated value at quantile q in [0, 1]; 0 when empty.  Values
  /// in the overflow bucket report the top bound (a floor, not a lie:
  /// "at least this").
  uint64_t Quantile(double q) const;
  double MeanNs() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// Log-bucketed latency histogram: four linear sub-buckets per octave
/// between min_ns and max_ns (~9% worst-case relative bucket width), an
/// underflow-absorbing first bucket and an overflow bucket.  Record is
/// wait-free: binary-search the bound table, then three relaxed adds on
/// a thread-striped shard.
class Histogram {
 public:
  Histogram(uint64_t min_ns, uint64_t max_ns);

  void Record(uint64_t value_ns);
  HistogramSnapshot Snapshot() const;

 private:
  static constexpr size_t kStripes = 16;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;
  };

  std::vector<uint64_t> bounds_;  ///< inclusive upper edges, sorted
  Stripe stripes_[kStripes];
};

/// Records the elapsed scope time into a histogram on destruction; a
/// null histogram makes the whole thing a no-op.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(histogram), start_ns_(histogram ? NowNanos() : 0) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(NowNanos() - start_ns_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_ns_;
};

/// Scrape-time samples contributed by a collector callback.  Collectors
/// are how existing counter structs (CacheStats, ExecStats, index and
/// persistence stats, the cluster epoch) stay the single counting truth:
/// the registry reads them at scrape time instead of double-counting.
enum class SampleKind { kCounter, kGauge };
struct Sample {
  std::string name;  ///< full metric name, labels embedded
  SampleKind kind = SampleKind::kCounter;
  double value = 0.0;
};
using Collector = std::function<void(std::vector<Sample>*)>;

/// Collector shorthands: append one counter or gauge sample.
inline void PushCounter(std::vector<Sample>* out, std::string name,
                        uint64_t value) {
  out->push_back(
      {std::move(name), SampleKind::kCounter, static_cast<double>(value)});
}
inline void PushGauge(std::vector<Sample>* out, std::string name,
                      double value) {
  out->push_back({std::move(name), SampleKind::kGauge, value});
}

/// Name-keyed metric store.  Get* registers on first use and returns a
/// stable pointer; rendering walks metrics in registration order so the
/// exposition is deterministic (the golden test depends on it).
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name, uint64_t min_ns,
                          uint64_t max_ns);
  void AddCollector(Collector collector);

  /// Prometheus text exposition (text/plain; version=0.0.4).
  /// Histograms render as summaries: p50/p90/p99/p999 quantile lines
  /// plus _sum and _count.
  std::string PrometheusText() const;
  /// The same data as one JSON object; histogram values become
  /// {count, sum_ns, mean_ns, p50_ns, p90_ns, p99_ns, p999_ns}.
  std::string JsonText() const;

 private:
  struct Entry {
    std::string name;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< registration order
  std::vector<Collector> collectors_;
};

/// Builds `base{key="value"}`; values are escaped per the exposition
/// format (backslash, double-quote, newline).
std::string LabeledName(const std::string& base, const std::string& key,
                        const std::string& value);

/// Metric hooks for netsvc::HttpClient without obs knowing netsvc's
/// HttpErrorKind enum: the owner indexes errors_by_kind with
/// static_cast<int>(kind).  Null pointers no-op, so a default-constructed
/// struct is an always-off hook.
struct HttpClientMetrics {
  Counter* requests = nullptr;
  Counter* failures = nullptr;
  Counter* retries = nullptr;
  Counter* backoff_sleeps = nullptr;
  static constexpr int kNumErrorKinds = 8;
  Counter* errors_by_kind[kNumErrorKinds] = {};
};

}  // namespace agoraeo::obs

#endif  // AGORAEO_OBS_METRICS_H_
