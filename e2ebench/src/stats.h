// Arithmetic the benchmark reports with: percentiles, process CPU and
// memory from /proc, and before/after deltas of the system's
// /api/v2/metrics JSON registry.
#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "docstore/value.h"

namespace e2ebench {

/// Linear interpolation between order statistics (q in [0, 1]); the
/// sample need not be sorted.  0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// utime + stime of a process, in clock ticks (all its threads).
std::optional<uint64_t> ProcessCpuTicks(pid_t pid);
/// Resident set size in KiB.
std::optional<uint64_t> ProcessRssKb(pid_t pid);
/// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests (steal).
struct HostCpu {
  uint64_t total = 0, steal = 0;
};
std::optional<HostCpu> ReadHostCpu();
/// CPU milliseconds per query from a tick delta.
double CpuMsPerQuery(uint64_t ticks, long ticks_per_s, uint64_t queries);

/// One scrape of a metrics registry (empty when the scrape failed).
struct Scrape {
  std::optional<agoraeo::docstore::Document> doc;
};
Scrape ParseScrape(const std::string& json);

/// Before/after view of one registry.  A series missing from either
/// scrape is absent (nullopt), never an error.
class RegistryDelta {
 public:
  RegistryDelta(const Scrape& before, const Scrape& after)
      : before_(before), after_(after) {}
  /// Counter or histogram-count increase.
  std::optional<double> Count(const std::string& series) const;
  /// Increase of a histogram's value sum (ns for latency histograms).
  std::optional<double> Sum(const std::string& series) const;
  /// Mean of the values recorded in between (sum / count, 0 when none).
  std::optional<double> Mean(const std::string& series) const;

 private:
  std::optional<double> Field(const Scrape& s, const std::string& series,
                              const char* field) const;
  std::optional<double> Diff(const std::string& series,
                             const char* field) const;
  const Scrape& before_;
  const Scrape& after_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_STATS_H_
