#include "stats.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "json/json.h"

namespace e2ebench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::optional<uint64_t> ProcessCpuTicks(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  if (!fields) return std::nullopt;
  return utime + stime;
}

std::optional<uint64_t> ProcessRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return std::nullopt;
}

std::optional<HostCpu> ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  if (!(in >> cpu) || cpu != "cpu") return std::nullopt;
  // user nice system idle iowait irq softirq steal ...
  HostCpu out;
  uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    out.total += v;
    if (i == 7) out.steal = v;
  }
  return out;
}

double CpuMsPerQuery(uint64_t ticks, long ticks_per_s, uint64_t queries) {
  if (queries == 0 || ticks_per_s <= 0) return 0;
  return static_cast<double>(ticks) * 1000.0 /
         static_cast<double>(ticks_per_s) / static_cast<double>(queries);
}

Scrape ParseScrape(const std::string& json) {
  Scrape s;
  auto doc = agoraeo::json::ParseObject(json);
  if (doc.ok()) s.doc = *std::move(doc);
  return s;
}

std::optional<double> RegistryDelta::Field(const Scrape& s,
                                           const std::string& series,
                                           const char* field) const {
  if (!s.doc.has_value()) return std::nullopt;
  const agoraeo::docstore::Value* v = s.doc->Get(series);
  if (v == nullptr) return std::nullopt;
  if (v->is_number()) {
    // A counter is its own count; it has no sum.
    if (std::string(field) == "count") return v->as_number();
    return std::nullopt;
  }
  if (!v->is_document()) return std::nullopt;
  const agoraeo::docstore::Value* f = v->as_document().Get(field);
  if (f == nullptr || !f->is_number()) return std::nullopt;
  return f->as_number();
}

std::optional<double> RegistryDelta::Diff(const std::string& series,
                                          const char* field) const {
  const auto a = Field(before_, series, field);
  const auto b = Field(after_, series, field);
  if (!a.has_value() || !b.has_value()) return std::nullopt;
  return *b - *a;
}

std::optional<double> RegistryDelta::Count(const std::string& series) const {
  return Diff(series, "count");
}

std::optional<double> RegistryDelta::Sum(const std::string& series) const {
  return Diff(series, "sum_ns");
}

std::optional<double> RegistryDelta::Mean(const std::string& series) const {
  const auto count = Count(series);
  const auto sum = Sum(series);
  if (!count.has_value() || !sum.has_value()) return std::nullopt;
  return *count > 0 ? *sum / *count : 0.0;
}

}  // namespace e2ebench
