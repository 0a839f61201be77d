#ifndef AGORAEO_TESTS_METRICS_TEST_UTIL_H_
#define AGORAEO_TESTS_METRICS_TEST_UTIL_H_

// Reading a served metrics registry over the wire: GET /api/v2/metrics
// as one sample lookup, and the uniqueness check of every sample name
// in both exposition formats.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "json/json.h"
#include "netsvc/client.h"

namespace agoraeo::metrics_test {

/// GET /api/v2/metrics on `port`, parsed.
inline docstore::Document ScrapeMetrics(uint16_t port) {
  netsvc::HttpClient client;
  auto response = client.Get(port, "/api/v2/metrics");
  EXPECT_TRUE(response.ok());
  if (!response.ok()) return {};
  EXPECT_EQ(response->status_code, 200) << response->body;
  auto doc = json::ParseObject(response->body);
  EXPECT_TRUE(doc.ok()) << response->body;
  return doc.ok() ? *std::move(doc) : docstore::Document();
}

/// The value of one counter or gauge sample; fails the test and
/// answers -1 when the sample is absent or not a number.
inline double MetricValue(const docstore::Document& metrics,
                          const std::string& name) {
  const docstore::Value* value = metrics.Get(name);
  EXPECT_TRUE(value != nullptr && value->is_number()) << "no sample " << name;
  return value != nullptr && value->is_number() ? value->as_number() : -1;
}

/// Top-level keys of a JSON object as written, duplicates kept (the
/// parser folds a repeated key into one field).
inline std::vector<std::string> RawTopLevelKeys(const std::string& text) {
  std::vector<std::string> keys;
  int depth = 0;
  bool expect_key = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      size_t end = i + 1;
      while (end < text.size() && text[end] != '"') {
        end += text[end] == '\\' ? 2 : 1;
      }
      if (depth == 1 && expect_key) {
        keys.push_back(text.substr(i + 1, end - i - 1));
      }
      expect_key = false;
      i = end;
    } else if (c == '{' || c == '[') {
      expect_key = ++depth == 1;
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == ',') {
      expect_key = depth == 1;
    }
  }
  return keys;
}

/// Every key of /api/v2/metrics and every sample line of /metrics on
/// `port` names a distinct series.
inline void ExpectUniqueMetricNames(uint16_t port, const std::string& tier) {
  netsvc::HttpClient client;
  auto json_response = client.Get(port, "/api/v2/metrics");
  ASSERT_TRUE(json_response.ok()) << tier;
  std::set<std::string> seen;
  const std::vector<std::string> keys = RawTopLevelKeys(json_response->body);
  EXPECT_FALSE(keys.empty()) << tier;
  for (const std::string& key : keys) {
    EXPECT_TRUE(seen.insert(key).second)
        << tier << ": /api/v2/metrics repeats " << key;
  }

  auto text_response = client.Get(port, "/metrics");
  ASSERT_TRUE(text_response.ok()) << tier;
  seen.clear();
  const std::string& text = text_response->body;
  for (size_t start = 0; start < text.size();) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::string series = line.substr(0, line.rfind(' '));
    EXPECT_TRUE(seen.insert(series).second)
        << tier << ": /metrics repeats " << series;
  }
  EXPECT_FALSE(seen.empty()) << tier;
}

}  // namespace agoraeo::metrics_test

#endif  // AGORAEO_TESTS_METRICS_TEST_UTIL_H_
