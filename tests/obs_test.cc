/// Tests for the observability layer: histogram quantile correctness
/// against a sorted reference, concurrent record/snapshot safety (run
/// under TSan in CI), the Prometheus exposition golden shape, slow-query
/// ring eviction, and end-to-end trace propagation across a 2-node
/// cluster fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "cluster/cluster_node.h"
#include "cluster/coordinator.h"
#include "cluster/slot_table.h"
#include "common/binary_code.h"
#include "earthqube/earthqube.h"
#include "json/json.h"
#include "milan/milan_model.h"
#include "netsvc/client.h"
#include "netsvc/server.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"

namespace agoraeo::obs {
namespace {

using docstore::Document;
using docstore::Value;

// --- histogram ---------------------------------------------------------------

TEST(HistogramTest, QuantilesMatchSortedReference) {
  Histogram histogram(1'000, 10'000'000);
  std::vector<uint64_t> reference;
  // Deterministic LCG stream spread over three and a half decades.
  uint64_t x = 0x12345678abcdef01ULL;
  for (int i = 0; i < 10'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t value = 1'000 + (x >> 33) % 5'000'000;
    histogram.Record(value);
    reference.push_back(value);
  }
  std::sort(reference.begin(), reference.end());

  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, reference.size());
  uint64_t expected_sum = 0;
  for (uint64_t v : reference) expected_sum += v;
  EXPECT_EQ(snapshot.sum, expected_sum);

  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const size_t rank = std::min(
        reference.size() - 1,
        static_cast<size_t>(q * static_cast<double>(reference.size())));
    const double exact = static_cast<double>(reference[rank]);
    const double approx = static_cast<double>(snapshot.Quantile(q));
    // Log-bucketed with four sub-buckets per octave: ~9% worst-case
    // bucket width; interpolation keeps the error well inside 15%.
    EXPECT_NEAR(approx, exact, exact * 0.15) << "q=" << q;
  }
}

TEST(HistogramTest, OverflowReportsTopBoundAsFloor) {
  Histogram histogram(100, 200);
  histogram.Record(1'000'000);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1u);
  // Values past the top bound report the bound — "at least this".
  EXPECT_EQ(snapshot.Quantile(0.5), snapshot.bounds.back());
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram histogram(1'000, 1'000'000);
  EXPECT_EQ(histogram.Snapshot().Quantile(0.99), 0u);
  EXPECT_EQ(histogram.Snapshot().MeanNs(), 0.0);
}

TEST(HistogramTest, ConcurrentRecordAndSnapshot) {
  // 8 writers hammer one histogram while readers snapshot it; the final
  // snapshot must account for every record.  This is the TSan probe for
  // the striped-atomic design.
  Histogram histogram(1'000, 1'000'000);
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("agoraeo_hammer_total");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const HistogramSnapshot snapshot = histogram.Snapshot();
      // Monotone sanity under concurrency: never more sum than count*max.
      EXPECT_LE(snapshot.count, static_cast<uint64_t>(kThreads) * kPerThread);
      (void)registry.PrometheusText();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<uint64_t>(1'000 + (i + t) % 1'000));
        counter->Increment();
      }
    });
  }
  for (auto& thread : writers) thread.join();
  stop = true;
  reader.join();

  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(counter->value(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      expected_sum += static_cast<uint64_t>(1'000 + (i + t) % 1'000);
    }
  }
  EXPECT_EQ(snapshot.sum, expected_sum);
}

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("agoraeo_a_total");
  Gauge* g = registry.GetGauge("agoraeo_g");
  Histogram* h = registry.GetHistogram("agoraeo_h_ns", 1'000, 1'000'000);
  EXPECT_EQ(a, registry.GetCounter("agoraeo_a_total"));
  EXPECT_EQ(g, registry.GetGauge("agoraeo_g"));
  EXPECT_EQ(h, registry.GetHistogram("agoraeo_h_ns", 1, 2));
}

// --- exposition --------------------------------------------------------------

TEST(MetricsRegistryTest, PrometheusExpositionGolden) {
  MetricsRegistry registry;
  registry
      .GetCounter(
          LabeledName("agoraeo_demo_requests_total", "route", "POST /api/v2/query"))
      ->Add(3);
  registry.GetGauge("agoraeo_demo_inflight")->Set(-2);
  // min=100 max=200 gives bounds [100,125,150,175,200]; all records land
  // in the first bucket (lower edge 0), so quantiles interpolate to
  // exactly 100*q and the exposition is byte-stable.
  Histogram* latency = registry.GetHistogram("agoraeo_demo_latency_ns", 100, 200);
  for (int i = 0; i < 4; ++i) latency->Record(100);
  Histogram* shard =
      registry.GetHistogram(LabeledName("agoraeo_demo_shard_ns", "shard", "3"),
                            100, 200);
  shard->Record(100);
  registry.AddCollector([](std::vector<Sample>* out) {
    out->push_back({LabeledName("agoraeo_demo_collected_total", "cache",
                                "response"),
                    SampleKind::kCounter, 7});
    out->push_back({LabeledName("agoraeo_demo_collected_total", "cache",
                                "negative"),
                    SampleKind::kCounter, 2});
    out->push_back({"agoraeo_demo_items", SampleKind::kGauge, 12.5});
  });

  const std::string expected =
      "# TYPE agoraeo_demo_requests_total counter\n"
      "agoraeo_demo_requests_total{route=\"POST /api/v2/query\"} 3\n"
      "# TYPE agoraeo_demo_inflight gauge\n"
      "agoraeo_demo_inflight -2\n"
      "# TYPE agoraeo_demo_latency_ns summary\n"
      "agoraeo_demo_latency_ns{quantile=\"0.5\"} 50\n"
      "agoraeo_demo_latency_ns{quantile=\"0.9\"} 90\n"
      "agoraeo_demo_latency_ns{quantile=\"0.99\"} 99\n"
      "agoraeo_demo_latency_ns{quantile=\"0.999\"} 99\n"
      "agoraeo_demo_latency_ns_sum 400\n"
      "agoraeo_demo_latency_ns_count 4\n"
      "# TYPE agoraeo_demo_shard_ns summary\n"
      "agoraeo_demo_shard_ns{shard=\"3\",quantile=\"0.5\"} 50\n"
      "agoraeo_demo_shard_ns{shard=\"3\",quantile=\"0.9\"} 90\n"
      "agoraeo_demo_shard_ns{shard=\"3\",quantile=\"0.99\"} 99\n"
      "agoraeo_demo_shard_ns{shard=\"3\",quantile=\"0.999\"} 99\n"
      "agoraeo_demo_shard_ns_sum{shard=\"3\"} 100\n"
      "agoraeo_demo_shard_ns_count{shard=\"3\"} 1\n"
      "# TYPE agoraeo_demo_collected_total counter\n"
      "agoraeo_demo_collected_total{cache=\"response\"} 7\n"
      "agoraeo_demo_collected_total{cache=\"negative\"} 2\n"
      "# TYPE agoraeo_demo_items gauge\n"
      "agoraeo_demo_items 12.5\n";
  EXPECT_EQ(registry.PrometheusText(), expected);
}

TEST(MetricsRegistryTest, JsonTextParses) {
  MetricsRegistry registry;
  registry.GetCounter("agoraeo_a_total")->Add(9);
  registry.GetHistogram("agoraeo_h_ns", 100, 200)->Record(100);
  registry.AddCollector([](std::vector<Sample>* out) {
    out->push_back({"agoraeo_items", SampleKind::kGauge, 4});
  });
  auto doc = json::ParseObject(registry.JsonText());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Get("agoraeo_a_total")->as_int64(), 9);
  EXPECT_EQ(doc->Get("agoraeo_items")->as_int64(), 4);
  const Value* histogram = doc->Get("agoraeo_h_ns");
  ASSERT_NE(histogram, nullptr);
  ASSERT_TRUE(histogram->is_document());
  EXPECT_EQ(histogram->as_document().Get("count")->as_int64(), 1);
  EXPECT_EQ(histogram->as_document().Get("sum_ns")->as_int64(), 100);
}

TEST(MetricsRegistryTest, LabeledNameEscapes) {
  EXPECT_EQ(LabeledName("m", "k", "a\"b\\c\nd"),
            "m{k=\"a\\\"b\\\\c\\nd\"}");
}

// --- observability bundle gating ---------------------------------------------

TEST(ObservabilityTest, DisabledMetricsAndTracingReturnNull) {
  ObsConfig config;
  config.enable_metrics = false;
  config.enable_tracing = false;
  Observability off(config);
  EXPECT_EQ(off.CounterOrNull("agoraeo_x_total"), nullptr);
  EXPECT_EQ(off.GaugeOrNull("agoraeo_x"), nullptr);
  EXPECT_EQ(off.HistogramOrNull("agoraeo_x_ns"), nullptr);
  EXPECT_EQ(off.StartTrace(), nullptr);
  EXPECT_EQ(off.StartTrace("deadbeefdeadbeef"), nullptr);

  Observability on;
  EXPECT_NE(on.CounterOrNull("agoraeo_x_total"), nullptr);
  auto trace = on.StartTrace("deadbeefdeadbeef");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->id(), "deadbeefdeadbeef");
}

// --- traces ------------------------------------------------------------------

TEST(TraceTest, NewIdIsSixteenHexAndUnique) {
  std::set<std::string> ids;
  for (int i = 0; i < 1'000; ++i) {
    const std::string id = Trace::NewId();
    ASSERT_EQ(id.size(), 16u);
    EXPECT_EQ(id.find_first_not_of("0123456789abcdef"), std::string::npos);
    EXPECT_TRUE(ids.insert(id).second) << id;
  }
}

TEST(TraceTest, ToJsonCarriesSpansAndChildren) {
  Trace trace("cafef00dcafef00d");
  trace.AddSpan("index_pass", trace.born_ns() + 2'000, 5'000);
  trace.AddChild("n1", {{"execute", 0, 3'000}});
  auto doc = json::ParseObject(trace.ToJson());
  ASSERT_TRUE(doc.ok()) << trace.ToJson();
  EXPECT_EQ(doc->Get("trace_id")->as_string(), "cafef00dcafef00d");
  const auto& spans = doc->Get("spans")->as_array();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].as_document().Get("name")->as_string(), "index_pass");
  EXPECT_EQ(spans[0].as_document().Get("start_us")->as_int64(), 2);
  EXPECT_EQ(spans[0].as_document().Get("dur_us")->as_int64(), 5);
  const auto& children = doc->Get("children")->as_array();
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0].as_document().Get("node")->as_string(), "n1");
  EXPECT_EQ(children[0].as_document().Get("spans")->as_array().size(), 1u);
}

// --- slow-query log ----------------------------------------------------------

TEST(SlowQueryLogTest, RingEvictsOldestAndServesWorstFirst) {
  SlowQueryLog log(/*threshold_ns=*/100, /*capacity=*/3);
  log.Observe(50, "t0", "fast", "");  // below threshold: rejected
  log.Observe(150, "ta", "a", "");
  log.Observe(300, "tb", "b", "");
  log.Observe(200, "tc", "c", "");
  log.Observe(400, "td", "d", "");  // evicts "a" (oldest by seq)

  const std::vector<SlowQueryRecord> worst = log.WorstFirst();
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_EQ(worst[0].trace_id, "td");
  EXPECT_EQ(worst[1].trace_id, "tb");
  EXPECT_EQ(worst[2].trace_id, "tc");
  EXPECT_GT(worst[0].seq, worst[1].seq);

  auto doc = json::ParseObject(log.ToJson());
  ASSERT_TRUE(doc.ok()) << log.ToJson();
  EXPECT_EQ(doc->Get("count")->as_int64(), 3);
  EXPECT_EQ(doc->Get("slow_queries")->as_array().size(), 3u);
}

TEST(SlowQueryLogTest, ZeroCapacityKeepsNothing) {
  SlowQueryLog log(0, 0);
  log.Observe(1'000'000, "t", "s", "");
  EXPECT_TRUE(log.WorstFirst().empty());
}

// --- cluster trace propagation -----------------------------------------------

TEST(ClusterTraceTest, FanOutMergesChildSpansFromEveryNode) {
  // A tiny 2-node cluster: codes are synthetic (no model training — the
  // coordinator ships codes on ingest and the test queries by panel and
  // by code only), and both tiers run with slow-query threshold 0 so
  // every request lands in the ring with its full trace.
  bigearthnet::ArchiveConfig archive_config;
  archive_config.num_patches = 60;
  archive_config.seed = 5;
  bigearthnet::ArchiveGenerator generator(archive_config);
  auto archive = generator.Generate();
  ASSERT_TRUE(archive.ok());
  std::vector<BinaryCode> codes;
  for (const auto& patch : archive->patches) {
    std::string bits;
    for (int b = 0; b < 32; ++b) bits += (patch.name.size() + b) % 3 ? '1' : '0';
    codes.push_back(BinaryCode::FromBitString(bits));
  }

  bigearthnet::FeatureExtractor extractor;
  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 16;
  mconfig.hidden2 = 8;
  mconfig.hash_bits = 32;
  auto make_system = [&] {
    earthqube::EarthQubeConfig config;
    config.obs.slow_query_threshold_ns = 0;
    auto* system = new earthqube::EarthQube(config);
    system->AttachCbir(std::make_unique<earthqube::CbirService>(
        std::make_unique<milan::MilanModel>(mconfig), &extractor));
    return system;
  };
  std::unique_ptr<earthqube::EarthQube> s1(make_system());
  std::unique_ptr<earthqube::EarthQube> s2(make_system());

  cluster::ClusterNode::Options o1, o2;
  o1.id = "t1";
  o2.id = "t2";
  cluster::ClusterNode n1(s1.get(), o1);
  cluster::ClusterNode n2(s2.get(), o2);
  ASSERT_TRUE(n1.Start(0).ok());
  ASSERT_TRUE(n2.Start(0).ok());
  const cluster::SlotTable table({n1.address(), n2.address()}, 16);
  n1.SetTable(table);
  n2.SetTable(table);

  cluster::Coordinator::Options coordinator_options;
  coordinator_options.obs.slow_query_threshold_ns = 0;
  cluster::Coordinator coordinator(coordinator_options);
  coordinator.AttachTable(table);
  ASSERT_TRUE(coordinator.IngestArchive(*archive, codes).ok());

  auto result = coordinator.Query(R"({"panel":{"seasons":["summer"]}})");
  ASSERT_TRUE(result.ok()) << result.status().message();

  // The coordinator's slow log holds ONE merged trace for the fan-out:
  // its own resolve/fanout/merge spans plus a child span set per node.
  const std::vector<SlowQueryRecord> worst =
      coordinator.obs().slow_log().WorstFirst();
  ASSERT_FALSE(worst.empty());
  const SlowQueryRecord* fanout_record = nullptr;
  for (const SlowQueryRecord& record : worst) {
    if (record.summary.find("fan-out") != std::string::npos) {
      fanout_record = &record;
      break;
    }
  }
  ASSERT_NE(fanout_record, nullptr);
  EXPECT_EQ(fanout_record->trace_id.size(), 16u);
  auto trace_doc = json::ParseObject(fanout_record->trace_json);
  ASSERT_TRUE(trace_doc.ok()) << fanout_record->trace_json;
  EXPECT_EQ(trace_doc->Get("trace_id")->as_string(), fanout_record->trace_id);
  std::set<std::string> span_names;
  for (const Value& span : trace_doc->Get("spans")->as_array()) {
    span_names.insert(span.as_document().Get("name")->as_string());
  }
  EXPECT_TRUE(span_names.count("fanout")) << fanout_record->trace_json;
  EXPECT_TRUE(span_names.count("merge")) << fanout_record->trace_json;
  const auto& children = trace_doc->Get("children")->as_array();
  ASSERT_EQ(children.size(), 2u) << fanout_record->trace_json;
  std::set<std::string> child_nodes;
  for (const Value& child : children) {
    child_nodes.insert(child.as_document().Get("node")->as_string());
    EXPECT_FALSE(child.as_document().Get("spans")->as_array().empty());
  }
  EXPECT_EQ(child_nodes, (std::set<std::string>{"t1", "t2"}));

  // Each node adopted the coordinator's trace id: the same id shows up
  // in the node-side slow logs (threshold 0 there too).
  for (earthqube::EarthQube* system : {s1.get(), s2.get()}) {
    bool found = false;
    for (const SlowQueryRecord& record : system->obs().slow_log().WorstFirst()) {
      if (record.trace_id == fanout_record->trace_id) found = true;
    }
    EXPECT_TRUE(found) << "node missing propagated trace "
                       << fanout_record->trace_id;
  }

  // Direct node probe: a propagated x-trace-id is adopted verbatim and
  // the stage spans come back in x-trace-spans.
  netsvc::HttpClient client;
  auto direct = client.Request(
      {.port = n1.port(),
       .target = "/api/v2/query",
       .body = R"({"panel":{"limit":5}})",
       .headers = {{"x-trace-id", "feedface00000000"}}});
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(direct->status_code, 200) << direct->body;
  auto id_header = direct->headers.find("x-trace-id");
  ASSERT_NE(id_header, direct->headers.end());
  EXPECT_EQ(id_header->second, "feedface00000000");
  auto spans_header = direct->headers.find("x-trace-spans");
  ASSERT_NE(spans_header, direct->headers.end());
  auto spans = json::Parse(spans_header->second);
  ASSERT_TRUE(spans.ok()) << spans_header->second;
  EXPECT_TRUE(spans->is_array());
  EXPECT_FALSE(spans->as_array().empty());

  // The node serves the full registry at /metrics (HTTP-layer counters
  // included); the coordinator's own registry has the client metrics.
  auto node_metrics = client.Get(n1.port(), "/metrics");
  ASSERT_TRUE(node_metrics.ok());
  ASSERT_EQ(node_metrics->status_code, 200);
  EXPECT_NE(node_metrics->body.find("agoraeo_http_requests_total"),
            std::string::npos);

  netsvc::HttpServer coordinator_server(2);
  coordinator.RegisterRoutes(&coordinator_server);
  ASSERT_TRUE(coordinator_server.Start(0).ok());
  auto coordinator_metrics = client.Get(coordinator_server.port(), "/metrics");
  ASSERT_TRUE(coordinator_metrics.ok());
  ASSERT_EQ(coordinator_metrics->status_code, 200);
  EXPECT_NE(
      coordinator_metrics->body.find("agoraeo_http_client_requests_total"),
      std::string::npos);
  auto slow = client.Get(coordinator_server.port(),
                         "/api/v2/debug/slow_queries");
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow->status_code, 200);
  auto slow_doc = json::ParseObject(slow->body);
  ASSERT_TRUE(slow_doc.ok());
  EXPECT_GT(slow_doc->Get("count")->as_int64(), 0);
  coordinator_server.Stop();

  n1.Stop();
  n2.Stop();
}

}  // namespace
}  // namespace agoraeo::obs
