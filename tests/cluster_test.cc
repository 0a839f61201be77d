/// Tests for the cluster tier: slot routing, the wire codecs, a real
/// 3-node deployment answering the full v2 query matrix byte-identically
/// to a monolithic deployment over the same archive, MOVED redirect
/// discipline, and live slot migration under concurrent query load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "metrics_test_util.h"
#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "cache/cache_stats.h"
#include "cluster/cluster_node.h"
#include "cluster/coordinator.h"
#include "cluster/slot_table.h"
#include "cluster/wire.h"
#include "earthqube/earthqube.h"
#include "json/json.h"
#include "milan/milan_model.h"
#include "milan/trainer.h"
#include "milan/triplet_sampler.h"
#include "netsvc/client.h"
#include "netsvc/earthqube_service.h"
#include "netsvc/http.h"
#include "netsvc/server.h"
#include "obs/metrics.h"

namespace agoraeo::cluster {
namespace {

using docstore::Document;
using docstore::Value;
using netsvc::HttpClient;
using netsvc::HttpResponse;

// --- slot routing ------------------------------------------------------------

TEST(SlotTableTest, SlotOfIsDeterministicAndInRange) {
  for (const std::string name :
       {"S2A_MSIL2A_20170613T101031_0_45", "S2B_MSIL2A_20170613T101031_0_46",
        "a", "", "S2A_MSIL2A_20170613T101031_0_45x"}) {
    const size_t slot = SlotOf(name, 1024);
    EXPECT_LT(slot, 1024u);
    EXPECT_EQ(slot, SlotOf(name, 1024)) << name;
  }
  // Single-slot tables route everything to slot 0.
  EXPECT_EQ(SlotOf("anything", 1), 0u);
  EXPECT_EQ(SlotOf("anything", 0), 0u);
}

TEST(SlotTableTest, SlotOfSpreadsSimilarNames) {
  // Patch names share long prefixes; the mixer must still spread them.
  std::set<size_t> slots;
  for (int i = 0; i < 256; ++i) {
    slots.insert(SlotOf("S2A_MSIL2A_20170613T101031_0_" + std::to_string(i),
                        1024));
  }
  EXPECT_GT(slots.size(), 180u);
}

TEST(SlotTableTest, EvenPartitionCoversEverySlot) {
  const SlotTable table({{"n1", "127.0.0.1", 1001},
                         {"n2", "127.0.0.1", 1002},
                         {"n3", "127.0.0.1", 1003}},
                        16);
  EXPECT_EQ(table.epoch(), 1u);
  EXPECT_EQ(table.num_slots(), 16u);
  size_t total = 0;
  for (const std::string id : {"n1", "n2", "n3"}) {
    const size_t owned = table.CountOwnedBy(id);
    EXPECT_GE(owned, 5u) << id;
    EXPECT_LE(owned, 6u) << id;
    total += owned;
  }
  EXPECT_EQ(total, 16u);
  for (size_t slot = 0; slot < 16; ++slot) {
    EXPECT_NE(table.OwnerOfSlot(slot), nullptr) << slot;
  }
  EXPECT_EQ(table.OwnerOfSlot(99), nullptr);
}

TEST(SlotTableTest, AssignSlotRewiresOwnership) {
  SlotTable table({{"n1", "127.0.0.1", 1001}, {"n2", "127.0.0.1", 1002}}, 8);
  ASSERT_TRUE(table.AssignSlot(0, "n2").ok());
  EXPECT_EQ(table.OwnerOfSlot(0)->id, "n2");
  EXPECT_FALSE(table.AssignSlot(0, "ghost").ok());
  EXPECT_FALSE(table.AssignSlot(64, "n1").ok());
}

TEST(SlotTableTest, JsonRoundTrip) {
  SlotTable table({{"n1", "127.0.0.1", 1001}, {"n2", "10.0.0.7", 1002}}, 8);
  table.set_epoch(42);
  ASSERT_TRUE(table.AssignSlot(3, "n2").ok());
  auto back = SlotTable::FromJson(table.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->epoch(), 42u);
  EXPECT_EQ(back->num_slots(), 8u);
  ASSERT_EQ(back->num_nodes(), 2u);
  EXPECT_EQ(back->node(1).host, "10.0.0.7");
  for (size_t slot = 0; slot < 8; ++slot) {
    EXPECT_EQ(back->OwnerOfSlot(slot)->id, table.OwnerOfSlot(slot)->id);
  }
}

TEST(SlotTableTest, FromJsonRejectsMalformed) {
  SlotTable table({{"n1", "127.0.0.1", 1001}}, 4);
  Document good = table.ToJson();

  Document bad = good;
  bad.Set("num_slots", Value(static_cast<int64_t>(5)));
  EXPECT_FALSE(SlotTable::FromJson(bad).ok());  // slots length mismatch

  bad = good;
  bad.Set("epoch", Value(std::string("later")));
  EXPECT_FALSE(SlotTable::FromJson(bad).ok());

  bad = good;
  bad.Remove("nodes");
  EXPECT_FALSE(SlotTable::FromJson(bad).ok());

  bad = good;
  bad.Set("slots", Value(std::vector<Value>{
                       Value(static_cast<int64_t>(7)), Value(static_cast<int64_t>(0)),
                       Value(static_cast<int64_t>(0)), Value(static_cast<int64_t>(0))}));
  EXPECT_FALSE(SlotTable::FromJson(bad).ok());  // owner out of range
}

// --- wire codecs -------------------------------------------------------------

TEST(WireTest, MovedBodyRoundTrip) {
  const Document body = MovedBody(17, {"n2", "127.0.0.1", 4242}, 9);
  auto moved = ParseMovedBody(body);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->slot, 17u);
  EXPECT_EQ(moved->owner.id, "n2");
  EXPECT_EQ(moved->owner.host, "127.0.0.1");
  EXPECT_EQ(moved->owner.port, 4242);
  EXPECT_EQ(moved->epoch, 9u);
}

TEST(WireTest, SlotPayloadRoundTrip) {
  SlotPayload payload;
  payload.slot = 5;
  payload.epoch = 3;
  bigearthnet::ArchiveConfig config;
  config.num_patches = 6;
  config.seed = 9;
  bigearthnet::ArchiveGenerator generator(config);
  auto archive = generator.Generate();
  ASSERT_TRUE(archive.ok());
  for (const auto& patch : archive->patches) {
    payload.names.push_back(patch.name);
    payload.metadata.push_back(patch);
    std::string bits;
    for (int b = 0; b < 32; ++b) bits += (patch.name.size() + b) % 3 ? '1' : '0';
    payload.codes.push_back(BinaryCode::FromBitString(bits));
  }
  auto doc = SlotPayloadToJson(payload);
  ASSERT_TRUE(doc.ok());
  // The payload survives a serialize/parse cycle (what actually crosses
  // the wire between nodes).
  auto reparsed = json::ParseObject(json::Serialize(*doc));
  ASSERT_TRUE(reparsed.ok());
  auto back = ParseSlotPayload(*reparsed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->slot, 5u);
  EXPECT_EQ(back->epoch, 3u);
  ASSERT_EQ(back->names.size(), payload.names.size());
  for (size_t i = 0; i < payload.names.size(); ++i) {
    EXPECT_EQ(back->names[i], payload.names[i]);
    EXPECT_EQ(back->codes[i].ToBitString(), payload.codes[i].ToBitString());
    EXPECT_EQ(back->metadata[i].name, payload.metadata[i].name);
    EXPECT_EQ(back->metadata[i].labels, payload.metadata[i].labels);
    EXPECT_EQ(back->metadata[i].country, payload.metadata[i].country);
  }
}

// --- 3-node cluster vs monolith ----------------------------------------------

/// Strips the two fields that legitimately differ between a monolithic
/// and a clustered answer: the plan (the coordinator synthesises its
/// own) and the cache marker.  Everything else must be byte-identical.
std::string Canonical(const std::string& body) {
  auto doc = json::ParseObject(body);
  EXPECT_TRUE(doc.ok()) << body;
  if (!doc.ok()) return body;
  doc->Remove("plan");
  doc->Remove("served_from_cache");
  // Batch envelopes nest the per-request responses.
  const Value* responses = doc->Get("responses");
  if (responses != nullptr && responses->is_array()) {
    std::vector<Value> cleaned;
    for (const Value& entry : responses->as_array()) {
      Document one = entry.as_document();
      one.Remove("plan");
      one.Remove("served_from_cache");
      cleaned.emplace_back(std::move(one));
    }
    doc->Set("responses", Value(std::move(cleaned)));
  }
  return json::Serialize(*doc);
}

class ClusterTest : public ::testing::Test {
 protected:
  static constexpr size_t kNumSlots = 64;

  static void SetUpTestSuite() {
    bigearthnet::ArchiveConfig config;
    config.num_patches = 800;
    config.seed = 77;
    generator_ = new bigearthnet::ArchiveGenerator(config);
    auto archive = generator_->Generate();
    ASSERT_TRUE(archive.ok());
    archive_ = new bigearthnet::Archive(std::move(archive).value());

    // One trained model shared (via save/load) by the monolith and
    // every node: identical codes everywhere.
    bigearthnet::FeatureExtractor extractor;
    Tensor features = extractor.ExtractArchive(*archive_, *generator_, 2);
    milan::MilanConfig mconfig;
    mconfig.feature_dim = bigearthnet::kFeatureDim;
    mconfig.hidden1 = 64;
    mconfig.hidden2 = 32;
    mconfig.hash_bits = 32;
    mconfig.dropout = 0.0f;
    auto model = std::make_unique<milan::MilanModel>(mconfig);
    std::vector<bigearthnet::LabelSet> labels;
    for (const auto& p : archive_->patches) labels.push_back(p.labels);
    milan::TripletSampler sampler(labels);
    milan::TrainConfig tconfig;
    tconfig.epochs = 2;
    tconfig.batches_per_epoch = 10;
    tconfig.batch_size = 16;
    milan::Trainer trainer(model.get(), &features, &sampler, tconfig);
    ASSERT_TRUE(trainer.Train().ok());
    model_path_ = new std::string(
        (std::filesystem::temp_directory_path() / "cluster_test_model.milan")
            .string());
    ASSERT_TRUE(model->Save(*model_path_).ok());

    // Monolithic reference deployment.
    extractor_ = new bigearthnet::FeatureExtractor();
    mono_ = new earthqube::EarthQube();
    ASSERT_TRUE(mono_->IngestArchive(*archive_).ok());
    auto mono_cbir =
        std::make_unique<earthqube::CbirService>(std::move(model), extractor_);
    std::vector<std::string> names;
    for (const auto& p : archive_->patches) names.push_back(p.name);
    ASSERT_TRUE(mono_cbir->AddImages(names, features).ok());
    mono_->AttachCbir(std::move(mono_cbir));
    mono_service_ = new netsvc::EarthQubeService(mono_);
    mono_server_ = new netsvc::HttpServer(2);
    mono_service_->RegisterRoutes(mono_server_);
    ASSERT_TRUE(mono_server_->Start(0).ok());

    // The monolith's codes are the cluster's ingest payload.
    codes_ = new std::vector<BinaryCode>();
    for (const auto& p : archive_->patches) {
      auto code = mono_->cbir()->CodeOf(p.name);
      ASSERT_TRUE(code.ok()) << p.name;
      codes_->push_back(*std::move(code));
    }

    // Three cluster nodes, each a full stack over an empty system.
    for (int i = 0; i < 3; ++i) {
      systems_[i] = NewNodeSystem();
      ClusterNode::Options options;
      options.id = "n" + std::to_string(i + 1);
      nodes_[i] = new ClusterNode(systems_[i], options);
      ASSERT_TRUE(nodes_[i]->Start(0).ok());
    }
    const SlotTable table({nodes_[0]->address(), nodes_[1]->address(),
                           nodes_[2]->address()},
                          kNumSlots);
    for (auto* node : nodes_) node->SetTable(table);

    coordinator_ = new Coordinator();
    coordinator_->AttachTable(table);
    ASSERT_TRUE(coordinator_->IngestArchive(*archive_, *codes_).ok());

    coordinator_server_ = new netsvc::HttpServer(2);
    coordinator_->RegisterRoutes(coordinator_server_);
    ASSERT_TRUE(coordinator_server_->Start(0).ok());
  }

  static void TearDownTestSuite() {
    coordinator_server_->Stop();
    delete coordinator_server_;
    delete coordinator_;
    for (auto*& node : nodes_) {
      node->Stop();
      delete node;
      node = nullptr;
    }
    for (auto*& system : systems_) {
      delete system;
      system = nullptr;
    }
    mono_server_->Stop();
    delete mono_server_;
    delete mono_service_;
    delete mono_;
    delete extractor_;
    delete codes_;
    std::filesystem::remove(*model_path_);
    delete model_path_;
    delete archive_;
    delete generator_;
  }

  /// A fresh single-node stack with the shared model loaded.
  static earthqube::EarthQube* NewNodeSystem(
      const earthqube::EarthQubeConfig& config = {}) {
    auto* system = new earthqube::EarthQube(config);
    auto model = milan::MilanModel::Load(*model_path_);
    EXPECT_TRUE(model.ok());
    system->AttachCbir(std::make_unique<earthqube::CbirService>(
        std::move(*model), extractor_));
    return system;
  }

  /// Posts the same body to the monolith and the coordinator and
  /// expects canonically identical answers.
  static void ExpectParity(const std::string& body) {
    ExpectParityAt(coordinator_server_->port(), body);
  }

  /// ExpectParity against the coordinator serving on `port`.
  static void ExpectParityAt(uint16_t port, const std::string& body) {
    HttpClient client;
    auto mono = client.Post(mono_server_->port(), "/api/v2/query", body);
    auto cluster = client.Post(port, "/api/v2/query", body);
    ASSERT_TRUE(mono.ok());
    ASSERT_TRUE(cluster.ok());
    ASSERT_EQ(mono->status_code, 200) << mono->body;
    ASSERT_EQ(cluster->status_code, 200) << cluster->body;
    EXPECT_EQ(Canonical(cluster->body), Canonical(mono->body)) << body;
  }

  /// Walks the windowed ranking `request` (the body's fields, without
  /// braces) page by page on the monolith and on the coordinator at
  /// `port`, each side following its own cursor, and expects identical
  /// pages and identical cursor tokens.  Returns the pages walked.
  static size_t ExpectWalkParity(uint16_t port, const std::string& request,
                                 size_t max_pages) {
    HttpClient client;
    std::string mono_body = "{" + request + "}";
    std::string cluster_body = mono_body;
    for (size_t page = 0; page < max_pages; ++page) {
      auto mono = client.Post(mono_server_->port(), "/api/v2/query", mono_body);
      auto cluster = client.Post(port, "/api/v2/query", cluster_body);
      EXPECT_TRUE(mono.ok() && cluster.ok());
      if (!mono.ok() || !cluster.ok()) return page;
      EXPECT_EQ(mono->status_code, 200) << mono->body;
      EXPECT_EQ(cluster->status_code, 200) << cluster->body;
      EXPECT_EQ(Canonical(cluster->body), Canonical(mono->body))
          << request << " page " << page;
      auto mono_doc = json::ParseObject(mono->body);
      auto cluster_doc = json::ParseObject(cluster->body);
      EXPECT_TRUE(mono_doc.ok() && cluster_doc.ok());
      if (!mono_doc.ok() || !cluster_doc.ok()) return page;
      const std::string mono_cursor = mono_doc->Get("cursor")->as_string();
      const std::string cluster_cursor =
          cluster_doc->Get("cursor")->as_string();
      EXPECT_EQ(cluster_cursor, mono_cursor) << request << " page " << page;
      if (cluster_cursor.empty() || mono_cursor.empty()) return page + 1;
      mono_body = "{" + request + R"(,"cursor":")" + mono_cursor + R"("})";
      cluster_body =
          "{" + request + R"(,"cursor":")" + cluster_cursor + R"("})";
    }
    return max_pages;
  }

  /// Query requests the nodes serving on `ports` have answered.
  static double NodeQueryRequests(const std::vector<uint16_t>& ports) {
    double total = 0;
    for (const uint16_t port : ports) {
      total += metrics_test::MetricValue(
          metrics_test::ScrapeMetrics(port),
          obs::LabeledName("agoraeo_http_requests_total", "route",
                           "POST /api/v2/query"));
    }
    return total;
  }

  static bigearthnet::ArchiveGenerator* generator_;
  static bigearthnet::Archive* archive_;
  static bigearthnet::FeatureExtractor* extractor_;
  static std::string* model_path_;
  static std::vector<BinaryCode>* codes_;
  static earthqube::EarthQube* mono_;
  static netsvc::EarthQubeService* mono_service_;
  static netsvc::HttpServer* mono_server_;
  static earthqube::EarthQube* systems_[3];
  static ClusterNode* nodes_[3];
  static Coordinator* coordinator_;
  static netsvc::HttpServer* coordinator_server_;
};

bigearthnet::ArchiveGenerator* ClusterTest::generator_ = nullptr;
bigearthnet::Archive* ClusterTest::archive_ = nullptr;
bigearthnet::FeatureExtractor* ClusterTest::extractor_ = nullptr;
std::string* ClusterTest::model_path_ = nullptr;
std::vector<BinaryCode>* ClusterTest::codes_ = nullptr;
earthqube::EarthQube* ClusterTest::mono_ = nullptr;
netsvc::EarthQubeService* ClusterTest::mono_service_ = nullptr;
netsvc::HttpServer* ClusterTest::mono_server_ = nullptr;
earthqube::EarthQube* ClusterTest::systems_[3] = {nullptr, nullptr, nullptr};
ClusterNode* ClusterTest::nodes_[3] = {nullptr, nullptr, nullptr};
Coordinator* ClusterTest::coordinator_ = nullptr;
netsvc::HttpServer* ClusterTest::coordinator_server_ = nullptr;

TEST_F(ClusterTest, IngestSharded) {
  // Every node holds a proper, non-empty subset.
  size_t total = 0;
  for (auto* system : systems_) {
    EXPECT_GT(system->num_images(), 0u);
    EXPECT_LT(system->num_images(), archive_->patches.size());
    total += system->num_images();
  }
  EXPECT_EQ(total, archive_->patches.size());
  // And the subset is exactly the names whose slots the node owns.
  const SlotTable table = nodes_[0]->table();
  for (const auto& patch : archive_->patches) {
    const NodeAddress* owner = table.OwnerOfName(patch.name);
    ASSERT_NE(owner, nullptr);
    for (int i = 0; i < 3; ++i) {
      const bool here = nodes_[i]->id() == owner->id;
      EXPECT_EQ(systems_[i]->GetMetadata(patch.name).ok(), here) << patch.name;
    }
  }
}

TEST_F(ClusterTest, PanelQueriesMatchMonolith) {
  ExpectParity(
      R"({"panel":{"labels":{"operator":"some","names":["Broad-leaved forest",)"
      R"("Coniferous forest","Mixed forest"]}}})");
  ExpectParity(
      R"({"panel":{"date_range":{"begin":"2017-07-01","end":"2017-08-31"}}})");
  ExpectParity(
      R"({"panel":{"geo":{"rect":{"min_lat":40,"min_lon":5,)"
      R"("max_lat":55,"max_lon":20}}}})");
  ExpectParity(
      R"({"panel":{"geo":{"circle":{"lat":48.0,"lon":11.0,)"
      R"("radius_m":400000}},"satellites":["S2A"]}})");
  ExpectParity(R"({"panel":{"seasons":["summer"],"limit":37}})");
  ExpectParity(
      R"({"panel":{"labels":{"operator":"some","names":["Water bodies"]},)"
      R"("limit":10},"projection":"full"})");
}

TEST_F(ClusterTest, SimilarityByCodeMatchesMonolith) {
  const std::string code = (*codes_)[11].ToBitString();
  ExpectParity(R"({"similarity":{"code":")" + code + R"(","k":25}})");
  ExpectParity(R"({"similarity":{"code":")" + code + R"(","radius":6}})");
  ExpectParity(R"({"similarity":{"code":")" + code +
               R"(","radius":8,"limit":15}})");
  ExpectParity(R"({"similarity":{"code":")" + code +
               R"(","k":10},"projection":"full"})");
}

TEST_F(ClusterTest, WrongWidthCodeAnswers400ThroughCoordinator) {
  // Every node rejects a raw code whose width differs from its index's;
  // the coordinator hands that 400 on instead of turning it into a 500.
  const size_t bits = (*codes_)[0].size();
  HttpClient client;
  for (size_t width : {bits - 1, bits + 1, 4 * bits}) {
    const std::string body = R"({"similarity":{"code":")" +
                             std::string(width, '1') + R"(","k":5}})";
    for (const auto port :
         {mono_server_->port(), coordinator_server_->port()}) {
      auto resp = client.Post(port, "/api/v2/query", body);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->status_code, 400) << width << " bits: " << resp->body;
      auto parsed = json::ParseObject(resp->body);
      ASSERT_TRUE(parsed.ok()) << resp->body;
      EXPECT_EQ(parsed->GetPath("error.code")->as_string(), "bad_request");
    }
  }
}

TEST_F(ClusterTest, SimilarityByNameMatchesMonolith) {
  // Subjects spread over all three nodes: by-name resolution must work
  // wherever the subject lives.
  const SlotTable table = nodes_[0]->table();
  std::set<std::string> covered;
  for (const auto& patch : archive_->patches) {
    if (!covered.insert(table.OwnerOfName(patch.name)->id).second) continue;
    ExpectParity(R"({"similarity":{"name":")" + patch.name + R"(","k":20}})");
    ExpectParity(R"({"similarity":{"name":")" + patch.name +
                 R"(","radius":7},"projection":"full"})");
    if (covered.size() == 3) break;
  }
  EXPECT_EQ(covered.size(), 3u);
}

TEST_F(ClusterTest, HybridQueriesMatchMonolith) {
  const std::string code = (*codes_)[42].ToBitString();
  for (const std::string planner : {"auto", "pre_filter", "post_filter"}) {
    ExpectParity(
        R"({"panel":{"labels":{"operator":"some","names":["Pastures",)"
        R"("Water bodies","Beaches, dunes, sands"]}},)"
        R"("similarity":{"code":")" +
        code + R"(","k":30},"planner":")" + planner +
        R"(","projection":"full"})");
    ExpectParity(
        R"({"panel":{"seasons":["summer","autumn"]},)"
        R"("similarity":{"name":")" +
        archive_->patches[5].name + R"(","radius":9},"planner":")" + planner +
        R"("})");
  }
}

TEST_F(ClusterTest, PagingAndCursorMatchMonolith) {
  const std::string base =
      R"({"panel":{"labels":{"operator":"some","names":["Pastures"]}},)"
      R"("projection":"full","page_size":7)";
  ExpectParity(base + "}");
  ExpectParity(base + R"(,"page":2})");

  // Follow the cluster's cursor on BOTH deployments: the cursor itself
  // must be interchangeable.
  HttpClient client;
  auto first =
      client.Post(coordinator_server_->port(), "/api/v2/query", base + "}");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->status_code, 200) << first->body;
  auto doc = json::ParseObject(first->body);
  ASSERT_TRUE(doc.ok());
  const Value* cursor = doc->Get("cursor");
  ASSERT_NE(cursor, nullptr);
  ASSERT_TRUE(cursor->is_string());
  ExpectParity(
      R"({"panel":{"labels":{"operator":"some","names":["Pastures"]}},)"
      R"("projection":"full","cursor":")" +
      cursor->as_string() + R"("})");
}

TEST_F(ClusterTest, RankedCursorWalkMatchesMonolithPageByPage) {
  // Walk an ENTIRE ranked result set page by page on both deployments,
  // feeding each side's cursor forward.  Beyond row parity, the raw
  // cursor TOKENS must be identical: both tiers derive the v3 handle id
  // from the same page-free request fingerprint, which is what lets a
  // client move between a monolith and a cluster mid-pagination.
  const std::string code = (*codes_)[11].ToBitString();
  const std::string subject = R"("similarity":{"code":")" + code +
                              R"(","radius":8},"page_size":9)";
  const auto hits_before = coordinator_->result_cache_stats().hits;
  obs::Histogram* merge =
      coordinator_->obs().HistogramOrNull("agoraeo_cluster_merge_ns");
  ASSERT_NE(merge, nullptr);
  const uint64_t fanouts_before = merge->Snapshot().count;

  HttpClient client;
  std::string body = "{" + subject + "}";
  size_t pages = 0;
  for (; pages < 120; ++pages) {
    auto mono = client.Post(mono_server_->port(), "/api/v2/query", body);
    auto cluster =
        client.Post(coordinator_server_->port(), "/api/v2/query", body);
    ASSERT_TRUE(mono.ok());
    ASSERT_TRUE(cluster.ok());
    ASSERT_EQ(mono->status_code, 200) << mono->body;
    ASSERT_EQ(cluster->status_code, 200) << cluster->body;
    EXPECT_EQ(Canonical(cluster->body), Canonical(mono->body)) << body;

    auto mono_doc = json::ParseObject(mono->body);
    auto cluster_doc = json::ParseObject(cluster->body);
    ASSERT_TRUE(mono_doc.ok());
    ASSERT_TRUE(cluster_doc.ok());
    const Value* mono_cursor = mono_doc->Get("cursor");
    const Value* cluster_cursor = cluster_doc->Get("cursor");
    ASSERT_NE(mono_cursor, nullptr);
    ASSERT_NE(cluster_cursor, nullptr);
    EXPECT_EQ(cluster_cursor->as_string(), mono_cursor->as_string())
        << "cursor tokens diverged on page " << pages;
    if (cluster_cursor->as_string().empty()) break;
    body = "{" + subject + R"(,"cursor":")" + cluster_cursor->as_string() +
           R"("})";
  }
  EXPECT_GT(pages, 1u) << "ranking too small to exercise cursor resume";
  ASSERT_LT(pages, 120u) << "cursor chain never terminated";

  // Exactly two fan-outs (one merge sample each): the first page
  // fetched only its window, the second found that ranking too shallow
  // (a cache miss) and fanned out for the whole ranking, and every
  // later page was a slice of the cached ranking.
  EXPECT_EQ(merge->Snapshot().count - fanouts_before, 2u);
  EXPECT_EQ(coordinator_->result_cache_stats().hits - hits_before, pages - 1);
}

TEST_F(ClusterTest, BoundedWindowWalksMatchMonolith) {
  // Each page fans out only the rows its window needs (page end + 1 per
  // node) when that is fewer than k or the limit; every page, cursor and
  // reported total must still equal the monolith's.
  const std::string code = (*codes_)[11].ToBitString();
  const uint16_t port = coordinator_server_->port();
  EXPECT_EQ(ExpectWalkParity(port,
                             R"("similarity":{"code":")" + code +
                                 R"(","k":100},"page_size":20)",
                             10),
            5u);
  EXPECT_GT(ExpectWalkParity(port,
                             R"("similarity":{"code":")" + code +
                                 R"(","radius":12,"limit":45},"page_size":8)",
                             10),
            2u);
  EXPECT_GT(ExpectWalkParity(port,
                             R"("similarity":{"name":")" +
                                 archive_->patches[7].name +
                                 R"(","k":60},"page_size":15,)"
                                 R"("projection":"full")",
                             10),
            2u);
  EXPECT_GT(ExpectWalkParity(
                port,
                R"("panel":{"seasons":["summer","autumn"]},)"
                R"("similarity":{"code":")" +
                    code + R"(","radius":11},"page_size":6)",
                10),
            2u);
}

TEST_F(ClusterTest, PagePastCachedDepthFansOutAgain) {
  const std::vector<uint16_t> node_ports = {
      nodes_[0]->port(), nodes_[1]->port(), nodes_[2]->port()};
  const std::string base = R"({"similarity":{"code":")" +
                           (*codes_)[29].ToBitString() +
                           R"(","k":90},"page_size":10)";
  const double start = NodeQueryRequests(node_ports);
  ExpectParity(base + "}");  // page 0: 11 rows per node
  const double after_first = NodeQueryRequests(node_ports);
  EXPECT_GE(after_first - start, 3);
  // Rows 40-49 lie past the cached 11: the coordinator fans out again
  // (for the whole k) instead of answering a short or empty page.
  ExpectParity(base + R"(,"page":4})");
  const double after_deep = NodeQueryRequests(node_ports);
  EXPECT_GE(after_deep - after_first, 3);
  // The deeper ranking now serves any page from the cache.
  ExpectParity(base + R"(,"page":8})");
  ExpectParity(base + R"(,"page":1})");
  EXPECT_EQ(NodeQueryRequests(node_ports), after_deep);
}

TEST_F(ClusterTest, OneFanoutRecordsOneMergeSample) {
  obs::Histogram* merge =
      coordinator_->obs().HistogramOrNull("agoraeo_cluster_merge_ns");
  obs::Histogram* fanout =
      coordinator_->obs().HistogramOrNull("agoraeo_cluster_fanout_ns");
  ASSERT_NE(merge, nullptr);
  ASSERT_NE(fanout, nullptr);
  const uint64_t merges = merge->Snapshot().count;
  const uint64_t fanouts = fanout->Snapshot().count;
  const std::string body = R"({"similarity":{"code":")" +
                           (*codes_)[5].ToBitString() + R"(","k":17}})";
  ASSERT_TRUE(coordinator_->Query(body).ok());
  EXPECT_EQ(merge->Snapshot().count, merges + 1);
  EXPECT_EQ(fanout->Snapshot().count, fanouts + 1);
  // A repeat is a merged-ranking cache hit: no node is asked, nothing
  // is merged.
  ASSERT_TRUE(coordinator_->Query(body).ok());
  EXPECT_EQ(merge->Snapshot().count, merges + 1);
  EXPECT_EQ(fanout->Snapshot().count, fanouts + 2);
}

TEST_F(ClusterTest, BatchMatchesMonolith) {
  const std::string code = (*codes_)[3].ToBitString();
  ExpectParity(
      R"({"requests":[)"
      R"({"panel":{"seasons":["winter"]}},)"
      R"({"similarity":{"code":")" +
      code +
      R"(","k":12}},)"
      R"({"panel":{"labels":{"operator":"some","names":["Pastures"]}},)"
      R"("similarity":{"code":")" +
      code + R"(","radius":10}}]})");
}

TEST_F(ClusterTest, CoordinatorServesResultCacheMetrics) {
  using metrics_test::MetricValue;
  const Document metrics =
      metrics_test::ScrapeMetrics(coordinator_server_->port());
  const cache::CacheStats stats = coordinator_->result_cache_stats();
  const auto rankings = [](const char* base) {
    return obs::LabeledName(base, "cache", "merged_rankings");
  };
  EXPECT_GE(MetricValue(metrics, rankings("agoraeo_cache_hits_total")),
            static_cast<double>(stats.hits));
  EXPECT_GE(MetricValue(metrics, rankings("agoraeo_cache_misses_total")), 0);
  EXPECT_GE(MetricValue(metrics, rankings("agoraeo_cache_stale_drops_total")),
            0);
  EXPECT_EQ(MetricValue(metrics, rankings("agoraeo_cache_capacity_bytes")),
            static_cast<double>(stats.capacity_bytes));
  EXPECT_EQ(MetricValue(metrics, "agoraeo_cache_epoch"),
            static_cast<double>(coordinator_->result_epoch()));
}

TEST_F(ClusterTest, RetiredStatsRoutesAnswer404OnEveryTier) {
  HttpClient client;
  for (const uint16_t port : {mono_server_->port(), nodes_[0]->port(),
                              coordinator_server_->port()}) {
    for (const char* path : {"/api/v2/cache/stats", "/api/v2/index/stats"}) {
      auto resp = client.Get(port, path);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->status_code, 404) << path << " on port " << port;
    }
  }
}

TEST_F(ClusterTest, MetricNamesAreUniqueOnEveryTier) {
  metrics_test::ExpectUniqueMetricNames(mono_server_->port(), "monolith");
  for (const ClusterNode* node : nodes_) {
    metrics_test::ExpectUniqueMetricNames(node->port(), "node " + node->id());
  }
  metrics_test::ExpectUniqueMetricNames(coordinator_server_->port(),
                                        "coordinator");
}

TEST_F(ClusterTest, CoordinatorServesSlotTable) {
  HttpClient client;
  auto resp = client.Get(coordinator_server_->port(), "/api/v2/cluster/slots");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200);
  auto doc = json::ParseObject(resp->body);
  ASSERT_TRUE(doc.ok());
  auto table = SlotTable::FromJson(*doc);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_slots(), kNumSlots);
  EXPECT_EQ(table->num_nodes(), 3u);

  // RefreshTopology bootstraps a second coordinator from any member.
  Coordinator fresh;
  ASSERT_TRUE(fresh.RefreshTopology(nodes_[1]->address()).ok());
  EXPECT_EQ(fresh.table().num_slots(), kNumSlots);
  EXPECT_EQ(fresh.epoch(), coordinator_->epoch());
}

TEST_F(ClusterTest, NodeMetricsCarryClusterGauges) {
  for (const ClusterNode* node : nodes_) {
    const Document metrics = metrics_test::ScrapeMetrics(node->port());
    const double owned =
        metrics_test::MetricValue(metrics, "agoraeo_cluster_owned_slots");
    EXPECT_GT(owned, 0) << node->id();
    EXPECT_EQ(owned, static_cast<double>(node->owned_slot_count()))
        << node->id();
    const double epoch =
        metrics_test::MetricValue(metrics, "agoraeo_cluster_epoch");
    EXPECT_GE(epoch, 1) << node->id();
    EXPECT_EQ(epoch, static_cast<double>(node->epoch())) << node->id();
  }
}

TEST_F(ClusterTest, OverloadedNodeAnswers429ThroughCoordinator) {
  // One node's admission queue holds nothing, so it bounces every query
  // with 429 `overloaded`.  The coordinator must hand that answer on,
  // retry hint included, instead of turning it into a 500.
  earthqube::EarthQubeConfig no_queue;
  no_queue.exec.max_queue = 0;
  std::unique_ptr<earthqube::EarthQube> systems[3] = {
      std::unique_ptr<earthqube::EarthQube>(NewNodeSystem()),
      std::unique_ptr<earthqube::EarthQube>(NewNodeSystem()),
      std::unique_ptr<earthqube::EarthQube>(NewNodeSystem(no_queue))};
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  std::vector<NodeAddress> addresses;
  for (int i = 0; i < 3; ++i) {
    ClusterNode::Options options;
    options.id = "q" + std::to_string(i + 1);
    nodes.push_back(std::make_unique<ClusterNode>(systems[i].get(), options));
    ASSERT_TRUE(nodes.back()->Start(0).ok());
    addresses.push_back(nodes.back()->address());
  }
  const SlotTable table(addresses, 8);
  for (auto& node : nodes) node->SetTable(table);
  Coordinator coordinator;
  coordinator.AttachTable(table);
  netsvc::HttpServer server(2);
  coordinator.RegisterRoutes(&server);
  ASSERT_TRUE(server.Start(0).ok());

  HttpClient client;
  auto resp = client.Post(server.port(), "/api/v2/query",
                          R"({"panel":{"seasons":["summer"]}})");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status_code, 429) << resp->body;
  auto retry = resp->headers.find("retry-after");
  ASSERT_NE(retry, resp->headers.end());
  EXPECT_EQ(retry->second, "1");
  auto body = json::ParseObject(resp->body);
  ASSERT_TRUE(body.ok()) << resp->body;
  EXPECT_EQ(body->GetPath("error.code")->as_string(), "overloaded");

  server.Stop();
  for (auto& node : nodes) node->Stop();
}

TEST_F(ClusterTest, UnownedByNameSubjectAnswersMoved) {
  // Find a patch and a node that does NOT own it.
  const SlotTable table = nodes_[0]->table();
  const auto& patch = archive_->patches[0];
  const NodeAddress* owner = table.OwnerOfName(patch.name);
  ASSERT_NE(owner, nullptr);
  ClusterNode* wrong = nullptr;
  for (auto* node : nodes_) {
    if (node->id() != owner->id) wrong = node;
  }
  ASSERT_NE(wrong, nullptr);

  HttpClient client;
  auto resp = client.Post(wrong->port(), "/api/v2/query",
                          R"({"similarity":{"name":")" + patch.name +
                              R"(","k":5}})");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 308) << resp->body;
  EXPECT_NE(resp->headers.find("x-cluster-epoch"), resp->headers.end());
  auto doc = json::ParseObject(resp->body);
  ASSERT_TRUE(doc.ok());
  auto moved = ParseMovedBody(*doc);
  ASSERT_TRUE(moved.ok()) << resp->body;
  EXPECT_EQ(moved->owner.id, owner->id);
  EXPECT_EQ(moved->owner.port, owner->port);
  EXPECT_EQ(moved->slot, SlotOf(patch.name, kNumSlots));

  // The same subject at the right node answers 200.
  for (auto* node : nodes_) {
    if (node->id() != owner->id) continue;
    auto good = client.Post(node->port(), "/api/v2/query",
                            R"({"similarity":{"name":")" + patch.name +
                                R"(","k":5}})");
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good->status_code, 200) << good->body;
  }
}

TEST_F(ClusterTest, CoordinatorFollowsExactlyOneRedirect) {
  // Two nodes with deliberately conflicting tables: each claims the
  // OTHER owns the probe slot, so every code lookup answers MOVED.
  const std::string name = archive_->patches[7].name;
  const size_t slot = SlotOf(name, 8);

  earthqube::EarthQube a_system, b_system;
  ClusterNode::Options a_options, b_options;
  a_options.id = "a";
  b_options.id = "b";
  ClusterNode a(&a_system, a_options);
  ClusterNode b(&b_system, b_options);
  ASSERT_TRUE(a.Start(0).ok());
  ASSERT_TRUE(b.Start(0).ok());

  SlotTable base({a.address(), b.address()}, 8);
  SlotTable for_a = base;
  ASSERT_TRUE(for_a.AssignSlot(slot, "b").ok());
  SlotTable for_b = base;
  ASSERT_TRUE(for_b.AssignSlot(slot, "a").ok());
  a.SetTable(for_a);
  b.SetTable(for_b);

  Coordinator coordinator;
  SlotTable for_coordinator = base;
  ASSERT_TRUE(for_coordinator.AssignSlot(slot, "a").ok());
  coordinator.AttachTable(for_coordinator);

  EXPECT_EQ(coordinator.redirects_followed(), 0u);
  auto result = coordinator.Query(R"({"similarity":{"name":")" + name +
                                  R"(","k":3}})");
  ASSERT_FALSE(result.ok());
  // Exactly one redirect was followed before giving up — never a loop.
  EXPECT_EQ(coordinator.redirects_followed(), 1u);

  a.Stop();
  b.Stop();
}

// --- live migration ----------------------------------------------------------

class MigrationTest : public ClusterTest {};

TEST_F(MigrationTest, MigrationMovesSlotAndKeepsParity) {
  // Fresh 2-node cluster over the shared archive + codes.
  std::unique_ptr<earthqube::EarthQube> s1(NewNodeSystem());
  std::unique_ptr<earthqube::EarthQube> s2(NewNodeSystem());
  ClusterNode::Options o1, o2;
  o1.id = "m1";
  o2.id = "m2";
  ClusterNode n1(s1.get(), o1);
  ClusterNode n2(s2.get(), o2);
  ASSERT_TRUE(n1.Start(0).ok());
  ASSERT_TRUE(n2.Start(0).ok());
  const SlotTable table({n1.address(), n2.address()}, 8);
  n1.SetTable(table);
  n2.SetTable(table);
  Coordinator coordinator;
  coordinator.AttachTable(table);
  ASSERT_TRUE(coordinator.IngestArchive(*archive_, *codes_).ok());

  // Pick an owned slot with data and migrate it over the wire.
  const std::vector<size_t> owned = table.SlotsOwnedBy("m1");
  ASSERT_FALSE(owned.empty());
  size_t slot = owned[0];
  for (size_t candidate : owned) {
    for (const auto& patch : archive_->patches) {
      if (SlotOf(patch.name, 8) == candidate) {
        slot = candidate;
        break;
      }
    }
  }
  const size_t before_n2 = s2->num_images();
  HttpClient client;
  auto resp = client.Post(n1.port(), "/api/v2/cluster/migrate",
                          R"({"slot":)" + std::to_string(slot) +
                              R"(,"target":"m2"})");
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status_code, 200) << resp->body;

  // Ownership flipped, epoch advanced, tombstone recorded.
  EXPECT_EQ(n1.table().OwnerOfSlot(slot)->id, "m2");
  EXPECT_GT(n1.epoch(), 1u);
  // Both ends publish the new table: the target's gauges follow the
  // import, the source's the commit.
  for (const ClusterNode* node : {&n1, &n2}) {
    const Document metrics = metrics_test::ScrapeMetrics(node->port());
    EXPECT_EQ(metrics_test::MetricValue(metrics, "agoraeo_cluster_epoch"),
              static_cast<double>(node->epoch()))
        << node->id();
    EXPECT_EQ(
        metrics_test::MetricValue(metrics, "agoraeo_cluster_owned_slots"),
        static_cast<double>(node->owned_slot_count()))
        << node->id();
  }
  EXPECT_EQ(n2.epoch(), n1.epoch());
  const auto tombstones = n1.tombstoned_slots();
  EXPECT_NE(std::find(tombstones.begin(), tombstones.end(), slot),
            tombstones.end());
  EXPECT_GT(s2->num_images(), before_n2);

  // A by-name subject from the migrated slot now 308s at the source...
  std::string migrated_name;
  for (const auto& patch : archive_->patches) {
    if (SlotOf(patch.name, 8) == slot) {
      migrated_name = patch.name;
      break;
    }
  }
  ASSERT_FALSE(migrated_name.empty());
  auto at_source = client.Post(n1.port(), "/api/v2/query",
                               R"({"similarity":{"name":")" + migrated_name +
                                   R"(","k":5}})");
  ASSERT_TRUE(at_source.ok());
  EXPECT_EQ(at_source->status_code, 308) << at_source->body;
  // ...and answers at the new owner.
  auto at_target = client.Post(n2.port(), "/api/v2/query",
                               R"({"similarity":{"name":")" + migrated_name +
                                   R"(","k":5}})");
  ASSERT_TRUE(at_target.ok());
  EXPECT_EQ(at_target->status_code, 200) << at_target->body;

  // A paged panel at the source pages the rows left after dropping the
  // tombstoned slot, exactly as its unpaged answer lists them.
  const std::string panel =
      R"("panel":{"labels":{"operator":"some",)"
      R"("names":["Pastures","Water bodies"]}})";
  const auto rows_of = [&](const std::string& body, size_t* total,
                           std::string* cursor) {
    auto resp = client.Post(n1.port(), "/api/v2/query", body);
    EXPECT_TRUE(resp.ok());
    std::vector<std::string> names;
    if (!resp.ok()) return names;
    EXPECT_EQ(resp->status_code, 200) << resp->body;
    auto doc = json::ParseObject(resp->body);
    EXPECT_TRUE(doc.ok()) << resp->body;
    if (!doc.ok()) return names;
    *total = static_cast<size_t>(doc->Get("total")->as_int64());
    *cursor = doc->Get("cursor")->as_string();
    for (const Value& row : doc->Get("results")->as_array()) {
      names.push_back(row.as_document().Get("name")->as_string());
    }
    return names;
  };
  size_t unpaged_total = 0;
  std::string no_cursor;
  const std::vector<std::string> unpaged =
      rows_of("{" + panel + R"(,"page_size":0})", &unpaged_total, &no_cursor);
  ASSERT_FALSE(unpaged.empty());
  EXPECT_EQ(unpaged_total, unpaged.size());
  std::vector<std::string> paged;
  for (size_t page = 0; page <= unpaged.size(); ++page) {
    size_t total = 0;
    std::string cursor;
    const std::vector<std::string> rows = rows_of(
        "{" + panel + R"(,"page":)" + std::to_string(page) +
            R"(,"page_size":7})",
        &total, &cursor);
    EXPECT_EQ(total, unpaged_total) << "page " << page;
    paged.insert(paged.end(), rows.begin(), rows.end());
    if (cursor.empty()) break;
  }
  EXPECT_EQ(paged, unpaged);

  // Full parity after the move: the coordinator chases the 308 via the
  // epoch refresh and the merged answers still match the monolith.
  netsvc::HttpServer coordinator_server(2);
  coordinator.RegisterRoutes(&coordinator_server);
  ASSERT_TRUE(coordinator_server.Start(0).ok());
  const std::string code = (*codes_)[11].ToBitString();
  const std::vector<std::string> parity_bodies = {
      R"({"similarity":{"code":")" + code + R"(","k":25}})",
      R"({"similarity":{"name":")" + migrated_name +
          R"(","k":20},"projection":"full"})",
      R"({"panel":{"labels":{"operator":"some",)"
      R"("names":["Pastures","Water bodies"]}},"projection":"full"})",
  };
  for (const std::string& body : parity_bodies) {
    auto mono = client.Post(mono_server_->port(), "/api/v2/query", body);
    auto clustered =
        client.Post(coordinator_server.port(), "/api/v2/query", body);
    ASSERT_TRUE(mono.ok());
    ASSERT_TRUE(clustered.ok());
    ASSERT_EQ(clustered->status_code, 200) << clustered->body;
    EXPECT_EQ(Canonical(clustered->body), Canonical(mono->body)) << body;
  }
  coordinator_server.Stop();
  n1.Stop();
  n2.Stop();
}

TEST_F(MigrationTest, BoundedWindowsKeepParityAcrossSlotMove) {
  std::unique_ptr<earthqube::EarthQube> s1(NewNodeSystem());
  std::unique_ptr<earthqube::EarthQube> s2(NewNodeSystem());
  ClusterNode::Options o1, o2;
  o1.id = "m1";
  o2.id = "m2";
  ClusterNode n1(s1.get(), o1);
  ClusterNode n2(s2.get(), o2);
  ASSERT_TRUE(n1.Start(0).ok());
  ASSERT_TRUE(n2.Start(0).ok());
  const SlotTable table({n1.address(), n2.address()}, 8);
  n1.SetTable(table);
  n2.SetTable(table);
  Coordinator coordinator;
  coordinator.AttachTable(table);
  ASSERT_TRUE(coordinator.IngestArchive(*archive_, *codes_).ok());
  netsvc::HttpServer coordinator_server(2);
  coordinator.RegisterRoutes(&coordinator_server);
  ASSERT_TRUE(coordinator_server.Start(0).ok());
  const uint16_t port = coordinator_server.port();

  const std::string code = (*codes_)[11].ToBitString();
  const std::vector<std::string> walks = {
      R"("similarity":{"code":")" + code + R"(","k":100},"page_size":20)",
      R"("similarity":{"code":")" + code +
          R"(","radius":12,"limit":45},"page_size":8)",
  };
  for (const std::string& walk : walks) {
    EXPECT_GT(ExpectWalkParity(port, walk, 10), 2u) << walk;
  }

  // Move m1's first slot to m2: m2 now holds that slot's items under
  // local ids AFTER its own, so its local-id order no longer follows
  // global ingest order.
  const size_t slot = table.SlotsOwnedBy("m1")[0];
  HttpClient client;
  auto moved = client.Post(n1.port(), "/api/v2/cluster/migrate",
                           R"({"slot":)" + std::to_string(slot) +
                               R"(,"target":"m2"})");
  ASSERT_TRUE(moved.ok());
  ASSERT_EQ(moved->status_code, 200) << moved->body;
  // Adopting the new table drops the rankings cached before the move,
  // so the walks below fan out over the moved slot.
  ASSERT_TRUE(coordinator.RefreshTopology(n1.address()).ok());
  for (const std::string& walk : walks) {
    EXPECT_GT(ExpectWalkParity(port, walk, 10), 2u) << walk;
  }

  // Find a bounded radius window where the nodes' truncated answers,
  // merged naively, differ from the monolith — a boundary tie that m2
  // cut by local id — and check that the coordinator repairs it.
  std::unordered_map<std::string, size_t> seq;  // global ingest order
  for (size_t i = 0; i < archive_->patches.size(); ++i) {
    seq[archive_->patches[i].name] = i;
  }
  using Ranked = std::vector<std::pair<int64_t, size_t>>;  // (distance, seq)
  const auto ranked = [&](uint16_t at, const std::string& body) {
    Ranked rows;
    auto resp = client.Post(at, "/api/v2/query", body);
    EXPECT_TRUE(resp.ok());
    if (!resp.ok()) return rows;
    auto doc = json::ParseObject(resp->body);
    EXPECT_TRUE(doc.ok()) << resp->body;
    if (!doc.ok()) return rows;
    for (const Value& row : doc->Get("results")->as_array()) {
      const Document& r = row.as_document();
      rows.emplace_back(r.Get("distance")->as_int64(),
                        seq.at(r.Get("name")->as_string()));
    }
    return rows;
  };
  constexpr size_t kPageSize = 10;
  const std::vector<uint16_t> node_ports = {n1.port(), n2.port()};
  bool forced = false;
  for (size_t i = 0; i < codes_->size() && !forced; i += 3) {
    for (const int radius : {8, 11, 14}) {
      const std::string spec = R"("code":")" + (*codes_)[i].ToBitString() +
                               R"(","radius":)" + std::to_string(radius);
      const std::string window_body = R"({"similarity":{)" + spec +
                                      R"(,"limit":)" +
                                      std::to_string(kPageSize + 1) + "}}";
      Ranked naive = ranked(n1.port(), window_body);
      const Ranked from_n2 = ranked(n2.port(), window_body);
      naive.insert(naive.end(), from_n2.begin(), from_n2.end());
      std::sort(naive.begin(), naive.end());
      if (naive.size() > kPageSize + 1) naive.resize(kPageSize + 1);
      if (naive == ranked(mono_server_->port(), window_body)) continue;
      // The bounded fan-out alone would answer wrongly: the coordinator
      // must notice the tie and re-ask both nodes at the boundary.
      const double before = NodeQueryRequests(node_ports);
      ExpectParityAt(port, R"({"similarity":{)" + spec +
                               R"(,"limit":60},"page_size":)" +
                               std::to_string(kPageSize) + "}");
      EXPECT_EQ(NodeQueryRequests(node_ports) - before, 4.0);
      forced = true;
      break;
    }
  }
  EXPECT_TRUE(forced) << "no boundary tie hidden by migrated local ids";

  coordinator_server.Stop();
  n1.Stop();
  n2.Stop();
}

TEST_F(MigrationTest,
       BoundedRadiusStaysExactWhenANodeBothImportsAndTombstones) {
  std::unique_ptr<earthqube::EarthQube> s1(NewNodeSystem());
  std::unique_ptr<earthqube::EarthQube> s2(NewNodeSystem());
  ClusterNode::Options o1, o2;
  o1.id = "m1";
  o2.id = "m2";
  ClusterNode n1(s1.get(), o1);
  ClusterNode n2(s2.get(), o2);
  ASSERT_TRUE(n1.Start(0).ok());
  ASSERT_TRUE(n2.Start(0).ok());
  const SlotTable table({n1.address(), n2.address()}, 8);
  n1.SetTable(table);
  n2.SetTable(table);
  Coordinator coordinator;
  coordinator.AttachTable(table);
  ASSERT_TRUE(coordinator.IngestArchive(*archive_, *codes_).ok());
  netsvc::HttpServer coordinator_server(2);
  coordinator.RegisterRoutes(&coordinator_server);
  ASSERT_TRUE(coordinator_server.Start(0).ok());
  const uint16_t port = coordinator_server.port();

  // Two moves in opposite directions: afterwards each node holds an
  // imported slot (local ids out of global ingest order) AND a
  // tombstoned one, whose rows its engine still ranks before the
  // filter drops them.
  HttpClient client;
  const auto migrate = [&](const ClusterNode& from, size_t slot,
                           const std::string& to) {
    auto moved = client.Post(from.port(), "/api/v2/cluster/migrate",
                             R"({"slot":)" + std::to_string(slot) +
                                 R"(,"target":")" + to + R"("})");
    ASSERT_TRUE(moved.ok());
    ASSERT_EQ(moved->status_code, 200) << moved->body;
  };
  migrate(n1, table.SlotsOwnedBy("m1")[0], "m2");
  migrate(n2, table.SlotsOwnedBy("m2")[0], "m1");
  ASSERT_FALSE(n1.tombstoned_slots().empty());
  ASSERT_FALSE(n2.tombstoned_slots().empty());
  ASSERT_TRUE(coordinator.RefreshTopology(n1.address()).ok());

  const std::string code = (*codes_)[11].ToBitString();
  EXPECT_GT(ExpectWalkParity(port,
                             R"("similarity":{"code":")" + code +
                                 R"(","radius":12,"limit":45},"page_size":8)",
                             10),
            2u);
  EXPECT_GT(ExpectWalkParity(port,
                             R"("similarity":{"code":")" + code +
                                 R"(","radius":11},"page_size":6)",
                             10),
            2u);

  // Find a bounded radius window where the nodes' filtered answers,
  // merged naively, differ from the monolith although no node returned
  // as many rows as it was asked for: the hidden tie sits on a node
  // whose engine cut a full answer and whose tombstone filter then
  // shortened it.  Only the cut count tells the coordinator to repair.
  std::unordered_map<std::string, size_t> seq;  // global ingest order
  for (size_t i = 0; i < archive_->patches.size(); ++i) {
    seq[archive_->patches[i].name] = i;
  }
  using Ranked = std::vector<std::pair<int64_t, size_t>>;  // (distance, seq)
  const auto ranked = [&](uint16_t at, const std::string& body) {
    Ranked rows;
    auto resp = client.Post(at, "/api/v2/query", body);
    EXPECT_TRUE(resp.ok());
    if (!resp.ok()) return rows;
    auto doc = json::ParseObject(resp->body);
    EXPECT_TRUE(doc.ok()) << resp->body;
    if (!doc.ok()) return rows;
    for (const Value& row : doc->Get("results")->as_array()) {
      const Document& r = row.as_document();
      rows.emplace_back(r.Get("distance")->as_int64(),
                        seq.at(r.Get("name")->as_string()));
    }
    return rows;
  };
  constexpr size_t kPageSize = 10;
  constexpr size_t kWindow = kPageSize + 1;
  const std::vector<uint16_t> node_ports = {n1.port(), n2.port()};
  bool forced = false;
  for (size_t i = 0; i < codes_->size() && !forced; ++i) {
    for (const int radius : {8, 11, 14}) {
      const std::string spec = R"("code":")" + (*codes_)[i].ToBitString() +
                               R"(","radius":)" + std::to_string(radius);
      const std::string window_body = R"({"similarity":{)" + spec +
                                      R"(,"limit":)" +
                                      std::to_string(kWindow) + "}}";
      const Ranked from_n1 = ranked(n1.port(), window_body);
      const Ranked from_n2 = ranked(n2.port(), window_body);
      Ranked naive = from_n1;
      naive.insert(naive.end(), from_n2.begin(), from_n2.end());
      std::sort(naive.begin(), naive.end());
      if (naive.size() < kWindow) continue;
      naive.resize(kWindow);
      if (naive == ranked(mono_server_->port(), window_body)) continue;
      const int64_t boundary = naive.back().first;
      const auto full_at_boundary = [&](const Ranked& rows) {
        return rows.size() >= kWindow && rows.back().first <= boundary;
      };
      if (full_at_boundary(from_n1) || full_at_boundary(from_n2)) continue;
      const double before = NodeQueryRequests(node_ports);
      ExpectParityAt(port, R"({"similarity":{)" + spec +
                               R"(,"limit":60},"page_size":)" +
                               std::to_string(kPageSize) + "}");
      // The window's fan-out, then the repair's radius fan-out.
      EXPECT_EQ(NodeQueryRequests(node_ports) - before, 4.0);
      forced = true;
      break;
    }
  }
  EXPECT_TRUE(forced)
      << "no boundary tie hidden behind a tombstone-shortened answer";

  coordinator_server.Stop();
  n1.Stop();
  n2.Stop();
}

TEST_F(MigrationTest, QueriesUnderLiveMigrationLoseNothing) {
  // 2-node cluster; hammer the coordinator from several threads while
  // every slot of m1 migrates to m2.  Every in-flight answer must stay
  // well-formed and row-identical to the monolith: the dedup-by-name
  // merge makes the ASK-window union exact.
  std::unique_ptr<earthqube::EarthQube> s1(NewNodeSystem());
  std::unique_ptr<earthqube::EarthQube> s2(NewNodeSystem());
  ClusterNode::Options o1, o2;
  o1.id = "m1";
  o2.id = "m2";
  ClusterNode n1(s1.get(), o1);
  ClusterNode n2(s2.get(), o2);
  ASSERT_TRUE(n1.Start(0).ok());
  ASSERT_TRUE(n2.Start(0).ok());
  const SlotTable table({n1.address(), n2.address()}, 8);
  n1.SetTable(table);
  n2.SetTable(table);
  auto coordinator = std::make_unique<Coordinator>();
  coordinator->AttachTable(table);
  ASSERT_TRUE(coordinator->IngestArchive(*archive_, *codes_).ok());

  // Expected answers, computed against the monolith up front.
  const std::string code = (*codes_)[23].ToBitString();
  const std::vector<std::string> bodies = {
      R"({"similarity":{"code":")" + code + R"(","k":40}})",
      R"({"similarity":{"code":")" + code + R"(","radius":8}})",
      R"({"panel":{"labels":{"operator":"some","names":["Pastures",)"
      R"("Coniferous forest"]}},"projection":"full"})",
      R"({"panel":{"seasons":["summer"]},"similarity":{"code":")" + code +
          R"(","k":25},"projection":"full"})",
  };
  HttpClient setup_client;
  std::vector<std::string> expected;
  for (const std::string& body : bodies) {
    auto mono = setup_client.Post(mono_server_->port(), "/api/v2/query", body);
    ASSERT_TRUE(mono.ok());
    ASSERT_EQ(mono->status_code, 200);
    expected.push_back(Canonical(mono->body));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 4; ++t) {
    hammers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& body = bodies[i++ % bodies.size()];
        auto result = coordinator->Query(body);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        ++answered;
        if (Canonical(*result) !=
            expected[(i - 1) % bodies.size()]) {
          ++mismatches;
        }
      }
    });
  }

  // Migrate every slot m1 owns, one at a time, under load.
  HttpClient client;
  for (const size_t slot : table.SlotsOwnedBy("m1")) {
    auto resp = client.Post(n1.port(), "/api/v2/cluster/migrate",
                            R"({"slot":)" + std::to_string(slot) +
                                R"(,"target":"m2"})");
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->status_code, 200) << resp->body;
  }
  // Let the hammers observe the post-migration steady state too.
  for (int burst = 0; burst < 4; ++burst) {
    auto result = coordinator->Query(bodies[0]);
    ASSERT_TRUE(result.ok());
  }
  stop = true;
  for (auto& thread : hammers) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(answered.load(), 0);

  // End state: m1 serves nothing, m2 everything.
  EXPECT_EQ(n1.owned_slot_count(), 0u);
  EXPECT_EQ(n1.tombstoned_slots().size(), table.SlotsOwnedBy("m1").size());
  EXPECT_EQ(n2.owned_slot_count(), 8u);
  auto final_result = coordinator->Query(bodies[2]);
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(Canonical(*final_result), expected[2]);

  n1.Stop();
  n2.Stop();
}

}  // namespace
}  // namespace agoraeo::cluster
