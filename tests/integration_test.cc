/// End-to-end integration tests replaying the three demonstration
/// scenarios of Section 4 of the paper against a full pipeline:
/// archive synthesis -> feature extraction -> MiLaN training -> CBIR
/// indexing -> EarthQube queries.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <atomic>
#include <set>
#include <thread>

#include "cbir_test_util.h"
#include "frontier_test_util.h"
#include "query_test_util.h"
#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "earthqube/earthqube.h"
#include "index/linear_scan.h"
#include "milan/trainer.h"

namespace agoraeo {
namespace {

using bigearthnet::LabelIdFromName;
using bigearthnet::LabelSet;
using earthqube::EarthQube;
using earthqube::EarthQubeQuery;
using earthqube::PanelRequest;
using earthqube::SimilarRequest;
using earthqube::SimilaritySpec;
using earthqube::GeoQuery;
using earthqube::LabelFilter;

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bigearthnet::ArchiveConfig aconfig;
    aconfig.num_patches = 3000;
    aconfig.seed = 2022;  // the VLDB year, for flavour
    aconfig.patches_per_scene = 40;
    generator_ = new bigearthnet::ArchiveGenerator(aconfig);
    auto archive = generator_->Generate();
    ASSERT_TRUE(archive.ok());
    archive_ = new bigearthnet::Archive(std::move(archive).value());

    extractor_ = new bigearthnet::FeatureExtractor();
    features_ =
        new Tensor(extractor_->ExtractArchive(*archive_, *generator_, 4));

    system_ = new EarthQube();
    ASSERT_TRUE(system_->IngestArchive(*archive_).ok());

    milan::MilanConfig mconfig;
    mconfig.feature_dim = bigearthnet::kFeatureDim;
    mconfig.hidden1 = 128;
    mconfig.hidden2 = 64;
    mconfig.hash_bits = 64;
    mconfig.dropout = 0.0f;
    auto model = std::make_unique<milan::MilanModel>(mconfig);
    std::vector<LabelSet> labels;
    for (const auto& p : archive_->patches) labels.push_back(p.labels);
    milan::TripletSampler sampler(labels);
    milan::TrainConfig tconfig;
    tconfig.epochs = 6;
    tconfig.batches_per_epoch = 30;
    tconfig.batch_size = 24;
    milan::Trainer trainer(model.get(), features_, &sampler, tconfig);
    ASSERT_TRUE(trainer.Train().ok());

    auto cbir = std::make_unique<earthqube::CbirService>(std::move(model),
                                                         extractor_);
    std::vector<std::string> names;
    for (const auto& p : archive_->patches) names.push_back(p.name);
    ASSERT_TRUE(cbir->AddImages(names, *features_).ok());
    system_->AttachCbir(std::move(cbir));
  }

  static void TearDownTestSuite() {
    delete system_;
    delete features_;
    delete extractor_;
    delete archive_;
    delete generator_;
  }

  static bigearthnet::ArchiveGenerator* generator_;
  static bigearthnet::Archive* archive_;
  static bigearthnet::FeatureExtractor* extractor_;
  static Tensor* features_;
  static EarthQube* system_;
};

bigearthnet::ArchiveGenerator* ScenarioTest::generator_ = nullptr;
bigearthnet::Archive* ScenarioTest::archive_ = nullptr;
bigearthnet::FeatureExtractor* ScenarioTest::extractor_ = nullptr;
Tensor* ScenarioTest::features_ = nullptr;
EarthQube* ScenarioTest::system_ = nullptr;

/// Scenario 1 (Label-based Exploration): "search for industrial areas
/// adjacent to inland water bodies ... to detect possible water
/// pollution by industrial waste in 10 different European countries.
/// By inspecting the label statistics view, visitors can discover other
/// land cover classes that fit the query description."
TEST_F(ScenarioTest, LabelBasedExploration) {
  const LabelSet industrial_water(
      {*LabelIdFromName("Industrial or commercial units"),
       *LabelIdFromName("Water bodies")});
  EarthQubeQuery query;
  query.label_filter = LabelFilter::AtLeastAndMore(industrial_water);
  auto response = system_->Execute(PanelRequest(query));
  ASSERT_TRUE(response.ok());
  ASSERT_GT(response->panel.total(), 0u)
      << "no industrial waterfront patches in the archive";

  // Every result carries both labels.
  for (const auto& e : response->panel.entries()) {
    EXPECT_TRUE(e.labels.ContainsAll(industrial_water)) << e.name;
  }

  // The label statistics view surfaces co-occurring classes beyond the
  // two selected ones (the paper's "land principally occupied by
  // agriculture" style discovery).
  EXPECT_GT(response->statistics.bars().size(), 2u);
  EXPECT_EQ(response->statistics.CountOf(industrial_water.ids()[0]),
            response->panel.total());

  // The query used the multikey label index, not a collection scan.
  EXPECT_NE(response->query_stats.plan.find("multikey"), std::string::npos)
      << response->query_stats.plan;
}

/// Scenario 2 (Spatial Exploration and Query-by-Existing-Example):
/// "submit a geospatial query covering the southwestern tip of
/// Portugal ... select an image and perform content-based image
/// retrieval to display similar images in the 10 countries."
TEST_F(ScenarioTest, SpatialExplorationThenCbir) {
  // SW Portugal rectangle.
  EarthQubeQuery geo_query;
  geo_query.geo = GeoQuery::Rect({{37.0, -9.5}, {38.5, -7.8}});
  auto geo_response = system_->Execute(PanelRequest(geo_query));
  ASSERT_TRUE(geo_response.ok());
  ASSERT_GT(geo_response->panel.total(), 0u);
  for (const auto& e : geo_response->panel.entries()) {
    EXPECT_EQ(e.country, "Portugal") << e.name;
  }

  // Render the first page of results (the map render functionality).
  const auto page = geo_response->panel.Page(0);
  ASSERT_FALSE(page.empty());
  for (size_t i = 0; i < std::min<size_t>(3, page.size()); ++i) {
    auto meta = system_->GetMetadata(page[i]->name);
    ASSERT_TRUE(meta.ok());
    bigearthnet::Patch patch = generator_->SynthesizePatch(*meta);
    ASSERT_TRUE(system_->StoreRenderedImage(patch).ok());
    auto rgb = system_->GetRenderedImage(page[i]->name);
    ASSERT_TRUE(rgb.ok());
    EXPECT_EQ(rgb->size(), 120u * 120u * 3u);
  }

  // Pick an image and retrieve similar content across all countries.
  const std::string& query_name = page[0]->name;
  auto cbir_response =
      system_->Execute(SimilarRequest(SimilaritySpec::NameKnn(query_name, 20)));
  ASSERT_TRUE(cbir_response.ok());
  EXPECT_GT(cbir_response->panel.total(), 0u);

  auto query_meta = system_->GetMetadata(query_name);
  ASSERT_TRUE(query_meta.ok());
  size_t shared = 0;
  std::set<std::string> countries;
  for (const auto& e : cbir_response->panel.entries()) {
    if (e.labels.ContainsAny(query_meta->labels)) ++shared;
    countries.insert(e.country);
  }
  // Results are semantically similar...
  EXPECT_GT(static_cast<double>(shared) / cbir_response->panel.total(), 0.5);
  // ...and not restricted to Portugal (global-scale retrieval).
  EXPECT_GT(countries.size(), 1u);
}

/// Scenario 3 (Query-by-New-Example): "newly collected images do not
/// have any land cover class labels ... visitors can upload such images
/// to EarthQube to search for other images with similar semantic
/// content.  Based on the semantic search results, one could design an
/// automatic labeling process."
TEST_F(ScenarioTest, QueryByNewExampleAndAutoLabeling) {
  // A "new Sentinel acquisition": synthesise pixels for metadata the
  // system has never indexed (fresh generator, different seed).
  bigearthnet::ArchiveConfig fresh_config;
  fresh_config.num_patches = 50;
  fresh_config.seed = 4099;
  fresh_config.countries = {"Portugal"};
  bigearthnet::ArchiveGenerator fresh_gen(fresh_config);
  auto fresh = fresh_gen.Generate();
  ASSERT_TRUE(fresh.ok());

  // Pick an upload with a reasonably common label set.
  const auto& upload_meta = fresh->patches[0];
  bigearthnet::Patch upload = fresh_gen.SynthesizePatch(upload_meta);
  upload.meta.name = "visitor_upload_2022";

  auto response = system_->Execute(
      SimilarRequest(SimilaritySpec::PatchRadius(upload, /*radius=*/16, 30)));
  ASSERT_TRUE(response.ok());
  ASSERT_GT(response->panel.total(), 0u);

  // Automatic labeling: with multi-label data even a perfect retrieval
  // cannot guarantee the single most frequent retrieved label is one of
  // the query's (a frequent co-occurring class can out-count it).  The
  // property that makes auto-labeling viable is *enrichment*: the
  // upload's true labels must be over-represented among the retrieved
  // images relative to their archive base rate, and at least one true
  // label must rank among the top bars of the statistics view.
  const auto& stats = response->statistics;
  ASSERT_TRUE(stats.DominantLabel().ok());
  ASSERT_GT(stats.num_images(), 0u);

  // Archive base rates.
  std::map<bigearthnet::LabelId, size_t> base_counts;
  for (const auto& p : archive_->patches) {
    for (bigearthnet::LabelId id : p.labels.ids()) ++base_counts[id];
  }
  const double n_archive = static_cast<double>(archive_->patches.size());
  const double n_retrieved = static_cast<double>(stats.num_images());

  double best_lift = 0.0;
  for (bigearthnet::LabelId id : upload_meta.labels.ids()) {
    const double base = base_counts[id] / n_archive;
    if (base == 0.0) continue;  // label absent from the indexed archive
    const double retrieved = stats.CountOf(id) / n_retrieved;
    best_lift = std::max(best_lift, retrieved / base);
  }
  EXPECT_GT(best_lift, 1.0)
      << "no upload label is enriched among retrieved images; labels: "
      << upload_meta.labels.ToString();

  // At least one true label within the top-5 bars.
  bool in_top = false;
  const auto& bars = stats.bars();
  for (size_t i = 0; i < bars.size() && i < 5; ++i) {
    if (upload_meta.labels.Contains(bars[i].label)) in_top = true;
  }
  EXPECT_TRUE(in_top) << "no upload label among the top-5 retrieved bars";
}

/// The paper's pipeline claim: hash-table CBIR returns the same result
/// set as an exhaustive Hamming scan (hashing loses nothing at equal
/// radius).
TEST_F(ScenarioTest, HashTableRetrievalMatchesLinearScan) {
  auto* cbir = system_->cbir();
  ASSERT_NE(cbir, nullptr);
  // Re-hash all features with the same model into a linear-scan index.
  index::LinearScanIndex reference;
  std::vector<std::string> names;
  for (const auto& p : archive_->patches) names.push_back(p.name);
  for (size_t i = 0; i < names.size(); ++i) {
    auto code = cbir->CodeOf(names[i]);
    ASSERT_TRUE(code.ok());
    ASSERT_TRUE(reference.Add(i, *code).ok());
  }
  for (size_t q = 0; q < 10; ++q) {
    const std::string& name = names[q * 11];
    auto via_service = RadiusByName(*cbir, name, /*radius=*/6);
    ASSERT_TRUE(via_service.ok());
    auto code = cbir->CodeOf(name);
    ASSERT_TRUE(code.ok());
    auto via_scan = DrainRadius(reference, *code, 6);
    // The service excludes the query itself; align the reference.
    std::vector<std::string> scan_names;
    for (const auto& hit : via_scan) {
      if (names[hit.id] != name) scan_names.push_back(names[hit.id]);
    }
    ASSERT_EQ(via_service->size(), scan_names.size()) << "query " << q;
    for (size_t i = 0; i < scan_names.size(); ++i) {
      EXPECT_EQ((*via_service)[i].patch_name, scan_names[i]);
    }
  }
}

/// Persistence across restarts: save the whole data tier and the model,
/// reload, and verify queries still work (demo-booth resilience).
TEST_F(ScenarioTest, DataTierSurvivesRestart) {
  const std::string db_path = "/tmp/agoraeo_integration_db.bin";
  ASSERT_TRUE(system_->database().SaveToFile(db_path).ok());

  docstore::Database restored;
  ASSERT_TRUE(restored.LoadFromFile(db_path).ok());
  auto* meta = restored.GetCollection("metadata");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->size(), archive_->patches.size());

  // An indexed label query still runs on the restored database.
  docstore::QueryStats stats;
  EarthQubeQuery query;
  query.label_filter = LabelFilter::Some(
      LabelSet({*LabelIdFromName("Coniferous forest")}));
  auto ids = meta->FindIds(query.ToFilter(), 0, &stats);
  EXPECT_GT(ids.size(), 0u);
  EXPECT_NE(stats.plan.find("multikey"), std::string::npos);
  std::remove(db_path.c_str());
}


/// The paper's back-end server handles concurrent visitors; EarthQube's
/// read-only query paths (panel search, CBIR, statistics) must be safe
/// under parallel use and return exactly the single-threaded results.
TEST_F(ScenarioTest, ConcurrentReadOnlyQueriesAreConsistent) {
  // Reference results, single-threaded.
  EarthQubeQuery label_query;
  label_query.label_filter = LabelFilter::Some(
      LabelSet({*LabelIdFromName("Pastures")}));
  label_query.limit = 100;
  auto reference_search = system_->Execute(PanelRequest(label_query));
  ASSERT_TRUE(reference_search.ok());
  const std::string ref_names = reference_search->panel.NamesAsText();

  const std::string& probe = archive_->patches[17].name;
  auto reference_cbir =
      system_->Execute(SimilarRequest(SimilaritySpec::NameKnn(probe, 12)));
  ASSERT_TRUE(reference_cbir.ok());
  const std::string ref_cbir_names = reference_cbir->panel.NamesAsText();

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        auto search = system_->Execute(PanelRequest(label_query));
        if (!search.ok() || search->panel.NamesAsText() != ref_names) {
          ++mismatches;
        }
        auto cbir = system_->Execute(
            SimilarRequest(SimilaritySpec::NameKnn(probe, 12)));
        if (!cbir.ok() || cbir->panel.NamesAsText() != ref_cbir_names) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace agoraeo
