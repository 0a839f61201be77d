#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <thread>

#include "cbir_test_util.h"
#include "query_test_util.h"
#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "earthqube/earthqube.h"
#include "earthqube/zip_writer.h"
#include "earthqube/query.h"
#include "earthqube/result_panel.h"
#include "earthqube/schema.h"
#include "earthqube/statistics.h"
#include "milan/trainer.h"
#include "netsvc/earthqube_service.h"

namespace agoraeo::earthqube {
namespace {

using bigearthnet::LabelIdFromName;
using bigearthnet::LabelSet;
using bigearthnet::PatchMetadata;

PatchMetadata SampleMeta() {
  PatchMetadata meta;
  meta.name = "S2A_MSIL2A_20170717T113321_42_7";
  meta.labels = LabelSet({2, 39});  // industrial + water bodies
  meta.country = "Portugal";
  meta.acquisition_date = CivilDate(2017, 7, 17);
  meta.season = Season::kSummer;
  meta.bounds = {{38.0, -9.0}, {38.011, -8.989}};
  return meta;
}

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

TEST(SchemaTest, MetadataRoundTripAscii) {
  const PatchMetadata meta = SampleMeta();
  auto doc = MetadataToDocument(meta, LabelEncoding::kAsciiCompressed);
  auto back = DocumentToMetadata(doc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->name, meta.name);
  EXPECT_TRUE(back->labels == meta.labels);
  EXPECT_EQ(back->country, meta.country);
  EXPECT_EQ(back->acquisition_date, meta.acquisition_date);
  EXPECT_EQ(back->season, Season::kSummer);
  EXPECT_NEAR(back->bounds.min.lat, 38.0, 1e-12);
}

TEST(SchemaTest, AsciiEncodingStoresSingleCharLabels) {
  auto doc = MetadataToDocument(SampleMeta(), LabelEncoding::kAsciiCompressed);
  const auto* labels = doc.GetPath(kFieldLabels);
  ASSERT_NE(labels, nullptr);
  for (const auto& v : labels->as_array()) {
    EXPECT_EQ(v.as_string().size(), 1u);
  }
  const auto* key = doc.GetPath(kFieldLabelsKey);
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->as_string().size(), 2u);
}

TEST(SchemaTest, FullStringEncodingStoresNames) {
  auto doc = MetadataToDocument(SampleMeta(), LabelEncoding::kFullStrings);
  const auto* labels = doc.GetPath(kFieldLabels);
  ASSERT_NE(labels, nullptr);
  bool found = false;
  for (const auto& v : labels->as_array()) {
    if (v.as_string() == "Industrial or commercial units") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SchemaTest, SatelliteParsedFromName) {
  EXPECT_EQ(SatelliteFromName("S2A_MSIL2A_x"), "S2A");
  EXPECT_EQ(SatelliteFromName("S2B_MSIL2A_x"), "S2B");
}

TEST(SchemaTest, MalformedDocumentRejected) {
  docstore::Document empty;
  EXPECT_TRUE(DocumentToMetadata(empty).status().IsCorruption());
}

TEST(SchemaTest, ImageDocumentRoundTrip) {
  bigearthnet::ArchiveConfig config;
  config.num_patches = 10;
  config.seed = 77;
  bigearthnet::ArchiveGenerator gen(config);
  auto archive = gen.Generate();
  ASSERT_TRUE(archive.ok());
  bigearthnet::Patch patch = gen.SynthesizePatch(archive->patches[0]);
  auto doc = PatchToImageDocument(patch);
  auto back = ImageDocumentToPatch(doc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->meta.name, patch.meta.name);
  ASSERT_EQ(back->s2_bands.size(), 12u);
  EXPECT_EQ(back->s2_bands[3].pixels, patch.s2_bands[3].pixels);
  EXPECT_EQ(back->s1_channels[1].pixels, patch.s1_channels[1].pixels);
}

// ---------------------------------------------------------------------------
// Query translation
// ---------------------------------------------------------------------------

TEST(QueryTest, EmptyQueryMatchesEverything) {
  EarthQubeQuery query;
  EXPECT_EQ(query.ToFilter().op(), docstore::Filter::Op::kTrue);
}

TEST(QueryTest, SomeCompilesToIn) {
  EarthQubeQuery query;
  query.label_filter = LabelFilter::Some(LabelSet({2, 39}));
  auto filter = query.ToFilter();
  EXPECT_EQ(filter.op(), docstore::Filter::Op::kIn);
  EXPECT_EQ(filter.path(), kFieldLabels);
  EXPECT_EQ(filter.values().size(), 2u);
}

TEST(QueryTest, ExactlyCompilesToLabelsKeyEquality) {
  EarthQubeQuery query;
  query.label_filter = LabelFilter::Exactly(LabelSet({2, 39}));
  auto filter = query.ToFilter();
  EXPECT_EQ(filter.op(), docstore::Filter::Op::kEq);
  EXPECT_EQ(filter.path(), kFieldLabelsKey);
}

TEST(QueryTest, AtLeastCompilesToAll) {
  EarthQubeQuery query;
  query.label_filter = LabelFilter::AtLeastAndMore(LabelSet({2, 39}));
  auto filter = query.ToFilter();
  EXPECT_EQ(filter.op(), docstore::Filter::Op::kAll);
}

TEST(QueryTest, DisabledLabelFilterIgnored) {
  EarthQubeQuery query;
  query.label_filter.enabled = false;
  query.label_filter.labels = LabelSet({2});
  EXPECT_EQ(query.ToFilter().op(), docstore::Filter::Op::kTrue);
}

TEST(QueryTest, SomeLevel2ExpandsHierarchy) {
  auto filter = LabelFilter::SomeLevel2(31);  // Forests
  EXPECT_EQ(filter.labels.size(), 3u);
}

TEST(QueryTest, CompoundQueryIsConjunction) {
  EarthQubeQuery query;
  query.geo = GeoQuery::Rect({{37, -10}, {39, -8}});
  query.date_range = DateRange{CivilDate(2017, 6, 1), CivilDate(2017, 8, 31)};
  query.satellites = {"S2A"};
  query.seasons = {Season::kSummer};
  query.label_filter = LabelFilter::Some(LabelSet({42}));
  auto filter = query.ToFilter();
  EXPECT_EQ(filter.op(), docstore::Filter::Op::kAnd);
  EXPECT_EQ(filter.children().size(), 6u);  // geo + 2 dates + sat + season + labels
}

TEST(QueryTest, OperatorNames) {
  EXPECT_STREQ(LabelOperatorToString(LabelOperator::kSome), "Some");
  EXPECT_STREQ(LabelOperatorToString(LabelOperator::kExactly), "Exactly");
  EXPECT_STREQ(LabelOperatorToString(LabelOperator::kAtLeastAndMore),
               "At least & more");
}

// ---------------------------------------------------------------------------
// Label statistics
// ---------------------------------------------------------------------------

TEST(StatisticsTest, CountsAndOrdering) {
  std::vector<LabelSet> retrievals = {LabelSet({2, 39}), LabelSet({39}),
                                      LabelSet({39, 11})};
  auto stats = LabelStatistics::FromLabelSets(retrievals);
  EXPECT_EQ(stats.num_images(), 3u);
  EXPECT_EQ(stats.total_occurrences(), 5u);
  EXPECT_EQ(stats.CountOf(39), 3u);
  EXPECT_EQ(stats.CountOf(2), 1u);
  EXPECT_EQ(stats.CountOf(22), 0u);
  ASSERT_FALSE(stats.bars().empty());
  EXPECT_EQ(stats.bars()[0].label, 39);  // most frequent first
  auto dominant = stats.DominantLabel();
  ASSERT_TRUE(dominant.ok());
  EXPECT_EQ(*dominant, 39);
}

TEST(StatisticsTest, EmptyStatistics) {
  auto stats = LabelStatistics::FromLabelSets({});
  EXPECT_EQ(stats.num_images(), 0u);
  EXPECT_TRUE(stats.DominantLabel().status().IsNotFound());
  EXPECT_EQ(stats.RenderAscii(), "(no labels)\n");
}

TEST(StatisticsTest, AsciiChartMentionsLabelsAndColors) {
  auto stats = LabelStatistics::FromLabelSets({LabelSet({39})});
  const std::string chart = stats.RenderAscii(20);
  EXPECT_NE(chart.find("Water bodies"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

// ---------------------------------------------------------------------------
// Result panel / cart / clustering
// ---------------------------------------------------------------------------

std::vector<ResultEntry> MakeEntries(size_t n) {
  std::vector<ResultEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    ResultEntry e;
    e.name = "patch_" + std::to_string(i);
    e.labels = LabelSet({static_cast<int>(i % 43)});
    e.country = "Portugal";
    e.acquisition_date = "2017-07-17";
    e.map_location = {38.0 + (i % 10) * 0.001, -9.0 + (i / 10) * 0.001};
    entries.push_back(e);
  }
  return entries;
}

TEST(ResultPanelTest, Pagination) {
  ResultPanel panel(MakeEntries(123));
  EXPECT_EQ(panel.total(), 123u);
  EXPECT_EQ(panel.num_pages(), 3u);
  EXPECT_EQ(panel.Page(0).size(), kPageSize);
  EXPECT_EQ(panel.Page(1).size(), kPageSize);
  EXPECT_EQ(panel.Page(2).size(), 23u);
  EXPECT_TRUE(panel.Page(3).empty());
  EXPECT_EQ(panel.Page(1)[0]->name, "patch_50");
}

TEST(ResultPanelTest, WindowKeepsTotalAndPagesItsRows) {
  // Rows [60, 67) of a 123-row result: the total and the page count
  // stay the result's, and Page() returns only the held rows.
  std::vector<ResultEntry> all = MakeEntries(123);
  ResultPanel panel(std::vector<ResultEntry>(all.begin() + 60,
                                             all.begin() + 67),
                    60, 123);
  EXPECT_EQ(panel.total(), 123u);
  EXPECT_EQ(panel.num_pages(), 3u);
  EXPECT_EQ(panel.offset(), 60u);
  EXPECT_TRUE(panel.Page(0).empty());
  ASSERT_EQ(panel.Page(1).size(), 7u);
  EXPECT_EQ(panel.Page(1)[0]->name, "patch_60");
  EXPECT_TRUE(panel.Page(2).empty());
  EXPECT_TRUE(panel.CanRenderOnMap());
  EXPECT_FALSE(ResultPanel({}, 0, 1001).CanRenderOnMap());
}

TEST(ResultPanelTest, NamesAsTextOnePerLine) {
  ResultPanel panel(MakeEntries(3));
  EXPECT_EQ(panel.NamesAsText(), "patch_0\npatch_1\npatch_2\n");
}

TEST(ResultPanelTest, RenderLimit) {
  EXPECT_TRUE(ResultPanel(MakeEntries(1000)).CanRenderOnMap());
  EXPECT_FALSE(ResultPanel(MakeEntries(1001)).CanRenderOnMap());
}

TEST(ResultPanelTest, FindByName) {
  ResultPanel panel(MakeEntries(10));
  ASSERT_NE(panel.FindByName("patch_7"), nullptr);
  EXPECT_EQ(panel.FindByName("patch_7")->name, "patch_7");
  EXPECT_EQ(panel.FindByName("ghost"), nullptr);
}

TEST(DownloadCartTest, DeduplicatesAcrossSearches) {
  DownloadCart cart;
  ResultPanel first(MakeEntries(60));
  ResultPanel second(MakeEntries(10));  // same names as first 10
  cart.AddPage(first, 0);
  EXPECT_EQ(cart.size(), 50u);
  cart.AddPage(first, 1);
  EXPECT_EQ(cart.size(), 60u);
  cart.AddPage(second, 0);  // all duplicates
  EXPECT_EQ(cart.size(), 60u);
  EXPECT_TRUE(cart.Contains("patch_0"));
  EXPECT_FALSE(cart.Contains("ghost"));
  cart.Clear();
  EXPECT_EQ(cart.size(), 0u);
}

TEST(MarkerClusteringTest, LowZoomCollapsesHighZoomSeparates) {
  auto entries = MakeEntries(100);
  auto coarse = ClusterMarkers(entries, 1);
  auto fine = ClusterMarkers(entries, 18);
  EXPECT_LE(coarse.size(), fine.size());
  EXPECT_EQ(coarse.size(), 1u);  // all within one huge cell

  // Counts must sum to the number of entries at every zoom.
  for (const auto& clusters : {coarse, fine}) {
    size_t total = 0;
    for (const auto& c : clusters) total += c.count;
    EXPECT_EQ(total, entries.size());
  }
}

TEST(MarkerClusteringTest, ClusterCentersAreMeans) {
  std::vector<ResultEntry> entries = MakeEntries(2);
  entries[0].map_location = {38.0, -9.0};
  entries[1].map_location = {38.0002, -9.0002};
  auto clusters = ClusterMarkers(entries, 5);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_NEAR(clusters[0].center.lat, 38.0001, 1e-6);
  EXPECT_NEAR(clusters[0].center.lon, -9.0001, 1e-6);
}

// ---------------------------------------------------------------------------
// EarthQube facade
// ---------------------------------------------------------------------------

class EarthQubeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bigearthnet::ArchiveConfig aconfig;
    aconfig.num_patches = 1200;
    aconfig.seed = 91;
    aconfig.patches_per_scene = 30;
    generator_ = new bigearthnet::ArchiveGenerator(aconfig);
    auto archive = generator_->Generate();
    ASSERT_TRUE(archive.ok());
    archive_ = new bigearthnet::Archive(std::move(archive).value());

    extractor_ = new bigearthnet::FeatureExtractor();
    features_ = new Tensor(extractor_->ExtractArchive(*archive_, *generator_, 4));

    system_ = new EarthQube();
    ASSERT_TRUE(system_->IngestArchive(*archive_).ok());

    // Train a small MiLaN and attach CBIR.
    milan::MilanConfig mconfig;
    mconfig.feature_dim = bigearthnet::kFeatureDim;
    mconfig.hidden1 = 128;
    mconfig.hidden2 = 64;
    mconfig.hash_bits = 32;
    mconfig.dropout = 0.0f;
    auto model = std::make_unique<milan::MilanModel>(mconfig);
    std::vector<LabelSet> labels;
    for (const auto& p : archive_->patches) labels.push_back(p.labels);
    milan::TripletSampler sampler(labels);
    milan::TrainConfig tconfig;
    tconfig.epochs = 5;
    tconfig.batches_per_epoch = 20;
    tconfig.batch_size = 16;
    milan::Trainer trainer(model.get(), features_, &sampler, tconfig);
    ASSERT_TRUE(trainer.Train().ok());

    auto cbir = std::make_unique<CbirService>(std::move(model), extractor_);
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
    system_ = nullptr;
  }

  static bigearthnet::ArchiveGenerator* generator_;
  static bigearthnet::Archive* archive_;
  static bigearthnet::FeatureExtractor* extractor_;
  static Tensor* features_;
  static EarthQube* system_;
};

bigearthnet::ArchiveGenerator* EarthQubeTest::generator_ = nullptr;
bigearthnet::Archive* EarthQubeTest::archive_ = nullptr;
bigearthnet::FeatureExtractor* EarthQubeTest::extractor_ = nullptr;
Tensor* EarthQubeTest::features_ = nullptr;
EarthQube* EarthQubeTest::system_ = nullptr;

TEST_F(EarthQubeTest, IngestedAllPatches) {
  EXPECT_EQ(system_->num_images(), archive_->patches.size());
}

TEST_F(EarthQubeTest, EmptyQueryReturnsEverything) {
  EarthQubeQuery query;
  auto response = system_->Execute(PanelRequest(query));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->panel.total(), archive_->patches.size());
  EXPECT_EQ(response->statistics.num_images(), archive_->patches.size());
}

TEST_F(EarthQubeTest, LimitIsRespected) {
  EarthQubeQuery query;
  query.limit = 25;
  auto response = system_->Execute(PanelRequest(query));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->panel.total(), 25u);
}

TEST_F(EarthQubeTest, CountrySearchViaGeo) {
  // Portugal's extent as a rectangle query.
  auto country = bigearthnet::CountryByName("Portugal");
  ASSERT_TRUE(country.ok());
  EarthQubeQuery query;
  query.geo = GeoQuery::Rect((*country)->extent);
  auto response = system_->Execute(PanelRequest(query));
  ASSERT_TRUE(response.ok());
  // Every result's center is inside (or extremely near) the extent.
  for (const auto& e : response->panel.entries()) {
    EXPECT_TRUE(e.country == "Portugal" ||
                (*country)->extent.Contains(e.map_location))
        << e.name << " from " << e.country;
  }
  // Cross-check the count against metadata.
  size_t expected = 0;
  for (const auto& p : archive_->patches) {
    if ((*country)->extent.Intersects(p.bounds)) ++expected;
  }
  EXPECT_EQ(response->panel.total(), expected);
}

TEST_F(EarthQubeTest, GeoQueryUsesIndex) {
  EarthQubeQuery query;
  query.geo = GeoQuery::Rect({{38.0, -9.5}, {39.0, -8.0}});
  auto response = system_->Execute(PanelRequest(query));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->query_stats.plan.find("geo"), std::string::npos)
      << response->query_stats.plan;
}

TEST_F(EarthQubeTest, LabelOperatorsAgreeWithGroundTruth) {
  const LabelSet targets({2, 39});  // industrial + water bodies
  size_t expect_some = 0, expect_exactly = 0, expect_atleast = 0;
  for (const auto& p : archive_->patches) {
    if (p.labels.ContainsAny(targets)) ++expect_some;
    if (p.labels == targets) ++expect_exactly;
    if (p.labels.ContainsAll(targets)) ++expect_atleast;
  }
  EarthQubeQuery query;
  query.label_filter = LabelFilter::Some(targets);
  EXPECT_EQ(system_->CountMatches(query), expect_some);
  query.label_filter = LabelFilter::Exactly(targets);
  EXPECT_EQ(system_->CountMatches(query), expect_exactly);
  query.label_filter = LabelFilter::AtLeastAndMore(targets);
  EXPECT_EQ(system_->CountMatches(query), expect_atleast);
  // Exactly <= AtLeast <= Some, and the scenario labels do co-occur.
  EXPECT_LE(expect_exactly, expect_atleast);
  EXPECT_LE(expect_atleast, expect_some);
  EXPECT_GT(expect_atleast, 0u) << "industrial_waterfront theme missing";
}

TEST_F(EarthQubeTest, SeasonAndSatelliteAndDateFilters) {
  EarthQubeQuery query;
  query.seasons = {Season::kSummer};
  query.satellites = {"S2A"};
  query.date_range = DateRange{CivilDate(2017, 6, 1), CivilDate(2017, 8, 31)};
  auto response = system_->Execute(PanelRequest(query));
  ASSERT_TRUE(response.ok());
  size_t expected = 0;
  for (const auto& p : archive_->patches) {
    if (p.season == Season::kSummer &&
        SatelliteFromName(p.name) == "S2A" &&
        p.acquisition_date >= CivilDate(2017, 6, 1) &&
        p.acquisition_date <= CivilDate(2017, 8, 31)) {
      ++expected;
    }
  }
  EXPECT_EQ(response->panel.total(), expected);
}

TEST_F(EarthQubeTest, PanelWindowsMatchBruteForceReference) {
  // A paged panel builds only its page's rows; every page must still
  // serialise exactly as a brute-force reference does: all matches in
  // ingest order, label statistics over all of them, the total and the
  // cursor.  Every page, served again from the cached match set, must
  // match its first, uncached answer.
  using netsvc::EarthQubeService;
  const auto& patches = archive_->patches;
  const CivilDate first_day = archive_->config.dates.begin;
  geo::BoundingBox everywhere = patches[0].bounds;
  for (const auto& p : patches) {
    everywhere.min.lat = std::min(everywhere.min.lat, p.bounds.min.lat);
    everywhere.min.lon = std::min(everywhere.min.lon, p.bounds.min.lon);
    everywhere.max.lat = std::max(everywhere.max.lat, p.bounds.max.lat);
    everywhere.max.lon = std::max(everywhere.max.lon, p.bounds.max.lon);
  }
  const CivilDate mid = CivilDate::FromOrdinal(
      (first_day.ToOrdinal() + archive_->config.dates.end.ToOrdinal()) / 2);

  std::vector<std::pair<std::string, EarthQubeQuery>> shapes;
  EarthQubeQuery q;
  q.label_filter = LabelFilter::Some(LabelSet({2, 39}));
  shapes.emplace_back("labels some", q);
  q.label_filter = LabelFilter::AtLeastAndMore(LabelSet({2, 39}));
  shapes.emplace_back("labels all", q);
  q.label_filter = LabelFilter::Exactly(patches[0].labels);
  shapes.emplace_back("labels exactly", q);
  q = EarthQubeQuery();
  q.geo = GeoQuery::Rect((*bigearthnet::CountryByName("Portugal"))->extent);
  shapes.emplace_back("geo rectangle", q);
  q = EarthQubeQuery();
  q.date_range = DateRange{first_day, mid};
  shapes.emplace_back("date range from the first day", q);
  q = EarthQubeQuery();
  q.seasons = {Season::kWinter};
  shapes.emplace_back("season", q);
  q.label_filter = LabelFilter::Some(patches[0].labels);
  q.geo = GeoQuery::Rect(everywhere);
  q.date_range = DateRange{first_day, std::max(mid, patches[0].acquisition_date)};
  q.seasons = {patches[0].season, Season::kWinter};
  shapes.emplace_back("combined", q);
  q = EarthQubeQuery();
  q.geo = GeoQuery::Rect({{-60.0, -170.0}, {-59.0, -169.0}});
  shapes.emplace_back("empty", q);

  for (const auto& [shape, query] : shapes) {
    SCOPED_TRACE(shape);
    const docstore::Filter filter = query.ToFilter();
    std::vector<ResultEntry> all;
    std::vector<LabelSet> label_sets;
    for (const auto& p : patches) {
      if (!filter.Matches(
              MetadataToDocument(p, LabelEncoding::kAsciiCompressed))) {
        continue;
      }
      all.push_back({p.name, p.labels, p.country,
                     p.acquisition_date.ToString(), p.bounds.Center()});
      label_sets.push_back(p.labels);
    }
    if (shape == "empty") {
      EXPECT_TRUE(all.empty());
    } else {
      EXPECT_FALSE(all.empty());
    }
    for (size_t page_size : {size_t{0}, size_t{7}, size_t{50}}) {
      const size_t pages =
          page_size == 0 ? 1 : (all.size() + page_size - 1) / page_size + 1;
      for (size_t page = 0; page < pages; ++page) {
        QueryRequest request = PanelRequest(query);
        request.page = page;
        request.page_size = page_size;
        // The first answer comes from a fresh filter pass; the replay
        // is served from the cached match set and must not differ.
        system_->query_cache().Invalidate();
        const cache::CacheStats before =
            system_->query_cache().AllowlistStats();
        auto got = system_->Execute(request);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        auto replay = system_->Execute(request);
        ASSERT_TRUE(replay.ok()) << replay.status().ToString();
        const cache::CacheStats after = system_->query_cache().AllowlistStats();
        EXPECT_EQ(after.misses, before.misses + 1);
        EXPECT_EQ(after.hits, before.hits + 1);
        EXPECT_EQ(EarthQubeService::QueryResponseToJson(*replay),
                  EarthQubeService::QueryResponseToJson(*got))
            << "page " << page << " of size " << page_size;
        EXPECT_EQ(replay->query_stats.plan, got->query_stats.plan);
        EXPECT_EQ(replay->query_stats.docs_examined,
                  got->query_stats.docs_examined);
        EXPECT_EQ(replay->query_stats.index_candidates,
                  got->query_stats.index_candidates);
        QueryResponse want;
        want.panel = ResultPanel(all);
        want.statistics = LabelStatistics::FromLabelSets(label_sets);
        want.query_stats = got->query_stats;
        want.plan = got->plan;
        want.page = page;
        want.page_size = page_size;
        if (page_size > 0 && (page + 1) * page_size < all.size()) {
          want.cursor = EncodeCursor({page + 1, page_size, ""});
        }
        EXPECT_EQ(got->panel.total(), all.size());
        ASSERT_EQ(EarthQubeService::QueryResponseToJson(*got),
                  EarthQubeService::QueryResponseToJson(want))
            << "page " << page << " of size " << page_size;
      }
    }
  }
}

TEST_F(EarthQubeTest, SimilarByNameExcludesSelfAndSorts) {
  const std::string& name = archive_->patches[10].name;
  auto response = system_->Execute(
      SimilarRequest(SimilaritySpec::NameRadius(name, /*radius=*/8)));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->panel.FindByName(name), nullptr);  // self excluded
  EXPECT_EQ(response->query_stats.plan, "CBIR");
}

TEST_F(EarthQubeTest, SimilaritySearchFindsSemanticNeighbors) {
  // For several queries, retrieved images share labels with the query far
  // more often than random pairs would.
  size_t shared = 0, total = 0;
  for (size_t q = 0; q < 20; ++q) {
    const auto& meta = archive_->patches[q * 7];
    auto response = system_->Execute(
        SimilarRequest(SimilaritySpec::NameKnn(meta.name, 10)));
    ASSERT_TRUE(response.ok());
    for (const auto& e : response->panel.entries()) {
      ++total;
      if (e.labels.ContainsAny(meta.labels)) ++shared;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(shared) / total, 0.6);
}

TEST_F(EarthQubeTest, BatchSimilarMatchesSequentialQueries) {
  std::vector<std::string> names;
  for (size_t i = 0; i < 6; ++i) names.push_back(archive_->patches[i * 9].name);
  names.push_back(names[0]);  // duplicate query in the same batch
  constexpr uint32_t kRadius = 8;

  auto batch = system_->ExecuteBatch(HitsRequests(names, [](const auto& n) {
    return SimilaritySpec::NameRadius(n, kRadius);
  }));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    const std::vector<CbirResult>& hits = (*batch)[i].hits;
    auto single = RadiusByName(*system_->cbir(), names[i], kRadius);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(hits.size(), single->size()) << "query " << i;
    for (size_t j = 0; j < single->size(); ++j) {
      EXPECT_EQ(hits[j].patch_name, (*single)[j].patch_name)
          << "query " << i << " hit " << j;
      EXPECT_EQ(hits[j].hamming_distance, (*single)[j].hamming_distance)
          << "query " << i << " hit " << j;
    }
  }
}

TEST_F(EarthQubeTest, BatchNearestMatchesSequentialKnn) {
  std::vector<std::string> names = {archive_->patches[3].name,
                                    archive_->patches[44].name,
                                    archive_->patches[100].name};
  constexpr size_t kK = 12;
  auto batch = system_->ExecuteBatch(HitsRequests(
      names, [](const auto& n) { return SimilaritySpec::NameKnn(n, kK); }));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    const std::vector<CbirResult>& hits = (*batch)[i].hits;
    auto single = KnnByName(*system_->cbir(), names[i], kK);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ(hits.size(), single->size()) << "query " << i;
    for (size_t j = 0; j < single->size(); ++j) {
      EXPECT_EQ(hits[j].patch_name, (*single)[j].patch_name)
          << "query " << i << " hit " << j;
    }
    // Self is excluded from every batch slot.
    for (const auto& hit : hits) {
      EXPECT_NE(hit.patch_name, names[i]);
    }
  }
}

TEST_F(EarthQubeTest, BatchQueriesEdgeCases) {
  const auto radius4 = [](const auto& n) {
    return SimilaritySpec::NameRadius(n, 4);
  };
  // Any unknown name fails the whole batch with NotFound.
  EXPECT_TRUE(system_
                  ->ExecuteBatch(HitsRequests(
                      {archive_->patches[0].name, "ghost_patch"}, radius4))
                  .status()
                  .IsNotFound());
  // An empty batch succeeds with an empty result.
  auto empty = system_->ExecuteBatch(HitsRequests({}, radius4));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  // k == 0 asks for no neighbours and must return none (not the k+1
  // self-match overfetch leaking through).
  auto zero_knn = KnnByName(*system_->cbir(), archive_->patches[0].name, 0);
  ASSERT_TRUE(zero_knn.ok());
  EXPECT_TRUE(zero_knn->empty());
  auto zero_batch = system_->ExecuteBatch(
      HitsRequests({archive_->patches[0].name, archive_->patches[1].name},
                   [](const auto& n) { return SimilaritySpec::NameKnn(n, 0); }));
  ASSERT_TRUE(zero_batch.ok());
  ASSERT_EQ(zero_batch->size(), 2u);
  EXPECT_TRUE((*zero_batch)[0].hits.empty());
  EXPECT_TRUE((*zero_batch)[1].hits.empty());
}

TEST_F(EarthQubeTest, CbirBatchedStreamsMatchSingleStreams) {
  // Batch query-by-feature: one forward pass for the matrix and one
  // batched open must yield exactly the per-row single-stream results.
  constexpr size_t kBatch = 5;
  const size_t dim = features_->shape()[1];
  Tensor batch_features({kBatch, dim});
  for (size_t q = 0; q < kBatch; ++q) {
    batch_features.SetRow(q, features_->Row(q * 13));
  }
  const CbirService* cbir = system_->cbir();
  auto codes = cbir->HashFeatures(batch_features);
  ASSERT_TRUE(codes.ok());
  ASSERT_EQ(codes->size(), kBatch);
  auto streams = cbir->OpenStreams(*codes, /*radius=*/8u,
                                   std::vector<size_t>(kBatch, 0), nullptr,
                                   std::vector<std::string>(kBatch));
  ASSERT_EQ(streams.size(), kBatch);
  for (size_t q = 0; q < kBatch; ++q) {
    Tensor row({1, dim});
    row.SetRow(0, features_->Row(q * 13));
    auto one = cbir->HashFeatures(row);
    ASSERT_TRUE(one.ok());
    const auto batched = DrainStream(*streams[q]);
    const auto single =
        DrainStream(*cbir->OpenStream(one->front(), 8u, 0, nullptr));
    ASSERT_EQ(batched.size(), single.size()) << "query " << q;
    for (size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(batched[j].patch_name, single[j].patch_name)
          << "query " << q << " hit " << j;
      EXPECT_EQ(batched[j].hamming_distance, single[j].hamming_distance)
          << "query " << q << " hit " << j;
    }
  }
  // Shape validation: rank-1 input is rejected.
  EXPECT_TRUE(cbir->HashFeatures(features_->Row(0)).status().IsInvalidArgument());
}

TEST_F(EarthQubeTest, QueryByNewExample) {
  // Synthesise a patch that is NOT part of the ingested archive by using
  // metadata from the archive but treating pixels as an upload.
  bigearthnet::Patch upload =
      generator_->SynthesizePatch(archive_->patches[33]);
  upload.meta.name = "uploaded_by_visitor";
  auto response = system_->Execute(
      SimilarRequest(SimilaritySpec::PatchRadius(upload, /*radius=*/10)));
  ASSERT_TRUE(response.ok());
  EXPECT_GT(response->panel.total(), 0u);
  // The original archive twin should be among the closest results.
  EXPECT_NE(response->panel.FindByName(archive_->patches[33].name), nullptr);
}

TEST_F(EarthQubeTest, UnknownImageNameIsNotFound) {
  EXPECT_TRUE(system_
                  ->Execute(SimilarRequest(
                      SimilaritySpec::NameRadius("ghost_patch", 4)))
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(system_->GetMetadata("ghost_patch").status().IsNotFound());
}

TEST_F(EarthQubeTest, MetadataLookup) {
  auto meta = system_->GetMetadata(archive_->patches[5].name);
  ASSERT_TRUE(meta.ok());
  EXPECT_TRUE(meta->labels == archive_->patches[5].labels);
}

TEST_F(EarthQubeTest, ImagePayloadStoreAndLoad) {
  bigearthnet::Patch patch = generator_->SynthesizePatch(archive_->patches[2]);
  ASSERT_TRUE(system_->StorePatchPixels(patch).ok());
  EXPECT_TRUE(system_->StorePatchPixels(patch).IsAlreadyExists());
  auto loaded = system_->LoadPatchPixels(patch.meta.name);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->s2_bands[0].pixels, patch.s2_bands[0].pixels);
}

TEST_F(EarthQubeTest, RenderedImageStoreAndGet) {
  bigearthnet::Patch patch = generator_->SynthesizePatch(archive_->patches[4]);
  ASSERT_TRUE(system_->StoreRenderedImage(patch).ok());
  auto rgb = system_->GetRenderedImage(patch.meta.name);
  ASSERT_TRUE(rgb.ok());
  EXPECT_EQ(rgb->size(), 120u * 120u * 3u);
}

TEST_F(EarthQubeTest, FeedbackCollection) {
  const size_t before = system_->NumFeedbackEntries();
  ASSERT_TRUE(system_->SubmitFeedback("lovely beaches in the demo").ok());
  EXPECT_EQ(system_->NumFeedbackEntries(), before + 1);
}

TEST_F(EarthQubeTest, CbirWithoutServiceFailsGracefully) {
  EarthQube bare;
  EXPECT_TRUE(bare.Execute(SimilarRequest(SimilaritySpec::NameRadius("x", 4)))
                  .status()
                  .IsFailedPrecondition());
}


// ---------------------------------------------------------------------------
// ZipWriter / download export
// ---------------------------------------------------------------------------

TEST(ZipWriterTest, EmptyArchiveIsValid) {
  ZipWriter zip;
  const auto bytes = zip.Finish();
  ASSERT_GE(bytes.size(), 22u);
  // End-of-central-directory signature.
  EXPECT_EQ(bytes[0], 0x50);
  EXPECT_EQ(bytes[1], 0x4b);
  auto entries = ZipExtractAll(bytes);
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(ZipWriterTest, RoundTripsEntries) {
  ZipWriter zip;
  ASSERT_TRUE(zip.Add("a/metadata.json", std::string("{\"x\":1}")).ok());
  std::vector<uint8_t> binary = {0, 1, 2, 255, 254, 0, 42};
  ASSERT_TRUE(zip.Add("a/bands.bin", binary).ok());
  ASSERT_TRUE(zip.Add("manifest.txt", std::string("a\n")).ok());
  const auto bytes = zip.Finish();
  // Local-header magic "PK\3\4" first.
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes[2], 0x03);
  EXPECT_EQ(bytes[3], 0x04);

  auto entries = ZipExtractAll(bytes);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].first, "a/metadata.json");
  EXPECT_EQ((*entries)[1].first, "a/bands.bin");
  EXPECT_EQ((*entries)[1].second, binary);
  EXPECT_EQ(std::string((*entries)[2].second.begin(),
                        (*entries)[2].second.end()),
            "a\n");
}

TEST(ZipWriterTest, RejectsBadNamesAndDuplicates) {
  ZipWriter zip;
  EXPECT_TRUE(zip.Add("", std::string("x")).IsInvalidArgument());
  EXPECT_TRUE(zip.Add("/abs/path", std::string("x")).IsInvalidArgument());
  EXPECT_TRUE(zip.Add("back\\slash", std::string("x")).IsInvalidArgument());
  ASSERT_TRUE(zip.Add("ok.txt", std::string("x")).ok());
  EXPECT_TRUE(zip.Add("ok.txt", std::string("y")).IsAlreadyExists());
}

TEST(ZipWriterTest, ExtractDetectsCorruption) {
  ZipWriter zip;
  ASSERT_TRUE(zip.Add("f.bin", std::vector<uint8_t>(100, 7)).ok());
  auto bytes = zip.Finish();
  // Flip a payload byte: the CRC check must catch it.
  bytes[40] ^= 0xFF;
  EXPECT_TRUE(ZipExtractAll(bytes).status().IsCorruption());
  // Truncation must be detected, not crash.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_FALSE(ZipExtractAll(truncated).ok());
}

TEST(ZipWriterTest, DeterministicOutput) {
  auto build = [] {
    ZipWriter zip;
    (void)!zip.Add("x.txt", std::string("hello")).ok();
    return zip.Finish();
  };
  EXPECT_EQ(build(), build());
}

// ---------------------------------------------------------------------------
// Unified QueryRequest validation + paging cursor
// ---------------------------------------------------------------------------

TEST(QueryRequestTest, ValidationRules) {
  QueryRequest empty;
  EXPECT_TRUE(empty.Validate().IsInvalidArgument());

  QueryRequest panel_only;
  panel_only.panel = EarthQubeQuery{};
  EXPECT_TRUE(panel_only.Validate().ok());

  // Hits-only projection makes no sense without a similarity spec.
  panel_only.projection = Projection::kHitsOnly;
  EXPECT_TRUE(panel_only.Validate().IsInvalidArgument());

  QueryRequest conflicting;
  SimilaritySpec both = SimilaritySpec::NameRadius("x", 4);
  both.k = 5;  // radius AND k
  conflicting.similarity = both;
  EXPECT_TRUE(conflicting.Validate().IsInvalidArgument());

  SimilaritySpec no_mode;
  no_mode.archive_name = "x";
  conflicting.similarity = no_mode;
  EXPECT_TRUE(conflicting.Validate().IsInvalidArgument());

  SimilaritySpec two_subjects = SimilaritySpec::NameRadius("x", 4);
  two_subjects.code = BinaryCode(32);
  conflicting.similarity = two_subjects;
  EXPECT_TRUE(conflicting.Validate().IsInvalidArgument());

  QueryRequest ok;
  ok.similarity = SimilaritySpec::NameKnn("x", 5);
  EXPECT_TRUE(ok.Validate().ok());
}

TEST(QueryRequestTest, CursorRoundTrip) {
  const std::string token = EncodeCursor({7, 25});
  auto decoded = DecodeCursor(token);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->page, 7u);
  EXPECT_EQ(decoded->page_size, 25u);

  EXPECT_TRUE(DecodeCursor("not base64!").status().IsCursorExpired());
  EXPECT_TRUE(DecodeCursor("aGVsbG8=").status().IsCursorExpired());
  EXPECT_TRUE(DecodeCursor("").status().IsCursorExpired());
}

TEST(QueryRequestTest, CursorPageWindowOverflowRejected) {
  // A crafted v3 cursor with page = 2^64-2, page_size = 1 would wrap
  // need = page*page_size + page_size + 1 to 0 and turn the windowing
  // bounds check into an out-of-bounds read; the decoder must reject it.
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const auto wrapped =
      DecodeCursor(EncodeCursor({kMax - 1, 1, "deadbeefdeadbeef"}));
  EXPECT_TRUE(wrapped.status().IsCursorExpired());

  const auto wide = DecodeCursor(EncodeCursor({2, kMax / 2}));
  EXPECT_TRUE(wide.status().IsCursorExpired());

  // The same window is rejected when it arrives as raw request fields.
  QueryRequest overflow;
  overflow.similarity = SimilaritySpec::NameKnn("x", 5);
  overflow.page = kMax - 1;
  overflow.page_size = 1;
  EXPECT_TRUE(overflow.Validate().IsInvalidArgument());
  overflow.page = 7;
  overflow.page_size = 25;
  EXPECT_TRUE(overflow.Validate().ok());
}

TEST(QueryRequestTest, CursorRejectionsAreTyped) {
  // Every decoder failure is typed kCursorExpired (the 410 envelope),
  // whatever its message says...
  for (const char* token : {"not base64!", "aGVsbG8=", ""}) {
    const Status status = DecodeCursor(token).status();
    EXPECT_EQ(status.code(), StatusCode::kCursorExpired) << token;
    EXPECT_EQ(std::string(StatusCodeToString(status.code())), "CursorExpired");
  }
  // ...and the message text classifies nothing: an InvalidArgument that
  // happens to carry the decoder's "cursor: " prefix stays one.
  EXPECT_FALSE(Status::InvalidArgument("cursor: malformed").IsCursorExpired());
}

// ---------------------------------------------------------------------------
// Hybrid (filter ∧ similarity) execution and the selectivity planner
// ---------------------------------------------------------------------------

/// A small EarthQube with a CBIR service.  The MiLaN model stays
/// untrained: hybrid parity and planner behaviour depend only on codes
/// being deterministic, not on retrieval quality.
class HybridFixture {
 public:
  explicit HybridFixture(EarthQubeConfig system_config = {},
                         size_t num_shards = 1) {
    bigearthnet::ArchiveConfig config;
    config.num_patches = 400;
    config.seed = 17;
    generator_ = std::make_unique<bigearthnet::ArchiveGenerator>(config);
    auto archive = generator_->Generate();
    if (!archive.ok()) std::abort();
    archive_ = std::move(archive).value();

    features_ = extractor_.ExtractArchive(archive_, *generator_, 2);
    system_ = std::make_unique<EarthQube>(system_config);
    if (!system_->IngestArchive(archive_).ok()) std::abort();

    milan::MilanConfig mconfig;
    mconfig.feature_dim = bigearthnet::kFeatureDim;
    mconfig.hidden1 = 32;
    mconfig.hidden2 = 16;
    mconfig.hash_bits = 32;
    mconfig.dropout = 0.0f;
    CbirConfig cbir_config;
    cbir_config.num_shards = num_shards;
    auto cbir = std::make_unique<CbirService>(
        std::make_unique<milan::MilanModel>(mconfig), &extractor_,
        cbir_config);
    std::vector<std::string> names;
    for (const auto& p : archive_.patches) names.push_back(p.name);
    if (!cbir->AddImages(names, features_).ok()) std::abort();
    system_->AttachCbir(std::move(cbir));
  }

  EarthQube& system() { return *system_; }
  const bigearthnet::Archive& archive() const { return archive_; }
  const Tensor& features() const { return features_; }

 private:
  std::unique_ptr<bigearthnet::ArchiveGenerator> generator_;
  bigearthnet::Archive archive_;
  bigearthnet::FeatureExtractor extractor_;
  Tensor features_;
  std::unique_ptr<EarthQube> system_;
};

std::vector<std::pair<std::string, uint32_t>> HitList(
    const QueryResponse& response) {
  std::vector<std::pair<std::string, uint32_t>> out;
  for (const CbirResult& hit : response.hits) {
    out.emplace_back(hit.patch_name, hit.hamming_distance);
  }
  return out;
}

TEST(HybridPlannerTest, PreAndPostFilterParity) {
  HybridFixture fixture;
  const std::string& query_name = fixture.archive().patches[3].name;

  EarthQubeQuery panel;
  panel.seasons = {Season::kSummer, Season::kAutumn};

  std::vector<SimilaritySpec> specs = {
      SimilaritySpec::NameRadius(query_name, 10),
      SimilaritySpec::NameRadius(query_name, 14, /*limit=*/12),
      SimilaritySpec::NameKnn(query_name, 9),
  };
  for (size_t s = 0; s < specs.size(); ++s) {
    QueryRequest pre;
    pre.panel = panel;
    pre.similarity = specs[s];
    pre.planner = PlannerMode::kForcePreFilter;
    pre.page_size = 0;
    QueryRequest post = pre;
    post.planner = PlannerMode::kForcePostFilter;

    auto pre_response = fixture.system().Execute(pre);
    auto post_response = fixture.system().Execute(post);
    ASSERT_TRUE(pre_response.ok()) << pre_response.status().ToString();
    ASSERT_TRUE(post_response.ok()) << post_response.status().ToString();
    EXPECT_EQ(pre_response->plan.strategy, QueryPlan::Strategy::kPreFilter);
    EXPECT_EQ(post_response->plan.strategy,
              QueryPlan::Strategy::kPostFilter);
    EXPECT_EQ(HitList(*pre_response), HitList(*post_response)) << "spec " << s;
    // The joined panels agree too (same entries, same order).
    ASSERT_EQ(pre_response->panel.total(), post_response->panel.total());
    for (size_t i = 0; i < pre_response->panel.entries().size(); ++i) {
      EXPECT_EQ(pre_response->panel.entries()[i].name,
                post_response->panel.entries()[i].name);
    }
  }
}

TEST(HybridPlannerTest, HybridRadiusEqualsFilterIntersection) {
  HybridFixture fixture;
  EarthQube& system = fixture.system();
  const std::string& query_name = fixture.archive().patches[10].name;

  EarthQubeQuery panel;
  panel.seasons = {Season::kWinter};

  QueryRequest hybrid;
  hybrid.panel = panel;
  hybrid.similarity = SimilaritySpec::NameRadius(query_name, 12);
  hybrid.page_size = 0;
  auto response = system.Execute(hybrid);
  ASSERT_TRUE(response.ok());

  // Ground truth: CBIR radius hits intersected with the filter matches.
  auto cbir_only =
      system.Execute(SimilarRequest(SimilaritySpec::NameRadius(query_name, 12)));
  ASSERT_TRUE(cbir_only.ok());
  auto filter_only = system.Execute(PanelRequest(panel));
  ASSERT_TRUE(filter_only.ok());
  std::set<std::string> allowed;
  for (const auto& e : filter_only->panel.entries()) allowed.insert(e.name);

  std::vector<std::string> expected;
  for (const auto& e : cbir_only->panel.entries()) {
    if (allowed.count(e.name)) expected.push_back(e.name);
  }
  std::vector<std::string> actual;
  for (const CbirResult& hit : response->hits) {
    actual.push_back(hit.patch_name);
  }
  EXPECT_EQ(actual, expected);
  EXPECT_FALSE(response->plan.description.empty());
}

TEST(HybridPlannerTest, AutoPlannerFollowsSelectivityThreshold) {
  HybridFixture fixture;
  EarthQube& system = fixture.system();
  const std::string& query_name = fixture.archive().patches[0].name;

  // An unfiltered panel (selectivity ~1.0) must post-filter.
  QueryRequest broad;
  broad.panel = EarthQubeQuery{};
  broad.similarity = SimilaritySpec::NameKnn(query_name, 5);
  auto broad_response = system.Execute(broad);
  ASSERT_TRUE(broad_response.ok());
  EXPECT_EQ(broad_response->plan.strategy, QueryPlan::Strategy::kPostFilter);
  EXPECT_GT(broad_response->plan.estimated_selectivity,
            system.config().prefilter_selectivity_threshold);

  // An exact-label-set panel (hash-indexed, few documents) should fall
  // below the threshold and pre-filter.
  EarthQubeQuery narrow_panel;
  narrow_panel.label_filter =
      LabelFilter::Exactly(fixture.archive().patches[0].labels);
  QueryRequest narrow;
  narrow.panel = narrow_panel;
  narrow.similarity = SimilaritySpec::NameKnn(query_name, 5);
  auto narrow_response = system.Execute(narrow);
  ASSERT_TRUE(narrow_response.ok());
  if (narrow_response->plan.estimated_selectivity <=
      system.config().prefilter_selectivity_threshold) {
    EXPECT_EQ(narrow_response->plan.strategy,
              QueryPlan::Strategy::kPreFilter);
  }
}

// ---------------------------------------------------------------------------
// The partitioned index through the whole stack: a sharded EarthQube
// answers byte-identically to an unsharded one on every query shape
// ---------------------------------------------------------------------------

TEST(ShardedExecutionTest, ShardedSystemMatchesUnshardedOnAllShapes) {
  HybridFixture plain;
  HybridFixture sharded(EarthQubeConfig{}, /*num_shards=*/4);
  const std::string& query_name = plain.archive().patches[7].name;

  EarthQubeQuery panel;
  panel.seasons = {Season::kSummer, Season::kAutumn};

  std::vector<QueryRequest> shapes;
  {
    QueryRequest cbir_radius;
    cbir_radius.similarity = SimilaritySpec::NameRadius(query_name, 11);
    cbir_radius.page_size = 0;
    shapes.push_back(cbir_radius);
    QueryRequest cbir_knn;
    cbir_knn.similarity = SimilaritySpec::NameKnn(query_name, 8);
    cbir_knn.page_size = 0;
    shapes.push_back(cbir_knn);
    QueryRequest hybrid_pre = cbir_radius;
    hybrid_pre.panel = panel;
    hybrid_pre.planner = PlannerMode::kForcePreFilter;
    shapes.push_back(hybrid_pre);
    QueryRequest hybrid_post = hybrid_pre;
    hybrid_post.planner = PlannerMode::kForcePostFilter;
    shapes.push_back(hybrid_post);
  }
  for (size_t s = 0; s < shapes.size(); ++s) {
    auto want = plain.system().Execute(shapes[s]);
    auto got = sharded.system().Execute(shapes[s]);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(HitList(*got), HitList(*want)) << "shape " << s;
    ASSERT_EQ(got->panel.total(), want->panel.total());
    for (size_t i = 0; i < got->panel.entries().size(); ++i) {
      EXPECT_EQ(got->panel.entries()[i].name, want->panel.entries()[i].name);
    }
  }

  // The batch path (the engine's micro-batched fan-out across shards).
  std::vector<std::string> names;
  for (size_t i = 0; i < 12; ++i) {
    names.push_back(plain.archive().patches[i * 17].name);
  }
  const std::vector<QueryRequest> batch = HitsRequests(
      names, [](const auto& n) { return SimilaritySpec::NameRadius(n, 10); });
  auto want_batch = plain.system().ExecuteBatch(batch);
  auto got_batch = sharded.system().ExecuteBatch(batch);
  ASSERT_TRUE(want_batch.ok());
  ASSERT_TRUE(got_batch.ok());
  ASSERT_EQ(got_batch->size(), want_batch->size());
  for (size_t i = 0; i < want_batch->size(); ++i) {
    EXPECT_EQ(HitList((*got_batch)[i]), HitList((*want_batch)[i])) << i;
  }
}

// ---------------------------------------------------------------------------
// Histogram-fed planner regression at the bench_hybrid_query crossover
// points: ~1% selectivity must pre-filter, ~50% must post-filter, and
// the histogram estimate must stay close to the true filter count
// ---------------------------------------------------------------------------

TEST(HybridPlannerTest, HistogramEstimatesMatchCrossoverDecisions) {
  // A larger archive than HybridFixture's: scenes share one acquisition
  // date (~48 patches each), so sub-threshold date selectivities only
  // exist once a single scene is a small fraction of the collection.
  bigearthnet::ArchiveConfig config;
  config.num_patches = 1600;
  config.seed = 41;
  bigearthnet::ArchiveGenerator generator(config);
  auto generated = generator.Generate();
  ASSERT_TRUE(generated.ok());
  const bigearthnet::Archive archive = std::move(generated).value();

  EarthQube system;
  ASSERT_TRUE(system.IngestArchive(archive).ok());
  bigearthnet::FeatureExtractor extractor;
  const Tensor features = extractor.ExtractArchive(archive, generator, 2);
  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 32;
  mconfig.hidden2 = 16;
  mconfig.hash_bits = 32;
  mconfig.dropout = 0.0f;
  auto cbir = std::make_unique<CbirService>(
      std::make_unique<milan::MilanModel>(mconfig), &extractor,
      CbirConfig{});
  std::vector<std::string> names;
  for (const auto& p : archive.patches) names.push_back(p.name);
  ASSERT_TRUE(cbir->AddImages(names, features).ok());
  system.AttachCbir(std::move(cbir));
  const std::string& query_name = archive.patches[3].name;

  // Calibrate date windows to ~1% and ~50% of the archive, the same way
  // bench_hybrid_query does.
  std::vector<std::string> dates;
  for (const auto& p : archive.patches) {
    dates.push_back(p.acquisition_date.ToString());
  }
  std::sort(dates.begin(), dates.end());
  for (int pct : {1, 50}) {
    const size_t idx = std::min(dates.size() - 1, dates.size() * pct / 100);
    auto begin = CivilDate::Parse(dates.front());
    auto end = CivilDate::Parse(dates[idx]);
    ASSERT_TRUE(begin.ok());
    ASSERT_TRUE(end.ok());
    EarthQubeQuery panel;
    panel.date_range = DateRange{*begin, *end};

    const size_t truth = system.CountMatches(panel);
    QueryRequest request;
    request.panel = panel;
    request.similarity = SimilaritySpec::NameKnn(query_name, 6);
    request.page_size = 0;
    auto response = system.Execute(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();

    // The histogram estimate is an upper bound on the true count and
    // within a small factor of it (date ordinals are integers, so the
    // only slack is bucket-edge rounding).
    EXPECT_GE(response->plan.estimated_filter_matches, truth);
    EXPECT_LE(response->plan.estimated_filter_matches,
              std::max<size_t>(3 * truth + 30, 1));

    // And the auto planner lands on the strategy the bench measures as
    // faster on each side of the crossover.
    if (pct == 1) {
      EXPECT_EQ(response->plan.strategy, QueryPlan::Strategy::kPreFilter)
          << "achieved selectivity "
          << response->plan.estimated_selectivity;
    } else {
      EXPECT_EQ(response->plan.strategy, QueryPlan::Strategy::kPostFilter)
          << "achieved selectivity "
          << response->plan.estimated_selectivity;
    }
  }
}

TEST(HybridPlannerTest, ExecutePagingAndCursor) {
  HybridFixture fixture;
  EarthQube& system = fixture.system();

  QueryRequest request;
  request.panel = EarthQubeQuery{};
  request.page_size = 30;
  auto first = system.Execute(request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->total(), fixture.archive().patches.size());
  ASSERT_FALSE(first->cursor.empty());

  auto cursor = DecodeCursor(first->cursor);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(cursor->page, 1u);
  EXPECT_EQ(cursor->page_size, 30u);

  // The final page carries no continuation cursor.
  QueryRequest last = request;
  last.page = (first->total() - 1) / 30;
  auto last_response = system.Execute(last);
  ASSERT_TRUE(last_response.ok());
  EXPECT_TRUE(last_response->cursor.empty());
}

// ---------------------------------------------------------------------------
// Query cache
// ---------------------------------------------------------------------------

/// Asserts two responses are identical in every caller-visible field
/// except served_from_cache.
void ExpectSameResponse(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(HitList(a), HitList(b));
  ASSERT_EQ(a.panel.total(), b.panel.total());
  for (size_t i = 0; i < a.panel.entries().size(); ++i) {
    EXPECT_EQ(a.panel.entries()[i].name, b.panel.entries()[i].name);
  }
  EXPECT_EQ(a.plan.strategy, b.plan.strategy);
  EXPECT_EQ(a.plan.description, b.plan.description);
  EXPECT_EQ(a.query_stats.plan, b.query_stats.plan);
  EXPECT_EQ(a.query_stats.docs_examined, b.query_stats.docs_examined);
  EXPECT_EQ(a.page, b.page);
  EXPECT_EQ(a.page_size, b.page_size);
  EXPECT_EQ(a.cursor, b.cursor);
}

TEST(QueryCacheTest, RequestFingerprintCanonicalizesAndDistinguishes) {
  QueryRequest request;
  EarthQubeQuery panel;
  panel.satellites = {"S2A", "S2B"};
  panel.seasons = {Season::kSummer, Season::kWinter};
  request.panel = panel;
  request.similarity = SimilaritySpec::NameKnn("img", 5);
  const auto fp = QueryCache::RequestFingerprint(request);
  ASSERT_TRUE(fp.has_value());

  // Order-insensitive filter terms canonicalize to one fingerprint.
  QueryRequest permuted = request;
  permuted.panel->satellites = {"S2B", "S2A"};
  permuted.panel->seasons = {Season::kWinter, Season::kSummer};
  EXPECT_EQ(QueryCache::RequestFingerprint(permuted), fp);

  // Paging, planner and projection are part of the key.
  QueryRequest paged = request;
  paged.page = 1;
  EXPECT_NE(QueryCache::RequestFingerprint(paged), fp);
  QueryRequest pinned = request;
  pinned.planner = PlannerMode::kForcePreFilter;
  EXPECT_NE(QueryCache::RequestFingerprint(pinned), fp);
  QueryRequest hits_only = request;
  hits_only.projection = Projection::kHitsOnly;
  EXPECT_NE(QueryCache::RequestFingerprint(hits_only), fp);

  // Uploaded-patch subjects are not fingerprintable.
  QueryRequest upload;
  upload.similarity =
      SimilaritySpec::PatchRadius(bigearthnet::Patch{}, /*radius=*/4);
  EXPECT_FALSE(QueryCache::RequestFingerprint(upload).has_value());
}

TEST(QueryCacheTest, RepeatedQueryServedFromCacheIdentically) {
  HybridFixture fixture;
  EarthQube& system = fixture.system();
  const std::string& name = fixture.archive().patches[7].name;

  QueryRequest request;
  request.similarity = SimilaritySpec::NameRadius(name, 10);
  auto first = system.Execute(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->served_from_cache);

  auto second = system.Execute(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->served_from_cache);
  ExpectSameResponse(*first, *second);

  const cache::CacheStats stats = system.query_cache().ResponseStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryCacheTest, DisabledCachesNeverServeOrStore) {
  EarthQubeConfig config;
  config.cache.enable_response_cache = false;
  config.cache.enable_allowlist_cache = false;
  HybridFixture fixture(config);
  EarthQube& system = fixture.system();
  const std::string& name = fixture.archive().patches[7].name;

  QueryRequest request;
  request.similarity = SimilaritySpec::NameRadius(name, 10);
  auto first = system.Execute(request);
  auto second = system.Execute(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first->served_from_cache);
  EXPECT_FALSE(second->served_from_cache);
  ExpectSameResponse(*first, *second);
  EXPECT_EQ(system.query_cache().ResponseStats().puts, 0u);
  EXPECT_EQ(system.query_cache().ResponseStats().hits, 0u);
}

/// The stale-hit correctness guard for the response cache: after a new
/// archive lands, the very next identical query must see the new data.
TEST(QueryCacheTest, IngestInvalidatesResponseCache) {
  HybridFixture fixture;
  EarthQube& system = fixture.system();
  const auto& patch0 = fixture.archive().patches[0];

  QueryRequest request;
  request.similarity = SimilaritySpec::NameRadius(patch0.name, 6);
  auto warm = system.Execute(request);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(system.Execute(request)->served_from_cache);

  // A twin of patch 0 arrives: same features (so Hamming distance 0 to
  // the query), new name, ingested as a fresh archive.
  bigearthnet::Archive extra;
  bigearthnet::PatchMetadata twin = patch0;
  twin.name = "twin_of_patch_0";
  extra.patches.push_back(twin);
  ASSERT_TRUE(
      system.cbir()->AddImage(twin.name, fixture.features().Row(0)).ok());
  ASSERT_TRUE(system.IngestArchive(extra).ok());

  auto fresh = system.Execute(request);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->served_from_cache);
  // Similarity responses are windowed; the twin ties with many other
  // distance-0 hits, so walk every page of the fresh ranking.
  std::set<std::string> hit_names;
  for (const CbirResult& hit : fresh->hits) hit_names.insert(hit.patch_name);
  QueryRequest next = request;
  while (!fresh->cursor.empty()) {
    ++next.page;
    fresh = system.Execute(next);
    ASSERT_TRUE(fresh.ok());
    for (const CbirResult& hit : fresh->hits) hit_names.insert(hit.patch_name);
  }
  EXPECT_TRUE(hit_names.count("twin_of_patch_0"))
      << "stale cached response hid the newly ingested twin";
  EXPECT_GE(system.query_cache().ResponseStats().stale_drops, 1u);
}

/// Same guard for the allowlist cache: the response cache is disabled so
/// the pre-filter leg's cached allowlist is what must invalidate.
TEST(QueryCacheTest, IngestInvalidatesAllowlistCache) {
  EarthQubeConfig config;
  config.cache.enable_response_cache = false;
  HybridFixture fixture(config);
  EarthQube& system = fixture.system();
  const auto& patch0 = fixture.archive().patches[0];

  QueryRequest request;
  EarthQubeQuery panel;
  panel.seasons = {patch0.season};
  request.panel = panel;
  request.similarity = SimilaritySpec::NameRadius(patch0.name, 6);
  request.planner = PlannerMode::kForcePreFilter;
  request.page_size = 0;

  auto warm = system.Execute(request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  auto replay = system.Execute(request);
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->served_from_cache);
  EXPECT_EQ(system.query_cache().AllowlistStats().hits, 1u);
  ExpectSameResponse(*warm, *replay);

  // The twin matches the season filter, so a fresh allowlist must
  // include it; a stale one cannot.
  bigearthnet::Archive extra;
  bigearthnet::PatchMetadata twin = patch0;
  twin.name = "twin_of_patch_0";
  extra.patches.push_back(twin);
  ASSERT_TRUE(
      system.cbir()->AddImage(twin.name, fixture.features().Row(0)).ok());
  ASSERT_TRUE(system.IngestArchive(extra).ok());

  auto fresh = system.Execute(request);
  ASSERT_TRUE(fresh.ok());
  std::set<std::string> hit_names;
  for (const CbirResult& hit : fresh->hits) hit_names.insert(hit.patch_name);
  QueryRequest next = request;
  while (!fresh->cursor.empty()) {
    ++next.page;
    fresh = system.Execute(next);
    ASSERT_TRUE(fresh.ok());
    for (const CbirResult& hit : fresh->hits) hit_names.insert(hit.patch_name);
  }
  EXPECT_TRUE(hit_names.count("twin_of_patch_0"))
      << "stale cached allowlist excluded the newly ingested twin";
  EXPECT_GE(system.query_cache().AllowlistStats().stale_drops, 1u);
}

/// The panel's side of the same guard: an ingest between two identical
/// panels must reach the second one's total, rows and label counts.
TEST(QueryCacheTest, IngestInvalidatesPanelMatchSet) {
  HybridFixture fixture;
  EarthQube& system = fixture.system();
  const auto& patch0 = fixture.archive().patches[0];
  EarthQubeQuery panel;
  panel.seasons = {patch0.season};
  const QueryRequest request = PanelRequest(panel);

  auto warm = system.Execute(request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_FALSE(warm->panel.entries().empty());

  bigearthnet::Archive extra;
  bigearthnet::PatchMetadata twin = patch0;
  twin.name = "twin_of_patch_0";
  extra.patches.push_back(twin);
  ASSERT_TRUE(system.IngestArchive(extra).ok());

  auto fresh = system.Execute(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->panel.total(), warm->panel.total() + 1);
  // Ingest order is DocId order: the twin is the last row.
  EXPECT_EQ(fresh->panel.entries().back().name, "twin_of_patch_0");
  for (bigearthnet::LabelId label : patch0.labels.ids()) {
    EXPECT_EQ(fresh->statistics.CountOf(label),
              warm->statistics.CountOf(label) + 1);
  }
  EXPECT_EQ(fresh->statistics.num_images(), warm->statistics.num_images() + 1);
  EXPECT_GE(system.query_cache().AllowlistStats().stale_drops, 1u);
}

/// A metadata write that bypasses the facade leaves the cache epoch
/// alone; a cached match whose document is gone is reported as
/// corruption instead of being dereferenced.
TEST(QueryCacheTest, CachedMatchWithoutDocumentIsCorruption) {
  HybridFixture fixture;
  EarthQube& system = fixture.system();
  EarthQubeQuery panel;
  panel.seasons = {fixture.archive().patches[0].season};
  const QueryRequest request = PanelRequest(panel);
  ASSERT_TRUE(system.Execute(request).ok());

  docstore::Collection* metadata =
      system.database().GetCollection(kMetadataCollection);
  auto id = metadata->FindOneId(docstore::Filter::Eq(
      kFieldName, docstore::Value(fixture.archive().patches[0].name)));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(metadata->Remove(*id).ok());

  auto stale = system.Execute(request);
  ASSERT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().IsCorruption()) << stale.status().ToString();
  // The documented remedy: invalidate after writing behind the facade.
  system.query_cache().Invalidate();
  auto fresh = system.Execute(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
}

/// Panels and pre-filter hybrids on one filter share one match set, in
/// either order, and the shared answers equal cold ones.
TEST(QueryCacheTest, PanelAndPreFilterHybridShareOneMatchSet) {
  EarthQubeConfig config;
  config.cache.enable_response_cache = false;
  HybridFixture fixture(config);
  EarthQube& system = fixture.system();
  const auto& patch0 = fixture.archive().patches[0];
  EarthQubeQuery panel;
  panel.seasons = {patch0.season};
  const QueryRequest panel_request = PanelRequest(panel);
  QueryRequest hybrid = panel_request;
  hybrid.similarity = SimilaritySpec::NameKnn(patch0.name, 20);
  hybrid.planner = PlannerMode::kForcePreFilter;

  using netsvc::EarthQubeService;
  const auto cold = [&](const QueryRequest& request) {
    system.query_cache().Invalidate();
    auto response = system.Execute(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return EarthQubeService::QueryResponseToJson(*response);
  };
  const std::string cold_panel = cold(panel_request);
  const std::string cold_hybrid = cold(hybrid);

  for (bool panel_first : {true, false}) {
    SCOPED_TRACE(panel_first ? "panel first" : "hybrid first");
    system.query_cache().Invalidate();
    const cache::CacheStats before = system.query_cache().AllowlistStats();
    const QueryRequest& first = panel_first ? panel_request : hybrid;
    const QueryRequest& second = panel_first ? hybrid : panel_request;
    auto a = system.Execute(first);
    auto b = system.Execute(second);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    const cache::CacheStats after = system.query_cache().AllowlistStats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    const std::string panel_json =
        EarthQubeService::QueryResponseToJson(panel_first ? *a : *b);
    const std::string hybrid_json =
        EarthQubeService::QueryResponseToJson(panel_first ? *b : *a);
    EXPECT_EQ(panel_json, cold_panel);
    EXPECT_EQ(hybrid_json, cold_hybrid);
  }
}

/// Concurrent panel pages and pre-filter hybrids race to fill and derive
/// one match set; every answer still equals its cold reference.
TEST(QueryCacheTest, ConcurrentPanelsAndHybridsShareOneMatchSet) {
  EarthQubeConfig config;
  config.cache.enable_response_cache = false;
  HybridFixture fixture(config);
  EarthQube& system = fixture.system();
  const auto& patch0 = fixture.archive().patches[0];
  EarthQubeQuery panel;
  panel.seasons = {patch0.season};
  std::vector<QueryRequest> requests;
  for (size_t page = 0; page < 3; ++page) {
    QueryRequest request = PanelRequest(panel);
    request.page = page;
    request.page_size = 7;
    requests.push_back(request);
  }
  for (size_t k : {size_t{5}, size_t{9}}) {
    QueryRequest hybrid = PanelRequest(panel);
    hybrid.similarity = SimilaritySpec::NameKnn(patch0.name, k);
    hybrid.planner = PlannerMode::kForcePreFilter;
    requests.push_back(hybrid);
  }
  using netsvc::EarthQubeService;
  std::vector<std::string> want;
  for (const QueryRequest& request : requests) {
    system.query_cache().Invalidate();
    auto response = system.Execute(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    want.push_back(EarthQubeService::QueryResponseToJson(*response));
  }

  system.query_cache().Invalidate();
  constexpr size_t kThreads = 4;
  // Slot t lists the answers thread t got that differ from the cold one.
  std::vector<std::vector<std::string>> mismatches(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < 3; ++round) {
        for (size_t i = 0; i < requests.size(); ++i) {
          const size_t r = (i + t) % requests.size();
          auto response = system.Execute(requests[r]);
          const std::string json =
              response.ok() ? EarthQubeService::QueryResponseToJson(*response)
                            : response.status().ToString();
          if (json != want[r]) mismatches[t].push_back(json);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mismatches[t].empty()) << mismatches[t].front();
  }
}

/// A limited panel keys its own match set: it never reads the unlimited
/// one (a prefix of it would report the wrong docs_examined).
TEST(QueryCacheTest, LimitedPanelKeysItsOwnMatchSet) {
  HybridFixture fixture;
  EarthQube& system = fixture.system();
  EarthQubeQuery panel;
  panel.seasons = {fixture.archive().patches[0].season};
  EarthQubeQuery limited = panel;
  limited.limit = 5;

  system.query_cache().Invalidate();
  auto cold = system.Execute(PanelRequest(limited));
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->panel.total(), 5u);

  system.query_cache().Invalidate();
  auto unlimited = system.Execute(PanelRequest(panel));
  ASSERT_TRUE(unlimited.ok());
  ASSERT_GT(unlimited->panel.total(), 5u);
  const cache::CacheStats before = system.query_cache().AllowlistStats();
  auto first = system.Execute(PanelRequest(limited));
  auto second = system.Execute(PanelRequest(limited));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const cache::CacheStats after = system.query_cache().AllowlistStats();
  // The first limited panel misses beside the warm unlimited entry; the
  // second hits its own.
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.hits, before.hits + 1);
  for (const auto* got : {&*first, &*second}) {
    EXPECT_EQ(netsvc::EarthQubeService::QueryResponseToJson(*got),
              netsvc::EarthQubeService::QueryResponseToJson(*cold));
    EXPECT_EQ(got->query_stats.docs_examined, cold->query_stats.docs_examined);
    EXPECT_LT(got->query_stats.docs_examined,
              unlimited->query_stats.docs_examined);
  }
}

TEST(QueryCacheTest, ExecuteBatchDedupesIdenticalRequests) {
  HybridFixture fixture;
  EarthQube& system = fixture.system();
  const std::string& name_a = fixture.archive().patches[3].name;
  const std::string& name_b = fixture.archive().patches[11].name;

  // Identical slots coalesce onto one engine flight under the batch's
  // admission pause, whatever the projection.
  QueryRequest a;
  a.similarity = SimilaritySpec::NameRadius(name_a, 10);
  QueryRequest b;
  b.similarity = SimilaritySpec::NameKnn(name_b, 5);
  const std::vector<QueryRequest> requests = {a, b, a, a, b, a};

  auto batch = system.ExecuteBatch(requests);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), requests.size());

  // Two distinct requests -> exactly two executions: the response cache
  // saw two misses and zero hits (duplicates were fanned out, not
  // re-executed, not even served from cache).
  const cache::CacheStats stats = system.query_cache().ResponseStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.puts, 2u);

  ExpectSameResponse((*batch)[0], (*batch)[2]);
  ExpectSameResponse((*batch)[0], (*batch)[3]);
  ExpectSameResponse((*batch)[0], (*batch)[5]);
  ExpectSameResponse((*batch)[1], (*batch)[4]);
  EXPECT_EQ((*batch)[2].served_from_cache, (*batch)[0].served_from_cache);

  // Slot results match what a lone Execute returns.
  auto solo = system.Execute(a);
  ASSERT_TRUE(solo.ok());
  ExpectSameResponse(*solo, (*batch)[0]);
}

}  // namespace
}  // namespace agoraeo::earthqube
