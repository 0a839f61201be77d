#include <gtest/gtest.h>

#include <memory>

#include "agora/asset.h"
#include "agora/catalog.h"
#include "agora/earthqube_ops.h"
#include "agora/pipeline.h"
#include "bigearthnet/archive_generator.h"

namespace agoraeo::agora {
namespace {

using docstore::Document;
using docstore::Value;

// ---------------------------------------------------------------------------
// Asset model
// ---------------------------------------------------------------------------

TEST(AssetKindTest, RoundTripStrings) {
  for (AssetKind kind : {AssetKind::kDataset, AssetKind::kAlgorithm,
                         AssetKind::kModel, AssetKind::kTool}) {
    auto back = AssetKindFromString(AssetKindToString(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(AssetKindFromString("spacecraft").ok());
}

TEST(AssetTest, DocumentRoundTrip) {
  Asset asset;
  asset.id = "ast_7";
  asset.kind = AssetKind::kModel;
  asset.name = "milan-bigearthnet";
  asset.version = 3;
  asset.owner = "tu-berlin";
  asset.description = "trained checkpoint";
  asset.tags = {"deep-hashing", "checkpoint"};
  asset.registered_on = CivilDate(2022, 9, 5);
  asset.metadata.Set("hash_bits", Value(128));

  auto back = DocumentToAsset(AssetToDocument(asset));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id, "ast_7");
  EXPECT_EQ(back->kind, AssetKind::kModel);
  EXPECT_EQ(back->name, asset.name);
  EXPECT_EQ(back->version, 3);
  EXPECT_EQ(back->tags, asset.tags);
  EXPECT_EQ(back->metadata.Get("hash_bits")->as_int64(), 128);
}

TEST(AssetTest, MalformedDocumentRejected) {
  EXPECT_TRUE(DocumentToAsset(Document()).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

TEST(CatalogTest, OfferAssignsIdsAndVersions) {
  AssetCatalog catalog;
  auto v1 = catalog.Offer(AssetKind::kDataset, "bigearthnet", "tu-berlin",
                          "v1", {"eo"});
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->version, 1);
  auto v2 = catalog.Offer(AssetKind::kDataset, "bigearthnet", "tu-berlin",
                          "v2", {"eo"});
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->version, 2);
  EXPECT_NE(v1->id, v2->id);
  EXPECT_EQ(catalog.size(), 2u);
}

TEST(CatalogTest, EmptyNameRejected) {
  AssetCatalog catalog;
  EXPECT_TRUE(catalog.Offer(AssetKind::kTool, "", "x", "y", {})
                  .status()
                  .IsInvalidArgument());
}

TEST(CatalogTest, LookupLatestAndSpecific) {
  AssetCatalog catalog;
  ASSERT_TRUE(catalog.Offer(AssetKind::kModel, "m", "o", "first", {}).ok());
  ASSERT_TRUE(catalog.Offer(AssetKind::kModel, "m", "o", "second", {}).ok());
  auto latest = catalog.Lookup("m");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->description, "second");
  auto first = catalog.Lookup("m", 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->description, "first");
  EXPECT_TRUE(catalog.Lookup("m", 9).status().IsNotFound());
  EXPECT_TRUE(catalog.Lookup("ghost").status().IsNotFound());
  EXPECT_EQ(catalog.Versions("m").size(), 2u);
}

TEST(CatalogTest, DiscoveryByKindTagOwnerText) {
  AssetCatalog catalog;
  ASSERT_TRUE(catalog.Offer(AssetKind::kDataset, "bigearthnet", "tu-berlin",
                            "Sentinel archive", {"eo", "sentinel"})
                  .ok());
  ASSERT_TRUE(catalog.Offer(AssetKind::kAlgorithm, "milan", "tu-berlin",
                            "deep hashing", {"eo", "hashing"})
                  .ok());
  ASSERT_TRUE(catalog.Offer(AssetKind::kTool, "earthqube", "dfki",
                            "search engine", {"eo", "browser"})
                  .ok());

  DiscoveryQuery by_kind;
  by_kind.kinds = {AssetKind::kAlgorithm};
  auto algorithms = catalog.Discover(by_kind);
  ASSERT_EQ(algorithms.size(), 1u);
  EXPECT_EQ(algorithms[0].name, "milan");

  DiscoveryQuery by_tag;
  by_tag.any_tags = {"hashing", "browser"};
  EXPECT_EQ(catalog.Discover(by_tag).size(), 2u);

  DiscoveryQuery by_all_tags;
  by_all_tags.all_tags = {"eo", "sentinel"};
  ASSERT_EQ(catalog.Discover(by_all_tags).size(), 1u);
  EXPECT_EQ(catalog.Discover(by_all_tags)[0].name, "bigearthnet");

  DiscoveryQuery by_owner;
  by_owner.owner = "dfki";
  ASSERT_EQ(catalog.Discover(by_owner).size(), 1u);
  EXPECT_EQ(catalog.Discover(by_owner)[0].name, "earthqube");

  DiscoveryQuery by_text;
  by_text.text = "SEARCH";
  ASSERT_EQ(catalog.Discover(by_text).size(), 1u);
  EXPECT_EQ(catalog.Discover(by_text)[0].name, "earthqube");

  DiscoveryQuery everything;
  EXPECT_EQ(catalog.Discover(everything).size(), 3u);
}

TEST(CatalogTest, LatestOnlyCollapsesVersions) {
  AssetCatalog catalog;
  ASSERT_TRUE(catalog.Offer(AssetKind::kModel, "m", "o", "first", {"x"}).ok());
  ASSERT_TRUE(catalog.Offer(AssetKind::kModel, "m", "o", "second", {"x"}).ok());
  DiscoveryQuery query;
  query.any_tags = {"x"};
  auto latest = catalog.Discover(query);
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_EQ(latest[0].version, 2);
  query.latest_only = false;
  EXPECT_EQ(catalog.Discover(query).size(), 2u);
}

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

OperatorRegistry ArithmeticRegistry() {
  OperatorRegistry registry;
  EXPECT_TRUE(registry
                  .Register("add",
                            [](const std::any& in,
                               const Document& params) -> StatusOr<std::any> {
                              const int base = std::any_cast<int>(in);
                              const Value* amount = params.Get("amount");
                              return std::any(
                                  base + static_cast<int>(
                                             amount ? amount->as_int64() : 1));
                            },
                            "int -> int")
                  .ok());
  EXPECT_TRUE(registry
                  .Register("double",
                            [](const std::any& in,
                               const Document&) -> StatusOr<std::any> {
                              return std::any(std::any_cast<int>(in) * 2);
                            },
                            "int -> int")
                  .ok());
  EXPECT_TRUE(registry
                  .Register("fail",
                            [](const std::any&,
                               const Document&) -> StatusOr<std::any> {
                              return Status::Internal("boom");
                            })
                  .ok());
  return registry;
}

TEST(RegistryTest, RegisterLookupDuplicates) {
  OperatorRegistry registry = ArithmeticRegistry();
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_TRUE(registry.Lookup("add").ok());
  EXPECT_TRUE(registry.Lookup("ghost").status().IsNotFound());
  EXPECT_TRUE(registry
                  .Register("add",
                            [](const std::any&, const Document&)
                                -> StatusOr<std::any> { return std::any(0); })
                  .IsAlreadyExists());
  EXPECT_EQ(*registry.Signature("add"), "int -> int");
  EXPECT_EQ(registry.OperatorNames().size(), 3u);
}

TEST(PipelineTest, ExecutesStepsInOrder) {
  OperatorRegistry registry = ArithmeticRegistry();
  Document add5;
  add5.Set("amount", Value(5));
  Pipeline pipeline;
  pipeline.Add("add", add5).Add("double").Add("add");
  auto result = pipeline.Execute(registry, std::any(10));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::any_cast<int>(result->output), 31);  // (10+5)*2 + 1
  ASSERT_EQ(result->trace.size(), 3u);
  EXPECT_EQ(result->trace[1].op, "double");
}

TEST(PipelineTest, EmptyPipelineRejected) {
  OperatorRegistry registry = ArithmeticRegistry();
  Pipeline pipeline;
  EXPECT_TRUE(
      pipeline.Execute(registry, std::any(1)).status().IsFailedPrecondition());
}

TEST(PipelineTest, UnknownOperatorFailsValidation) {
  OperatorRegistry registry = ArithmeticRegistry();
  Pipeline pipeline;
  pipeline.Add("ghost");
  EXPECT_TRUE(pipeline.Validate(registry).IsNotFound());
  // Execute validates everything before running anything.
  EXPECT_TRUE(pipeline.Execute(registry, std::any(1)).status().IsNotFound());
}

TEST(PipelineTest, StepErrorIsPrefixed) {
  OperatorRegistry registry = ArithmeticRegistry();
  Pipeline pipeline;
  pipeline.Add("add").Add("fail").Add("double");
  auto result = pipeline.Execute(registry, std::any(1));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("step 'fail'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EarthQube operators
// ---------------------------------------------------------------------------

class EarthQubeOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bigearthnet::ArchiveConfig config;
    config.num_patches = 1500;
    config.seed = 404;
    bigearthnet::ArchiveGenerator generator(config);
    auto archive = generator.Generate();
    ASSERT_TRUE(archive.ok());
    system_ = std::make_unique<earthqube::EarthQube>();
    ASSERT_TRUE(system_->IngestArchive(*archive).ok());
    ASSERT_TRUE(RegisterEarthQubeOperators(system_.get(), &registry_).ok());
  }

  std::unique_ptr<earthqube::EarthQube> system_;
  OperatorRegistry registry_;
};

TEST_F(EarthQubeOpsTest, SearchOperatorByLabels) {
  Document params;
  params.Set("labels", docstore::MakeStringArray({"Coniferous forest"}));
  Pipeline pipeline;
  pipeline.Add("earthqube.search", params);
  auto result = pipeline.Execute(registry_, std::any());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& response =
      std::any_cast<const earthqube::QueryResponse&>(result->output);
  EXPECT_GT(response.panel.total(), 0u);
}

TEST_F(EarthQubeOpsTest, SearchThenNamesPipeline) {
  Document params;
  params.Set("country", Value("Portugal"));
  params.Set("limit", Value(20));
  Pipeline pipeline;
  pipeline.Add("earthqube.search", params).Add("earthqube.names");
  auto result = pipeline.Execute(registry_, std::any());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& names =
      std::any_cast<const std::vector<std::string>&>(result->output);
  EXPECT_LE(names.size(), 20u);
  EXPECT_GT(names.size(), 0u);
}

TEST_F(EarthQubeOpsTest, StatisticsOperatorRendersChart) {
  Document params;
  params.Set("labels", docstore::MakeStringArray({"Pastures"}));
  Pipeline pipeline;
  pipeline.Add("earthqube.search", params).Add("earthqube.statistics");
  auto result = pipeline.Execute(registry_, std::any());
  ASSERT_TRUE(result.ok());
  const auto& chart = std::any_cast<const std::string&>(result->output);
  EXPECT_NE(chart.find("Pastures"), std::string::npos);
}

TEST_F(EarthQubeOpsTest, CbirOperatorRequiresQueryResponse) {
  Pipeline pipeline;
  pipeline.Add("earthqube.cbir");
  auto result = pipeline.Execute(registry_, std::any(42));
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(EarthQubeOpsTest, UnknownLabelIsError) {
  Document params;
  params.Set("labels", docstore::MakeStringArray({"Volcano"}));
  Pipeline pipeline;
  pipeline.Add("earthqube.search", params);
  EXPECT_FALSE(pipeline.Execute(registry_, std::any()).ok());
}

TEST(StandardAssetsTest, OffersFourAssets) {
  AssetCatalog catalog;
  ASSERT_TRUE(OfferStandardAssets(&catalog, 590326, 128).ok());
  EXPECT_EQ(catalog.size(), 4u);
  auto dataset = catalog.Lookup("bigearthnet");
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->metadata.Get("patches")->as_int64(), 590326);
  auto model = catalog.Lookup("milan-bigearthnet");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->metadata.Get("hash_bits")->as_int64(), 128);
  DiscoveryQuery cbir;
  cbir.any_tags = {"cbir"};
  EXPECT_EQ(catalog.Discover(cbir).size(), 2u);  // milan + earthqube
}

}  // namespace
}  // namespace agoraeo::agora
