/// Quickstart: the full AgoraEO/EarthQube pipeline in one file.
///
///   1. Synthesise a BigEarthNet-like archive (metadata + labels + geo).
///   2. Extract "deep" feature vectors for every patch.
///   3. Train MiLaN (triplet + bit-balance + quantization losses).
///   4. Build the EarthQube back end: metadata collections with indexes
///      plus the CBIR linear-scan index over 128-bit binary codes.
///   5. Run a label query, a geospatial query, and a similarity search.
///
/// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "common/logging.h"
#include "earthqube/earthqube.h"
#include "milan/trainer.h"

using namespace agoraeo;

int main() {
  SetLogLevel(LogLevel::kInfo);

  // --- 1. Archive ---------------------------------------------------------
  std::printf("== 1. synthesising a BigEarthNet-like archive\n");
  bigearthnet::ArchiveConfig aconfig;
  aconfig.num_patches = 5000;
  aconfig.seed = 42;
  bigearthnet::ArchiveGenerator generator(aconfig);
  auto archive_or = generator.Generate();
  if (!archive_or.ok()) {
    std::fprintf(stderr, "archive: %s\n", archive_or.status().ToString().c_str());
    return 1;
  }
  const bigearthnet::Archive& archive = *archive_or;
  std::printf("   %zu patches across %zu scenes in 10 countries\n",
              archive.patches.size(), archive.scene_centers.size());

  // --- 2. Features ---------------------------------------------------------
  std::printf("== 2. extracting %zu-d feature vectors\n",
              bigearthnet::kFeatureDim);
  bigearthnet::FeatureExtractor extractor;
  const Tensor features = extractor.ExtractArchive(archive, generator, 8);

  // --- 3. MiLaN ------------------------------------------------------------
  std::printf("== 3. training MiLaN (128-bit deep hashing)\n");
  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 256;
  mconfig.hidden2 = 128;
  mconfig.hash_bits = 128;
  mconfig.dropout = 0.0f;
  auto model = std::make_unique<milan::MilanModel>(mconfig);

  std::vector<bigearthnet::LabelSet> labels;
  for (const auto& p : archive.patches) labels.push_back(p.labels);
  milan::TripletSampler sampler(labels);
  milan::TrainConfig tconfig;
  tconfig.epochs = 12;
  tconfig.batches_per_epoch = 40;
  tconfig.batch_size = 32;
  milan::Trainer trainer(model.get(), &features, &sampler, tconfig);
  auto train_result = trainer.Train();
  if (!train_result.ok()) {
    std::fprintf(stderr, "training: %s\n",
                 train_result.status().ToString().c_str());
    return 1;
  }
  std::printf("   loss %.4f -> %.4f over %zu epochs\n",
              train_result->epochs.front().total,
              train_result->epochs.back().total, train_result->epochs.size());

  // --- 4. EarthQube ---------------------------------------------------------
  std::printf("== 4. building the EarthQube back end\n");
  earthqube::EarthQube system;
  if (auto s = system.IngestArchive(archive); !s.ok()) {
    std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
    return 1;
  }
  auto cbir =
      std::make_unique<earthqube::CbirService>(std::move(model), &extractor);
  std::vector<std::string> names;
  for (const auto& p : archive.patches) names.push_back(p.name);
  if (auto s = cbir->AddImages(names, features); !s.ok()) {
    std::fprintf(stderr, "cbir index: %s\n", s.ToString().c_str());
    return 1;
  }
  system.AttachCbir(std::move(cbir));
  std::printf("   metadata indexed (name PK, labels multikey, geohash), "
              "%zu codes in the CBIR index\n",
              system.cbir()->num_indexed());

  // --- 5a. Label query -------------------------------------------------------
  std::printf("== 5a. label query: images with coniferous forest\n");
  earthqube::QueryRequest label_query;
  label_query.panel.emplace().label_filter = earthqube::LabelFilter::Some(
      bigearthnet::LabelSet({*bigearthnet::LabelIdFromName("Coniferous forest")}));
  label_query.page_size = 0;  // the whole result panel in one response
  auto label_response = system.Execute(label_query);
  if (!label_response.ok()) return 1;
  std::printf("   %zu matches (plan: %s)\n", label_response->panel.total(),
              label_response->query_stats.plan.c_str());

  // --- 5b. Geo query -----------------------------------------------------------
  std::printf("== 5b. geospatial query: a rectangle over Switzerland\n");
  earthqube::QueryRequest geo_query;
  geo_query.panel.emplace().geo =
      earthqube::GeoQuery::Rect({{46.0, 6.5}, {47.5, 10.0}});
  geo_query.page_size = 0;
  auto geo_response = system.Execute(geo_query);
  if (!geo_response.ok()) return 1;
  std::printf("   %zu matches (plan: %s)\n", geo_response->panel.total(),
              geo_response->query_stats.plan.c_str());

  // --- 5c. CBIR ---------------------------------------------------------------
  const std::string& query_image = archive.patches[7].name;
  std::printf("== 5c. similarity search for %s\n", query_image.c_str());
  std::printf("   query labels: %s\n",
              archive.patches[7].labels.ToString().c_str());
  earthqube::QueryRequest similar_query;
  similar_query.similarity = earthqube::SimilaritySpec::NameKnn(query_image, 5);
  similar_query.page_size = 0;
  auto similar = system.Execute(similar_query);
  if (!similar.ok()) return 1;
  for (const auto& entry : similar->panel.entries()) {
    std::printf("   -> %-42s [%s]\n", entry.name.c_str(),
                entry.labels.ToString().c_str());
  }
  std::printf("\nlabel statistics of the retrieval:\n%s",
              similar->statistics.RenderAscii(30).c_str());
  std::printf("\nquickstart complete.\n");
  return 0;
}
