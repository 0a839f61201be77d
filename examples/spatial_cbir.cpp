/// Demo scenario 2 (paper §4, "Spatial Exploration and
/// Query-by-Existing-Example"):
///
///   "Visitors can submit a geospatial query covering the southwestern
///    tip of Portugal.  Then, they can visualize the images in the
///    query area using the render functionality.  Finally, they can
///    select an image and perform content-based image retrieval to
///    display similar images in the 10 countries."
#include <cstdio>
#include <memory>
#include <set>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "earthqube/earthqube.h"
#include "milan/trainer.h"

using namespace agoraeo;

int main() {
  // --- Build the system (archive + MiLaN + CBIR). --------------------------
  bigearthnet::ArchiveConfig aconfig;
  aconfig.num_patches = 8000;
  aconfig.seed = 2;
  bigearthnet::ArchiveGenerator generator(aconfig);
  auto archive = generator.Generate();
  if (!archive.ok()) return 1;

  bigearthnet::FeatureExtractor extractor;
  const Tensor features = extractor.ExtractArchive(*archive, generator, 8);

  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 256;
  mconfig.hidden2 = 128;
  mconfig.hash_bits = 64;
  mconfig.dropout = 0.0f;
  auto model = std::make_unique<milan::MilanModel>(mconfig);
  std::vector<bigearthnet::LabelSet> labels;
  for (const auto& p : archive->patches) labels.push_back(p.labels);
  milan::TripletSampler sampler(labels);
  milan::TrainConfig tconfig;
  tconfig.epochs = 6;
  tconfig.batches_per_epoch = 30;
  tconfig.batch_size = 24;
  milan::Trainer trainer(model.get(), &features, &sampler, tconfig);
  if (!trainer.Train().ok()) return 1;

  earthqube::EarthQube system;
  if (!system.IngestArchive(*archive).ok()) return 1;
  auto cbir =
      std::make_unique<earthqube::CbirService>(std::move(model), &extractor);
  std::vector<std::string> names;
  for (const auto& p : archive->patches) names.push_back(p.name);
  if (!cbir->AddImages(names, features).ok()) return 1;
  system.AttachCbir(std::move(cbir));

  // --- 1. Geospatial query: SW tip of Portugal. -----------------------------
  std::printf("step 1: rectangle over the southwestern tip of Portugal\n");
  earthqube::QueryRequest geo_query;
  geo_query.panel.emplace().geo =
      earthqube::GeoQuery::Rect({{37.0, -9.5}, {38.5, -7.8}});
  geo_query.page_size = 0;  // the whole result panel in one response
  auto geo_response = system.Execute(geo_query);
  if (!geo_response.ok() || geo_response->panel.total() == 0) {
    std::fprintf(stderr, "no images in the query area\n");
    return 1;
  }
  std::printf("  %zu images in the area (plan %s)\n",
              geo_response->panel.total(),
              geo_response->query_stats.plan.c_str());

  // --- 2. Render the first results on the map. ------------------------------
  std::printf("step 2: rendering result images (RGB previews)\n");
  const auto page = geo_response->panel.Page(0);
  for (size_t i = 0; i < std::min<size_t>(3, page.size()); ++i) {
    auto meta = system.GetMetadata(page[i]->name);
    if (!meta.ok()) return 1;
    bigearthnet::Patch patch = generator.SynthesizePatch(*meta);
    if (!system.StoreRenderedImage(patch).ok()) return 1;
    auto rgb = system.GetRenderedImage(page[i]->name);
    std::printf("  rendered %-44s (%zu RGB bytes)\n", page[i]->name.c_str(),
                rgb.ok() ? rgb->size() : 0);
  }

  // Marker clustering at two zoom levels (the map view behaviour).
  for (int zoom : {4, 10}) {
    auto clusters =
        earthqube::ClusterMarkers(geo_response->panel.entries(), zoom);
    std::printf("  map view at zoom %2d: %zu marker cluster groups\n", zoom,
                clusters.size());
  }

  // --- 3. Query-by-existing-example. ----------------------------------------
  const std::string& selected = page[0]->name;
  auto meta = system.GetMetadata(selected);
  if (!meta.ok()) return 1;
  std::printf("\nstep 3: CBIR from %s\n  labels: %s\n", selected.c_str(),
              meta->labels.ToString().c_str());
  earthqube::QueryRequest similar_query;
  similar_query.similarity = earthqube::SimilaritySpec::NameKnn(selected, 15);
  similar_query.page_size = 0;
  auto similar = system.Execute(similar_query);
  if (!similar.ok()) return 1;

  std::set<std::string> countries;
  size_t shared = 0;
  for (const auto& entry : similar->panel.entries()) {
    if (entry.labels.ContainsAny(meta->labels)) ++shared;
    countries.insert(entry.country);
    std::printf("  -> %-44s %-11s [%s]\n", entry.name.c_str(),
                entry.country.c_str(), entry.labels.ToString().c_str());
  }
  std::printf("\n%zu/%zu retrieved images share a label with the query; "
              "results span %zu countries\n",
              shared, similar->panel.total(), countries.size());
  return 0;
}
