/// Demo scenario 3 (paper §4, "Query-by-New-Example"):
///
///   "Sentinel satellites constantly collect new images of earth's
///    surface.  Unfortunately, these newly collected images do not have
///    any land cover class labels in the metadata.  Therefore, visitors
///    can upload such images to EarthQube to search for other images
///    with similar semantic content.  Based on the semantic search
///    results, one could design an automatic labeling process."
///
/// The example uploads freshly "acquired" (synthesised, never-indexed)
/// patches, retrieves semantically similar archive images via on-the-fly
/// MiLaN hashing, and then runs the automatic-labeling idea: predict the
/// upload's labels by majority vote over the retrieval, and score the
/// predictions against the (hidden) ground truth.
#include <cstdio>
#include <memory>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "earthqube/earthqube.h"
#include "milan/trainer.h"

using namespace agoraeo;

int main() {
  // --- Build the system. ----------------------------------------------------
  bigearthnet::ArchiveConfig aconfig;
  aconfig.num_patches = 8000;
  aconfig.seed = 3;
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
  std::printf("EarthQube ready: %zu archive images indexed\n\n",
              system.num_images());

  // --- New acquisitions: a different generator seed = unseen images. --------
  bigearthnet::ArchiveConfig fresh_config;
  fresh_config.num_patches = 5;
  fresh_config.seed = 9001;
  bigearthnet::ArchiveGenerator fresh_gen(fresh_config);
  auto fresh = fresh_gen.Generate();
  if (!fresh.ok()) return 1;

  size_t exact_hits = 0;
  for (size_t u = 0; u < fresh->patches.size(); ++u) {
    const auto& truth = fresh->patches[u];  // hidden from the system
    bigearthnet::Patch upload = fresh_gen.SynthesizePatch(truth);
    upload.meta.name = "upload_" + std::to_string(u);

    earthqube::QueryRequest request;
    request.similarity =
        earthqube::SimilaritySpec::PatchRadius(upload, /*radius=*/14, 25);
    request.page_size = 0;  // every retrieved image in one response
    auto response = system.Execute(request);
    if (!response.ok()) {
      std::fprintf(stderr, "upload %zu failed: %s\n", u,
                   response.status().ToString().c_str());
      return 1;
    }

    // Automatic labeling: every label carried by >= 50% of the retrieved
    // images becomes a predicted label.
    bigearthnet::LabelSet predicted;
    for (const auto& bar : response->statistics.bars()) {
      if (2 * bar.count >= response->panel.total()) predicted.Add(bar.label);
    }
    const bool hit = predicted.ContainsAny(truth.labels);
    exact_hits += hit;

    std::printf("upload %zu: %zu similar images retrieved\n", u,
                response->panel.total());
    std::printf("  true labels:      %s\n", truth.labels.ToString().c_str());
    std::printf("  predicted labels: %s  [%s]\n",
                predicted.empty() ? "(none)" : predicted.ToString().c_str(),
                hit ? "HIT" : "miss");
  }
  std::printf("\nautomatic labeling: %zu/%zu uploads received at least one "
              "correct label\n",
              exact_hits, fresh->patches.size());

  // Visitors can leave feedback about the session (feedback collection).
  if (!system.SubmitFeedback("query-by-new-example works on unlabeled "
                             "acquisitions!").ok()) {
    return 1;
  }
  std::printf("feedback stored (%zu entries total)\n",
              system.NumFeedbackEntries());
  return 0;
}
