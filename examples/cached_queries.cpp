/// The query-cache subsystem end to end: a hot CBIR request is executed
/// repeatedly (first execution populates the response cache, repeats are
/// served from it), a hybrid pre-filter request exercises the
/// planner-level allowlist cache, and a late archive ingest bumps the
/// epoch — the very next queries see the new data instead of stale
/// cached results.  Cache counters are printed at each step; a served
/// system exposes the same counters as the agoraeo_cache_* samples of
/// GET /metrics.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "earthqube/earthqube.h"
#include "milan/trainer.h"

using namespace agoraeo;

namespace {

void PrintStats(const earthqube::EarthQube& system, const char* moment) {
  const cache::CacheStats responses = system.query_cache().ResponseStats();
  const cache::CacheStats allowlists = system.query_cache().AllowlistStats();
  std::printf(
      "[%s]\n  epoch %llu | response cache: %llu hits / %llu misses / "
      "%llu stale drops, %llu entries (%llu bytes)\n"
      "             | allowlist cache: %llu hits / %llu misses / "
      "%llu stale drops, %llu entries\n",
      moment, static_cast<unsigned long long>(system.query_cache().epoch()),
      static_cast<unsigned long long>(responses.hits),
      static_cast<unsigned long long>(responses.misses),
      static_cast<unsigned long long>(responses.stale_drops),
      static_cast<unsigned long long>(responses.entries),
      static_cast<unsigned long long>(responses.bytes),
      static_cast<unsigned long long>(allowlists.hits),
      static_cast<unsigned long long>(allowlists.misses),
      static_cast<unsigned long long>(allowlists.stale_drops),
      static_cast<unsigned long long>(allowlists.entries));
}

double MillisFor(const earthqube::EarthQube& system,
                 const earthqube::QueryRequest& request, bool* from_cache) {
  const auto start = std::chrono::steady_clock::now();
  auto response = system.Execute(request);
  const auto end = std::chrono::steady_clock::now();
  if (!response.ok()) {
    std::fprintf(stderr, "execute failed: %s\n",
                 response.status().ToString().c_str());
    std::exit(1);
  }
  *from_cache = response->served_from_cache;
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int main() {
  // --- Build the system (archive + MiLaN + CBIR). --------------------------
  bigearthnet::ArchiveConfig aconfig;
  aconfig.num_patches = 6000;
  aconfig.seed = 11;
  bigearthnet::ArchiveGenerator generator(aconfig);
  auto archive = generator.Generate();
  if (!archive.ok()) return 1;

  bigearthnet::FeatureExtractor extractor;
  const Tensor features = extractor.ExtractArchive(*archive, generator, 8);

  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 128;
  mconfig.hidden2 = 64;
  mconfig.hash_bits = 64;
  mconfig.dropout = 0.0f;
  auto model = std::make_unique<milan::MilanModel>(mconfig);
  std::vector<bigearthnet::LabelSet> labels;
  for (const auto& p : archive->patches) labels.push_back(p.labels);
  milan::TripletSampler sampler(labels);
  milan::TrainConfig tconfig;
  tconfig.epochs = 2;
  tconfig.batches_per_epoch = 20;
  tconfig.batch_size = 24;
  milan::Trainer trainer(model.get(), &features, &sampler, tconfig);
  if (!trainer.Train().ok()) return 1;

  // Cache knobs live on the config; defaults enable both caches.
  earthqube::EarthQubeConfig config;
  config.cache.response_capacity_bytes = 32u << 20;
  earthqube::EarthQube system(config);
  if (!system.IngestArchive(*archive).ok()) return 1;
  auto cbir =
      std::make_unique<earthqube::CbirService>(std::move(model), &extractor);
  std::vector<std::string> names;
  for (const auto& p : archive->patches) names.push_back(p.name);
  if (!cbir->AddImages(names, features).ok()) return 1;
  system.AttachCbir(std::move(cbir));

  // --- A hot CBIR request, repeated. ---------------------------------------
  earthqube::QueryRequest hot;
  hot.similarity =
      earthqube::SimilaritySpec::NameKnn(archive->patches[42].name, 20);

  bool from_cache = false;
  const double cold_ms = MillisFor(system, hot, &from_cache);
  std::printf("1st execution: %.3f ms (served_from_cache=%s)\n", cold_ms,
              from_cache ? "true" : "false");
  const double warm_ms = MillisFor(system, hot, &from_cache);
  std::printf("2nd execution: %.3f ms (served_from_cache=%s, %.0fx faster)\n",
              warm_ms, from_cache ? "true" : "false", cold_ms / warm_ms);
  PrintStats(system, "after hot CBIR repeats");

  // --- A hybrid pre-filter request: the allowlist cache kicks in. ----------
  earthqube::EarthQubeQuery panel;
  panel.label_filter = earthqube::LabelFilter::SomeLevel2(31);  // forests
  earthqube::QueryRequest hybrid;
  hybrid.panel = panel;
  hybrid.similarity =
      earthqube::SimilaritySpec::NameKnn(archive->patches[7].name, 10);
  hybrid.planner = earthqube::PlannerMode::kForcePreFilter;

  (void)MillisFor(system, hybrid, &from_cache);
  // A different similarity subject over the SAME panel filter: the
  // response cache misses, but the allowlist cache replays the filter.
  earthqube::QueryRequest hybrid2 = hybrid;
  hybrid2.similarity =
      earthqube::SimilaritySpec::NameKnn(archive->patches[99].name, 10);
  (void)MillisFor(system, hybrid2, &from_cache);
  PrintStats(system, "after hybrid pre-filter pair");

  // --- New data arrives: the epoch bump invalidates everything. ------------
  bigearthnet::ArchiveConfig bconfig;
  bconfig.num_patches = 500;
  bconfig.seed = 12;  // disjoint names from the first archive's seed
  bigearthnet::ArchiveGenerator late_generator(bconfig);
  auto late = late_generator.Generate();
  if (!late.ok()) return 1;
  // Guarantee disjoint patch names from the first archive (the metadata
  // collection's name index is unique).
  for (auto& patch : late->patches) patch.name = "LATE_" + patch.name;
  if (!system.IngestArchive(*late).ok()) return 1;

  const double post_ingest_ms = MillisFor(system, hot, &from_cache);
  std::printf(
      "after ingest:  %.3f ms (served_from_cache=%s — the bumped epoch "
      "forced a fresh execution)\n",
      post_ingest_ms, from_cache ? "true" : "false");
  PrintStats(system, "after ingest invalidation");
  return 0;
}
