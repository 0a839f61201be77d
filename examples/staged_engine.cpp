/// The staged execution engine end to end: a burst of concurrent
/// identical queries collapses onto one execution (singleflight), a
/// burst of distinct queries fuses into one micro-batched index pass,
/// and a bad archive name is served from the negative cache on repeat.
/// Engine counters are printed at each step; a served system exposes
/// the same counters as the agoraeo_engine_* samples of GET /metrics.
/// Exits 1 when the identical burst does not coalesce.
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "earthqube/earthqube.h"
#include "earthqube/exec/execution_engine.h"
#include "milan/trainer.h"

using namespace agoraeo;

namespace {

void PrintStats(const earthqube::EarthQube& system, const char* moment) {
  const earthqube::ExecStats s = system.exec_engine().Stats();
  std::printf(
      "[%s]\n  submitted %llu | coalesced %llu | flights %llu | direct %llu "
      "| batches %llu (%llu flights) | cache hits %llu | negative hits %llu\n",
      moment, static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.coalesced),
      static_cast<unsigned long long>(s.flights),
      static_cast<unsigned long long>(s.direct),
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.batched_flights),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.negative_hits));
}

earthqube::QueryRequest RadiusRequest(const std::string& name) {
  earthqube::QueryRequest request;
  request.similarity = earthqube::SimilaritySpec::NameRadius(name, 8, 25);
  request.projection = earthqube::Projection::kHitsOnly;
  request.page_size = 0;
  return request;
}

}  // namespace

int main() {
  // --- Build the system (archive + MiLaN + CBIR). --------------------------
  bigearthnet::ArchiveConfig aconfig;
  aconfig.num_patches = 4000;
  aconfig.seed = 11;
  bigearthnet::ArchiveGenerator generator(aconfig);
  auto archive = generator.Generate();
  if (!archive.ok()) return 1;

  bigearthnet::FeatureExtractor extractor;
  const Tensor features = extractor.ExtractArchive(*archive, generator, 2);

  earthqube::EarthQubeConfig config;
  // Leave the response cache off so the engine itself does the work
  // sharing — the interesting case for this demo.
  config.cache.enable_response_cache = false;
  earthqube::EarthQube system(config);
  if (!system.IngestArchive(*archive).ok()) return 1;

  milan::MilanConfig mconfig;
  mconfig.feature_dim = bigearthnet::kFeatureDim;
  mconfig.hidden1 = 64;
  mconfig.hidden2 = 32;
  mconfig.hash_bits = 64;
  mconfig.dropout = 0.0f;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::make_unique<milan::MilanModel>(mconfig), &extractor);
  std::vector<std::string> names;
  for (const auto& p : archive->patches) names.push_back(p.name);
  if (!cbir->AddImages(names, features).ok()) return 1;
  system.AttachCbir(std::move(cbir));
  std::printf("system ready: %zu patches indexed\n\n", names.size());

  // --- 1. Singleflight: 16 concurrent identical queries. -------------------
  {
    // The workers are paused until all 16 are admitted, so the burst
    // overlaps however the client threads happen to start.
    constexpr uint64_t kClients = 16;
    const earthqube::QueryRequest hot = RadiusRequest(names[7]);
    earthqube::ExecutionEngine& engine = system.exec_engine();
    engine.Pause();
    std::vector<std::thread> clients;
    for (uint64_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        auto response = system.Execute(hot);
        if (!response.ok()) std::exit(1);
      });
    }
    while (engine.Stats().submitted < kClients) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    engine.Resume();
    for (auto& t : clients) t.join();
    PrintStats(system, "after 16 concurrent identical queries");
    if (engine.Stats().coalesced == 0) {
      std::printf("singleflight did not coalesce the identical burst\n");
      return 1;
    }
  }

  // --- 2. Micro-batching: a deterministic burst of distinct queries. -------
  {
    std::vector<earthqube::QueryRequest> burst;
    for (int i = 0; i < 12; ++i) burst.push_back(RadiusRequest(names[i * 101]));
    // One admission gate for the batch: the whole burst is admitted
    // before any of it executes.
    if (!system.ExecuteBatch(burst).ok()) return 1;
    PrintStats(system, "after a 12-query distinct burst (one batched pass)");
  }

  // --- 3. Negative cache: repeated bad lookups stay cheap. -----------------
  {
    const earthqube::QueryRequest bad = RadiusRequest("no_such_patch_name");
    for (int i = 0; i < 3; ++i) {
      auto response = system.Execute(bad);
      if (response.ok() || !response.status().IsNotFound()) return 1;
    }
    PrintStats(system, "after 3 lookups of a bad archive name");
    std::printf("  (1 real resolution, 2 negative-cache replays)\n");
  }

  // --- 4. Async completion: the netsvc pipeline's entry point. -------------
  {
    std::promise<void> done;
    system.ExecuteAsync(RadiusRequest(names[3]),
                        [&](const StatusOr<earthqube::QueryResponse>& r) {
                          std::printf("\nasync completion: %zu hits, plan %s\n",
                                      r.ok() ? r->hits.size() : 0,
                                      r.ok() ? r->plan.description.c_str()
                                             : r.status().ToString().c_str());
                          done.set_value();
                        });
    done.get_future().wait();
  }
  return 0;
}
