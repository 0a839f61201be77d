/// Three-tier EarthQube (paper Section 3.2): this example stands up the
/// complete architecture in one process —
///
///   data tier      : the embedded docstore with the four collections
///   back-end tier  : the HTTP/JSON server wrapping the EarthQube facade
///   user interface : an HTTP client playing the browser's role
///
/// — and drives the same interactions the demo's UI would issue: a
/// health probe, a label search, a date-range search, a content-based
/// similarity search, patch metadata fetches and feedback submission,
/// all as real JSON over real loopback TCP.  Every query goes through
/// the one query route, POST /api/v2/query.  The example exits 1 when
/// any call fails or answers with an unexpected status.
///
/// Build & run:  ./build/examples/three_tier_server
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "common/logging.h"
#include "earthqube/earthqube.h"
#include "json/json.h"
#include "milan/trainer.h"
#include "netsvc/client.h"
#include "netsvc/earthqube_service.h"
#include "netsvc/server.h"

using namespace agoraeo;

namespace {

/// The body of a call that answered `expected`; exits 1 otherwise, so a
/// failed call or a dead route fails the run.
std::string BodyOf(const StatusOr<netsvc::HttpResponse>& response,
                   const char* what, int expected = 200) {
  if (!response.ok()) {
    std::printf("   %s failed: %s\n", what,
                response.status().message().c_str());
    std::exit(1);
  }
  if (response->status_code != expected) {
    std::printf("   %s answered HTTP %d (want %d): %s\n", what,
                response->status_code, expected, response->body.c_str());
    std::exit(1);
  }
  return response->body;
}

/// Pretty-prints the interesting parts of a /api/v2/query response.
void PrintResults(const char* title, const std::string& body) {
  auto parsed = json::ParseObject(body);
  if (!parsed.ok()) {
    std::printf("   (unparseable response: %s)\n", body.c_str());
    std::exit(1);
  }
  std::printf("   %s: total=%lld plan=%s\n", title,
              static_cast<long long>(parsed->Get("total")->as_int64()),
              parsed->GetPath("plan.description")->as_string().c_str());
  const auto& results = parsed->Get("results")->as_array();
  for (size_t i = 0; i < results.size() && i < 3; ++i) {
    const auto& r = results[i].as_document();
    std::string labels;
    for (const auto& l : r.Get("labels")->as_array()) {
      if (!labels.empty()) labels += ", ";
      labels += l.as_string();
    }
    std::printf("     %zu. %s  [%s]\n", i + 1,
                r.Get("name")->as_string().c_str(), labels.c_str());
  }
  const auto& bars = parsed->Get("label_statistics")->as_array();
  if (!bars.empty()) {
    const auto& top = bars[0].as_document();
    std::printf("     dominant land cover: %s (%lld occurrences)\n",
                top.Get("label")->as_string().c_str(),
                static_cast<long long>(top.Get("count")->as_int64()));
  }
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kInfo);

  // --- data + back-end tiers ------------------------------------------------
  std::printf("== building the data tier (synthetic BigEarthNet archive)\n");
  bigearthnet::ArchiveConfig aconfig;
  aconfig.num_patches = 4000;
  aconfig.seed = 2022;
  bigearthnet::ArchiveGenerator generator(aconfig);
  auto archive = generator.Generate();
  if (!archive.ok()) return 1;

  earthqube::EarthQube system;
  if (!system.IngestArchive(*archive).ok()) return 1;

  std::printf("== training MiLaN for the CBIR endpoint\n");
  bigearthnet::FeatureExtractor extractor;
  Tensor features = extractor.ExtractArchive(*archive, generator, 4);
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
  tconfig.epochs = 6;
  tconfig.batches_per_epoch = 25;
  milan::Trainer trainer(model.get(), &features, &sampler, tconfig);
  if (!trainer.Train().ok()) return 1;
  auto cbir = std::make_unique<earthqube::CbirService>(
      std::move(model), new bigearthnet::FeatureExtractor());
  std::vector<std::string> names;
  for (const auto& p : archive->patches) names.push_back(p.name);
  if (!cbir->AddImages(names, features).ok()) return 1;
  system.AttachCbir(std::move(cbir));

  std::printf("== starting the back-end HTTP tier\n");
  netsvc::HttpServer server(4);
  netsvc::EarthQubeService service(&system);
  service.RegisterRoutes(&server);
  if (!server.Start(0).ok()) return 1;
  const uint16_t port = server.port();

  // --- UI tier ----------------------------------------------------------------
  netsvc::HttpClient ui;

  std::printf("\n== UI tier: GET /health\n");
  std::printf("   %s\n", BodyOf(ui.Get(port, "/health"), "health").c_str());

  std::printf("\n== UI tier: industrial areas near inland water (scenario 1)\n");
  auto s1 = ui.Post(port, "/api/v2/query",
                    R"({"panel":{"labels":{"operator":"at_least_and_more",)"
                    R"("names":["Industrial or commercial units",)"
                    R"("Water bodies"]},"limit":50}})");
  PrintResults("label search", BodyOf(s1, "label search"));

  std::printf("\n== UI tier: August 2017 acquisitions (date-range index)\n");
  auto s2 = ui.Post(port, "/api/v2/query",
                    R"({"panel":{"date_range":{"begin":"2017-08-01",)"
                    R"("end":"2017-08-31"},"limit":40}})");
  PrintResults("date search", BodyOf(s2, "date search"));

  std::printf("\n== UI tier: similarity search from an archive image\n");
  auto s3 = ui.Post(port, "/api/v2/query",
                    R"({"similarity":{"name":")" + archive->patches[10].name +
                        R"(","k":5}})");
  PrintResults("similar images", BodyOf(s3, "similarity search"));

  std::printf("\n== UI tier: patch metadata + feedback\n");
  auto meta = ui.Get(
      port, "/api/patch/" + netsvc::UrlEncode(archive->patches[10].name));
  std::printf("   metadata: %s\n", BodyOf(meta, "metadata").c_str());
  auto fb = ui.Post(port, "/api/feedback",
                    R"({"text":"found my burnt-forest study area fast"})");
  std::printf("   feedback stored: %s\n",
              BodyOf(fb, "feedback", 201).c_str());
  auto count = ui.Get(port, "/api/feedback/count");
  std::printf("   feedback count: %s\n",
              BodyOf(count, "feedback count").c_str());

  std::printf("\n== shutting down (served %zu requests)\n",
              server.requests_served());
  server.Stop();
  return 0;
}
