/// Demo scenario 1 (paper §4, "Label-based Exploration"):
///
///   "Visitors can search for industrial areas adjacent to inland water
///    bodies using the label filtering functionality to detect possible
///    water pollution by industrial waste in 10 different European
///    countries.  By inspecting the label statistics view, visitors can
///    discover other land cover classes that fit the query description."
///
/// This example runs that session against a synthetic archive: the
/// AtLeast&More operator over {Industrial or commercial units, Water
/// bodies}, per-country breakdown, and the label-statistics view that
/// surfaces co-occurring land-cover classes.
#include <cstdio>
#include <map>

#include "bigearthnet/archive_generator.h"
#include "earthqube/earthqube.h"

using namespace agoraeo;

int main() {
  bigearthnet::ArchiveConfig aconfig;
  aconfig.num_patches = 20000;
  aconfig.seed = 1;
  bigearthnet::ArchiveGenerator generator(aconfig);
  auto archive = generator.Generate();
  if (!archive.ok()) return 1;

  earthqube::EarthQube system;
  if (!system.IngestArchive(*archive).ok()) return 1;
  std::printf("EarthQube loaded: %zu images across 10 countries\n\n",
              system.num_images());

  // The visitor switches the label panel off (full control), selects the
  // two Level-3 classes and the "At least & more" operator.
  const bigearthnet::LabelSet pollution_risk(
      {*bigearthnet::LabelIdFromName("Industrial or commercial units"),
       *bigearthnet::LabelIdFromName("Water bodies")});
  earthqube::QueryRequest request;
  request.panel.emplace().label_filter =
      earthqube::LabelFilter::AtLeastAndMore(pollution_risk);
  request.page_size = 0;  // the whole result panel in one response

  auto response = system.Execute(request);
  if (!response.ok()) {
    std::fprintf(stderr, "search failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }

  std::printf("query: At least & more {Industrial or commercial units, "
              "Water bodies}\n");
  std::printf("matches: %zu images (plan %s, %zu docs examined)\n\n",
              response->panel.total(), response->query_stats.plan.c_str(),
              response->query_stats.docs_examined);

  // Country breakdown — where is the pollution risk?
  std::map<std::string, size_t> by_country;
  for (const auto& entry : response->panel.entries()) {
    ++by_country[entry.country];
  }
  std::printf("per-country breakdown:\n");
  for (const auto& [country, count] : by_country) {
    std::printf("  %-14s %zu\n", country.c_str(), count);
  }

  // The label-statistics view (Figure 2-4): which other classes co-occur
  // with industrial waterfronts?
  std::printf("\nlabel statistics view:\n%s",
              response->statistics.RenderAscii(36).c_str());

  std::printf("\ndiscovery: classes beyond the two selected ones (candidate "
              "irrigation/pollution pathways):\n");
  for (const auto& bar : response->statistics.bars()) {
    if (pollution_risk.Contains(bar.label)) continue;
    std::printf("  %-60s %zu images\n", bar.label_name.c_str(), bar.count);
  }

  // The visitor adds the first page of results to the download cart and
  // exports the names.
  earthqube::DownloadCart cart;
  cart.AddPage(response->panel, 0);
  std::printf("\ndownload cart: %zu images queued for download\n", cart.size());
  return 0;
}
