#include "earthqube/result_panel.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace agoraeo::earthqube {

std::vector<const ResultEntry*> ResultPanel::Page(size_t page) const {
  std::vector<const ResultEntry*> out;
  const size_t begin = std::max(page * kPageSize, offset_);
  const size_t end =
      std::min((page + 1) * kPageSize, offset_ + entries_.size());
  for (size_t i = begin; i < end; ++i) out.push_back(&entries_[i - offset_]);
  return out;
}

std::string ResultPanel::NamesAsText() const {
  std::string out;
  for (const ResultEntry& e : entries_) {
    out += e.name;
    out += '\n';
  }
  return out;
}

const ResultEntry* ResultPanel::FindByName(const std::string& name) const {
  for (const ResultEntry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void DownloadCart::Add(const std::string& name) {
  if (seen_.insert(name).second) names_.push_back(name);
}

void DownloadCart::AddPage(const ResultPanel& panel, size_t page) {
  for (const ResultEntry* e : panel.Page(page)) Add(e->name);
}

bool DownloadCart::Contains(const std::string& name) const {
  return seen_.count(name) != 0;
}

std::vector<MarkerCluster> ClusterMarkers(
    const std::vector<ResultEntry>& entries, int zoom) {
  // Cell size halves per zoom level, from 45 degrees at zoom 1 — the
  // usual web-map tile pyramid geometry.
  zoom = std::max(1, std::min(18, zoom));
  const double cell = 90.0 / std::pow(2.0, zoom);

  std::map<std::pair<int64_t, int64_t>, MarkerCluster> cells;
  for (size_t i = 0; i < entries.size(); ++i) {
    const geo::GeoPoint& p = entries[i].map_location;
    const auto key = std::make_pair(
        static_cast<int64_t>(std::floor(p.lat / cell)),
        static_cast<int64_t>(std::floor(p.lon / cell)));
    MarkerCluster& cluster = cells[key];
    cluster.center.lat += p.lat;
    cluster.center.lon += p.lon;
    ++cluster.count;
    cluster.entry_indices.push_back(i);
  }

  std::vector<MarkerCluster> out;
  out.reserve(cells.size());
  for (auto& [key, cluster] : cells) {
    cluster.center.lat /= static_cast<double>(cluster.count);
    cluster.center.lon /= static_cast<double>(cluster.count);
    out.push_back(std::move(cluster));
  }
  return out;
}

}  // namespace agoraeo::earthqube
