#include "earthqube/query_cache.h"

#include <algorithm>
#include <cstdio>

namespace agoraeo::earthqube {

namespace {

/// Byte budgets of the allowlist and negative caches.  Every cache has
/// 16 shards; response and allowlist entries never age out (an epoch
/// bump or LRU pressure removes them).
constexpr size_t kAllowlistCapacityBytes = 16u << 20;
constexpr size_t kNegativeCapacityBytes = 1u << 20;

cache::ShardedLruCacheOptions CacheOptions(size_t capacity_bytes,
                                           const QueryCacheConfig& config,
                                           const cache::EpochValidator* epoch) {
  cache::ShardedLruCacheOptions options;
  options.capacity_bytes = capacity_bytes;
  options.validator = epoch;
  options.clock = config.clock;
  return options;
}

cache::ShardedLruCacheOptions NegativeOptions(
    const QueryCacheConfig& config, const cache::EpochValidator* epoch) {
  cache::ShardedLruCacheOptions options =
      CacheOptions(kNegativeCapacityBytes, config, epoch);
  options.ttl = config.negative_ttl;
  return options;
}

/// Appends a double with full round-trip precision: fingerprints must
/// distinguish any two coordinates the filter itself distinguishes.
void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendPoint(std::string* out, const geo::GeoPoint& p) {
  AppendDouble(out, p.lat);
  *out += ',';
  AppendDouble(out, p.lon);
}

}  // namespace

QueryCache::QueryCache(const QueryCacheConfig& config)
    : config_(config),
      responses_(CacheOptions(config.response_capacity_bytes, config, &epoch_)),
      allowlists_(CacheOptions(kAllowlistCapacityBytes, config, &epoch_)),
      negatives_(NegativeOptions(config, &epoch_)) {}

std::string QueryCache::PanelFingerprint(const EarthQubeQuery& query,
                                         bool include_limit) {
  std::string fp = "geo:";
  switch (query.geo.shape) {
    case GeoQuery::Shape::kNone:
      fp += "none";
      break;
    case GeoQuery::Shape::kRectangle:
      fp += "rect(";
      AppendPoint(&fp, query.geo.rectangle.min);
      fp += ';';
      AppendPoint(&fp, query.geo.rectangle.max);
      fp += ')';
      break;
    case GeoQuery::Shape::kCircle:
      fp += "circle(";
      AppendPoint(&fp, query.geo.circle.center);
      fp += ';';
      AppendDouble(&fp, query.geo.circle.radius_meters);
      fp += ')';
      break;
    case GeoQuery::Shape::kPolygon:
      fp += "poly(";
      for (const geo::GeoPoint& v : query.geo.polygon.vertices) {
        AppendPoint(&fp, v);
        fp += ';';
      }
      fp += ')';
      break;
  }
  fp += "|date:";
  if (query.date_range.has_value()) {
    fp += std::to_string(query.date_range->begin.ToOrdinal()) + "-" +
          std::to_string(query.date_range->end.ToOrdinal());
  }
  // Satellites and seasons are order-insensitive filter terms; sort the
  // fingerprint components so permutations share one cache entry.
  fp += "|sat:";
  std::vector<std::string> sats = query.satellites;
  std::sort(sats.begin(), sats.end());
  for (const std::string& s : sats) fp += s + ",";
  fp += "|season:";
  std::vector<std::string> seasons;
  seasons.reserve(query.seasons.size());
  for (Season s : query.seasons) seasons.emplace_back(SeasonToString(s));
  std::sort(seasons.begin(), seasons.end());
  for (const std::string& s : seasons) fp += s + ",";
  fp += "|labels:";
  if (query.label_filter.enabled && !query.label_filter.labels.empty()) {
    fp += std::string(LabelOperatorToString(query.label_filter.op)) + ":" +
          query.label_filter.labels.ToAsciiKeys();  // sorted ASCII keys
  }
  if (include_limit) fp += "|limit:" + std::to_string(query.limit);
  return fp;
}

std::optional<std::string> QueryCache::RequestFingerprint(
    const QueryRequest& request) {
  if (request.similarity.has_value()) {
    // Uploaded-patch subjects have no cheap fingerprint; malformed specs
    // (no subject, no mode) are left for Validate() to reject.
    const SimilaritySpec& spec = *request.similarity;
    if (spec.patch.has_value() ||
        (!spec.archive_name.has_value() && !spec.code.has_value()) ||
        (!spec.radius.has_value() && !spec.k.has_value())) {
      return std::nullopt;
    }
  }
  std::string fp = "v2|panel{";
  if (request.panel.has_value()) fp += PanelFingerprint(*request.panel);
  fp += "}|sim{";
  if (request.similarity.has_value()) {
    const SimilaritySpec& spec = *request.similarity;
    if (spec.archive_name.has_value()) {
      fp += "name:" + *spec.archive_name;
    } else {
      fp += "code:" + spec.code->ToBitString();
    }
    fp += spec.radius.has_value() ? "|r:" + std::to_string(*spec.radius)
                                  : "|k:" + std::to_string(*spec.k);
    fp += "|lim:" + std::to_string(spec.limit);
  }
  fp += "}|proj:" + std::to_string(static_cast<int>(request.projection)) +
        "|planner:" + std::to_string(static_cast<int>(request.planner)) +
        "|page:" + std::to_string(request.page) + ":" +
        std::to_string(request.page_size);
  return fp;
}

size_t QueryCache::ApproxResponseBytes(const QueryResponse& response) {
  size_t bytes = sizeof(QueryResponse);
  for (const ResultEntry& entry : response.panel.entries()) {
    bytes += sizeof(ResultEntry) + entry.name.size() + entry.country.size() +
             entry.acquisition_date.size();
  }
  for (const CbirResult& hit : response.hits) {
    bytes += sizeof(CbirResult) + hit.patch_name.size();
  }
  for (const LabelBar& bar : response.statistics.bars()) {
    bytes += sizeof(LabelBar) + bar.label_name.size();
  }
  bytes += response.plan.description.size() + response.query_stats.plan.size() +
           response.cursor.size();
  return bytes;
}

std::shared_ptr<const QueryResponse> QueryCache::GetResponse(
    const std::string& fingerprint) {
  if (!config_.enable_response_cache) return nullptr;
  auto hit = responses_.Get(fingerprint);
  return hit.has_value() ? *hit : nullptr;
}

bool QueryCache::PutResponse(const std::string& fingerprint,
                             const QueryResponse& response,
                             uint64_t computed_at_epoch) {
  if (!config_.enable_response_cache) return false;
  return responses_.Put(fingerprint,
                        std::make_shared<const QueryResponse>(response),
                        ApproxResponseBytes(response), computed_at_epoch);
}

std::shared_ptr<const FilterMatchSet> QueryCache::GetMatchSet(
    const std::string& fingerprint) {
  if (!config_.enable_allowlist_cache) return nullptr;
  auto hit = allowlists_.Get(fingerprint);
  return hit.has_value() ? *hit : nullptr;
}

void QueryCache::PutMatchSet(const std::string& fingerprint,
                             std::shared_ptr<const FilterMatchSet> matches,
                             uint64_t computed_at_epoch) {
  if (!config_.enable_allowlist_cache || matches == nullptr) return;
  const size_t bytes =
      sizeof(FilterMatchSet) +
      matches->ids.size() * (sizeof(docstore::DocId) + sizeof(index::ItemId)) +
      matches->filter_stats.plan.size();
  allowlists_.Put(fingerprint, std::move(matches), bytes, computed_at_epoch);
}

std::optional<Status> QueryCache::GetNegative(const std::string& fingerprint) {
  if (!config_.enable_negative_cache) return std::nullopt;
  return negatives_.Get(fingerprint);
}

void QueryCache::PutNegative(const std::string& fingerprint,
                             const Status& status,
                             uint64_t computed_at_epoch) {
  if (!config_.enable_negative_cache || !status.IsNotFound()) return;
  const size_t bytes =
      sizeof(Status) + fingerprint.size() + status.message().size();
  negatives_.Put(fingerprint, status, bytes, computed_at_epoch);
}

}  // namespace agoraeo::earthqube
