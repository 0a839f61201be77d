#include "agora/earthqube_ops.h"

#include "common/string_util.h"

namespace agoraeo::agora {

using docstore::Document;
using docstore::Value;
using earthqube::EarthQube;
using earthqube::EarthQubeQuery;
using earthqube::QueryRequest;
using earthqube::QueryResponse;

namespace {

/// Builds an EarthQubeQuery from an operator parameter document.
StatusOr<EarthQubeQuery> QueryFromParams(const Document& params) {
  EarthQubeQuery query;
  if (const Value* min_lat = params.Get("min_lat"); min_lat != nullptr) {
    const Value* min_lon = params.Get("min_lon");
    const Value* max_lat = params.Get("max_lat");
    const Value* max_lon = params.Get("max_lon");
    if (min_lon == nullptr || max_lat == nullptr || max_lon == nullptr) {
      return Status::InvalidArgument(
          "rectangle params need min_lat/min_lon/max_lat/max_lon");
    }
    query.geo = earthqube::GeoQuery::Rect(
        {{min_lat->as_number(), min_lon->as_number()},
         {max_lat->as_number(), max_lon->as_number()}});
  }
  if (const Value* labels = params.Get("labels");
      labels != nullptr && labels->is_array()) {
    bigearthnet::LabelSet set;
    for (const Value& name : labels->as_array()) {
      AGORAEO_ASSIGN_OR_RETURN(bigearthnet::LabelId id,
                               bigearthnet::LabelIdFromName(name.as_string()));
      set.Add(id);
    }
    std::string op = "some";
    if (const Value* o = params.Get("label_operator"); o != nullptr) {
      op = StrToLower(o->as_string());
    }
    if (op == "some") {
      query.label_filter = earthqube::LabelFilter::Some(set);
    } else if (op == "exactly") {
      query.label_filter = earthqube::LabelFilter::Exactly(set);
    } else if (op == "at_least") {
      query.label_filter = earthqube::LabelFilter::AtLeastAndMore(set);
    } else {
      return Status::InvalidArgument("unknown label_operator: " + op);
    }
  }
  if (const Value* country = params.Get("country"); country != nullptr) {
    AGORAEO_ASSIGN_OR_RETURN(const bigearthnet::Country* c,
                             bigearthnet::CountryByName(country->as_string()));
    query.geo = earthqube::GeoQuery::Rect(c->extent);
  }
  if (const Value* limit = params.Get("limit"); limit != nullptr) {
    query.limit = static_cast<size_t>(limit->as_int64());
  }
  return query;
}

}  // namespace

Status RegisterEarthQubeOperators(EarthQube* system,
                                  OperatorRegistry* registry) {
  AGORAEO_RETURN_IF_ERROR(registry->Register(
      "earthqube.search",
      [system](const std::any&, const Document& params) -> StatusOr<std::any> {
        QueryRequest request;
        AGORAEO_ASSIGN_OR_RETURN(request.panel, QueryFromParams(params));
        request.page_size = 0;
        AGORAEO_ASSIGN_OR_RETURN(QueryResponse response,
                                 system->Execute(request));
        return std::any(std::move(response));
      },
      "() -> QueryResponse"));

  AGORAEO_RETURN_IF_ERROR(registry->Register(
      "earthqube.cbir",
      [system](const std::any& input,
               const Document& params) -> StatusOr<std::any> {
        const auto* response = std::any_cast<QueryResponse>(&input);
        if (response == nullptr) {
          return Status::InvalidArgument(
              "earthqube.cbir expects a QueryResponse input");
        }
        size_t rank = 0;
        if (const Value* r = params.Get("rank"); r != nullptr) {
          rank = static_cast<size_t>(r->as_int64());
        }
        if (rank >= response->panel.total()) {
          return Status::OutOfRange("rank beyond result panel size");
        }
        size_t k = 10;
        if (const Value* kv = params.Get("k"); kv != nullptr) {
          k = static_cast<size_t>(kv->as_int64());
        }
        QueryRequest request;
        request.similarity = earthqube::SimilaritySpec::NameKnn(
            response->panel.entries()[rank].name, k);
        request.page_size = 0;
        AGORAEO_ASSIGN_OR_RETURN(QueryResponse similar,
                                 system->Execute(request));
        return std::any(std::move(similar));
      },
      "QueryResponse -> QueryResponse"));

  AGORAEO_RETURN_IF_ERROR(registry->Register(
      "earthqube.names",
      [](const std::any& input, const Document&) -> StatusOr<std::any> {
        const auto* response = std::any_cast<QueryResponse>(&input);
        if (response == nullptr) {
          return Status::InvalidArgument(
              "earthqube.names expects a QueryResponse input");
        }
        std::vector<std::string> names;
        names.reserve(response->panel.total());
        for (const auto& entry : response->panel.entries()) {
          names.push_back(entry.name);
        }
        return std::any(std::move(names));
      },
      "QueryResponse -> vector<string>"));

  AGORAEO_RETURN_IF_ERROR(registry->Register(
      "earthqube.statistics",
      [](const std::any& input, const Document&) -> StatusOr<std::any> {
        const auto* response = std::any_cast<QueryResponse>(&input);
        if (response == nullptr) {
          return Status::InvalidArgument(
              "earthqube.statistics expects a QueryResponse input");
        }
        return std::any(response->statistics.RenderAscii());
      },
      "QueryResponse -> string"));

  return Status::OK();
}

Status OfferStandardAssets(AssetCatalog* catalog, size_t archive_size,
                           size_t hash_bits) {
  Document dataset_meta;
  dataset_meta.Set("patches", Value(static_cast<int64_t>(archive_size)));
  dataset_meta.Set("s2_bands", Value(12));
  dataset_meta.Set("s1_channels", Value(2));
  dataset_meta.Set("labels", Value(43));
  dataset_meta.Set("countries", Value(10));
  auto dataset = catalog->Offer(
      AssetKind::kDataset, "bigearthnet", "tu-berlin",
      "Large-scale multi-label Sentinel-1/2 benchmark archive",
      {"remote-sensing", "sentinel-2", "sentinel-1", "multi-label"},
      std::move(dataset_meta));
  if (!dataset.ok()) return dataset.status();

  auto algorithm = catalog->Offer(
      AssetKind::kAlgorithm, "milan", "tu-berlin",
      "Metric-learning based deep hashing network for CBIR",
      {"deep-hashing", "metric-learning", "cbir"});
  if (!algorithm.ok()) return algorithm.status();

  Document model_meta;
  model_meta.Set("hash_bits", Value(static_cast<int64_t>(hash_bits)));
  model_meta.Set("losses",
                 docstore::MakeStringArray(
                     {"triplet", "bit_balance", "quantization"}));
  auto model = catalog->Offer(AssetKind::kModel, "milan-bigearthnet",
                              "tu-berlin",
                              "MiLaN checkpoint trained on BigEarthNet",
                              {"deep-hashing", "checkpoint"},
                              std::move(model_meta));
  if (!model.ok()) return model.status();

  auto tool = catalog->Offer(
      AssetKind::kTool, "earthqube", "tu-berlin/dfki",
      "Browser and search engine for satellite imagery within AgoraEO",
      {"search-engine", "browser", "cbir", "remote-sensing"});
  if (!tool.ok()) return tool.status();
  return Status::OK();
}

}  // namespace agoraeo::agora
