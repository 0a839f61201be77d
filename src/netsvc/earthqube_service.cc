#include "netsvc/earthqube_service.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "json/json.h"

namespace agoraeo::netsvc {

using docstore::Document;
using docstore::Value;
using earthqube::EarthQubeQuery;
using earthqube::GeoQuery;
using earthqube::LabelFilter;
using earthqube::LabelOperator;
using earthqube::PlannerMode;
using earthqube::Projection;
using earthqube::QueryRequest;
using earthqube::QueryResponse;
using earthqube::SimilaritySpec;

namespace {

StatusOr<double> NumberField(const Document& doc, const std::string& path) {
  const Value* v = doc.GetPath(path);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("missing numeric field: " + path);
  }
  return v->as_number();
}

/// Reads an optional non-negative integer field; malformed or negative
/// values are rejected, not clamped.
StatusOr<int64_t> NonNegativeField(const Document& doc, const std::string& key,
                                   int64_t default_value) {
  const Value* v = doc.Get(key);
  if (v == nullptr) return default_value;
  if (!v->is_int64() || v->as_int64() < 0) {
    return Status::InvalidArgument(key + " must be a non-negative integer");
  }
  return v->as_int64();
}

StatusOr<GeoQuery> GeoFromJson(const Document& geo) {
  if (geo.Has("rect")) {
    const Value* rect = geo.Get("rect");
    if (!rect->is_document()) {
      return Status::InvalidArgument("geo.rect must be an object");
    }
    const Document& r = rect->as_document();
    geo::BoundingBox box;
    AGORAEO_ASSIGN_OR_RETURN(box.min.lat, NumberField(r, "min_lat"));
    AGORAEO_ASSIGN_OR_RETURN(box.min.lon, NumberField(r, "min_lon"));
    AGORAEO_ASSIGN_OR_RETURN(box.max.lat, NumberField(r, "max_lat"));
    AGORAEO_ASSIGN_OR_RETURN(box.max.lon, NumberField(r, "max_lon"));
    return GeoQuery::Rect(box);
  }
  if (geo.Has("circle")) {
    const Value* circle = geo.Get("circle");
    if (!circle->is_document()) {
      return Status::InvalidArgument("geo.circle must be an object");
    }
    const Document& c = circle->as_document();
    geo::Circle out;
    AGORAEO_ASSIGN_OR_RETURN(out.center.lat, NumberField(c, "lat"));
    AGORAEO_ASSIGN_OR_RETURN(out.center.lon, NumberField(c, "lon"));
    AGORAEO_ASSIGN_OR_RETURN(out.radius_meters, NumberField(c, "radius_m"));
    return GeoQuery::InCircle(out);
  }
  if (geo.Has("polygon")) {
    const Value* poly = geo.Get("polygon");
    if (!poly->is_array()) {
      return Status::InvalidArgument("geo.polygon must be an array");
    }
    geo::Polygon out;
    for (const Value& vertex : poly->as_array()) {
      if (!vertex.is_array() || vertex.as_array().size() != 2 ||
          !vertex.as_array()[0].is_number() ||
          !vertex.as_array()[1].is_number()) {
        return Status::InvalidArgument(
            "polygon vertices must be [lat, lon] pairs");
      }
      out.vertices.push_back({vertex.as_array()[0].as_number(),
                              vertex.as_array()[1].as_number()});
    }
    if (out.vertices.size() < 3) {
      return Status::InvalidArgument("polygon needs at least 3 vertices");
    }
    return GeoQuery::InPolygon(std::move(out));
  }
  return Status::InvalidArgument(
      "geo must contain one of rect/circle/polygon");
}

StatusOr<LabelFilter> LabelsFromJson(const Document& labels) {
  const Value* names = labels.Get("names");
  if (names == nullptr || !names->is_array()) {
    return Status::InvalidArgument("labels.names must be an array");
  }
  bigearthnet::LabelSet set;
  for (const Value& name : names->as_array()) {
    if (!name.is_string()) {
      return Status::InvalidArgument("label names must be strings");
    }
    // An unknown name is a malformed request (400), like an unknown
    // season, not a missing resource.
    auto id = bigearthnet::LabelIdFromName(name.as_string());
    if (!id.ok()) return Status::InvalidArgument(id.status().message());
    set.Add(*id);
  }
  const Value* op = labels.Get("operator");
  const std::string op_name =
      op != nullptr && op->is_string() ? op->as_string() : "some";
  if (op_name == "some") return LabelFilter::Some(std::move(set));
  if (op_name == "exactly") return LabelFilter::Exactly(std::move(set));
  if (op_name == "at_least_and_more") {
    return LabelFilter::AtLeastAndMore(std::move(set));
  }
  return Status::InvalidArgument("unknown label operator: " + op_name);
}

Document EntryToJsonDoc(const earthqube::ResultEntry& entry) {
  Document d;
  d.Set("name", Value(entry.name));
  std::vector<Value> labels;
  for (bigearthnet::LabelId id : entry.labels.ids()) {
    labels.emplace_back(bigearthnet::LabelById(id).name);
  }
  d.Set("labels", Value(std::move(labels)));
  d.Set("country", Value(entry.country));
  d.Set("date", Value(entry.acquisition_date));
  d.Set("lat", Value(entry.map_location.lat));
  d.Set("lon", Value(entry.map_location.lon));
  return d;
}

/// Serialises the label-statistics bars as the contents of a JSON array.
std::string LabelStatisticsToJson(const earthqube::LabelStatistics& stats) {
  std::string out;
  bool first = true;
  for (const earthqube::LabelBar& bar : stats.bars()) {
    if (!first) out += ",";
    first = false;
    char color[16];
    std::snprintf(color, sizeof(color), "#%06X", bar.color_rgb & 0xFFFFFF);
    Document d;
    d.Set("label", Value(bar.label_name));
    d.Set("count", Value(static_cast<int64_t>(bar.count)));
    d.Set("color", Value(std::string(color)));
    out += json::Serialize(d);
  }
  return out;
}

}  // namespace

HttpResponse FromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return HttpResponse::NotFound(status.message());
    case StatusCode::kCursorExpired:
      return HttpResponse::Error(410, "cursor_expired", status.message());
    case StatusCode::kInvalidArgument:
      return HttpResponse::BadRequest(status.message());
    case StatusCode::kFailedPrecondition:
      return HttpResponse::Error(409, "conflict", status.message());
    case StatusCode::kOverloaded: {
      HttpResponse response =
          HttpResponse::Error(429, "overloaded", status.message());
      response.headers["retry-after"] = "1";
      return response;
    }
    default:
      return HttpResponse::InternalError(status.message());
  }
}

Status StatusFromResponse(const HttpResponse& response) {
  std::string message = response.body;
  if (auto body = json::ParseObject(response.body); body.ok()) {
    if (const Value* m = body->GetPath("error.message");
        m != nullptr && m->is_string()) {
      message = m->as_string();
    }
  }
  switch (response.status_code) {
    case 400:
      return Status::InvalidArgument(message);
    case 404:
      return Status::NotFound(message);
    case 409:
      return Status::FailedPrecondition(message);
    case 410:
      return Status::CursorExpired(message);
    case 429:
      return Status::Overloaded(message);
    default:
      return Status::Internal("HTTP " + std::to_string(response.status_code) +
                              ": " + message);
  }
}

StatusOr<EarthQubeQuery> EarthQubeService::QueryFromJson(
    const Document& body) {
  EarthQubeQuery query;
  if (const Value* geo = body.Get("geo"); geo != nullptr) {
    if (!geo->is_document()) {
      return Status::InvalidArgument("geo must be an object");
    }
    AGORAEO_ASSIGN_OR_RETURN(query.geo, GeoFromJson(geo->as_document()));
  }
  if (const Value* dr = body.Get("date_range"); dr != nullptr) {
    if (!dr->is_document()) {
      return Status::InvalidArgument("date_range must be an object");
    }
    const Value* begin = dr->as_document().Get("begin");
    const Value* end = dr->as_document().Get("end");
    if (begin == nullptr || end == nullptr || !begin->is_string() ||
        !end->is_string()) {
      return Status::InvalidArgument(
          "date_range needs string fields begin and end");
    }
    DateRange range;
    AGORAEO_ASSIGN_OR_RETURN(range.begin,
                             CivilDate::Parse(begin->as_string()));
    AGORAEO_ASSIGN_OR_RETURN(range.end, CivilDate::Parse(end->as_string()));
    query.date_range = range;
  }
  if (const Value* sats = body.Get("satellites"); sats != nullptr) {
    if (!sats->is_array()) {
      return Status::InvalidArgument("satellites must be an array");
    }
    for (const Value& s : sats->as_array()) {
      if (!s.is_string()) {
        return Status::InvalidArgument("satellite entries must be strings");
      }
      if (s.as_string() != "S2A" && s.as_string() != "S2B") {
        return Status::InvalidArgument("unknown satellite: " + s.as_string());
      }
      query.satellites.push_back(s.as_string());
    }
  }
  if (const Value* seasons = body.Get("seasons"); seasons != nullptr) {
    if (!seasons->is_array()) {
      return Status::InvalidArgument("seasons must be an array");
    }
    for (const Value& s : seasons->as_array()) {
      if (!s.is_string()) {
        return Status::InvalidArgument("season entries must be strings");
      }
      AGORAEO_ASSIGN_OR_RETURN(Season season,
                               SeasonFromString(s.as_string()));
      query.seasons.push_back(season);
    }
  }
  if (const Value* labels = body.Get("labels"); labels != nullptr) {
    if (!labels->is_document()) {
      return Status::InvalidArgument("labels must be an object");
    }
    AGORAEO_ASSIGN_OR_RETURN(query.label_filter,
                             LabelsFromJson(labels->as_document()));
  }
  AGORAEO_ASSIGN_OR_RETURN(const int64_t limit,
                           NonNegativeField(body, "limit", 0));
  query.limit = static_cast<size_t>(limit);
  return query;
}

StatusOr<QueryRequest> EarthQubeService::QueryRequestFromJson(
    const Document& body) {
  QueryRequest request;
  if (const Value* panel = body.Get("panel"); panel != nullptr) {
    if (!panel->is_document()) {
      return Status::InvalidArgument("panel must be an object");
    }
    AGORAEO_ASSIGN_OR_RETURN(request.panel,
                             QueryFromJson(panel->as_document()));
  }
  if (const Value* sim = body.Get("similarity"); sim != nullptr) {
    if (!sim->is_document()) {
      return Status::InvalidArgument("similarity must be an object");
    }
    const Document& s = sim->as_document();
    SimilaritySpec spec;
    if (const Value* name = s.Get("name"); name != nullptr) {
      if (!name->is_string()) {
        return Status::InvalidArgument("similarity.name must be a string");
      }
      spec.archive_name = name->as_string();
    }
    if (const Value* code = s.Get("code"); code != nullptr) {
      if (!code->is_string() || code->as_string().empty()) {
        return Status::InvalidArgument(
            "similarity.code must be a non-empty '0'/'1' bit string");
      }
      for (char c : code->as_string()) {
        if (c != '0' && c != '1') {
          return Status::InvalidArgument(
              "similarity.code must contain only '0'/'1' characters");
        }
      }
      spec.code = BinaryCode::FromBitString(code->as_string());
    }
    if (s.Has("radius")) {
      AGORAEO_ASSIGN_OR_RETURN(const int64_t radius,
                               NonNegativeField(s, "radius", 0));
      spec.radius = static_cast<uint32_t>(radius);
    }
    if (s.Has("k")) {
      AGORAEO_ASSIGN_OR_RETURN(const int64_t k, NonNegativeField(s, "k", 0));
      spec.k = static_cast<size_t>(k);
    }
    if (!spec.radius.has_value() && !spec.k.has_value()) spec.radius = 8;
    AGORAEO_ASSIGN_OR_RETURN(const int64_t limit,
                             NonNegativeField(s, "limit", 0));
    spec.limit = static_cast<size_t>(limit);
    request.similarity = std::move(spec);
  }
  if (const Value* projection = body.Get("projection"); projection != nullptr) {
    if (!projection->is_string()) {
      return Status::InvalidArgument("projection must be a string");
    }
    if (projection->as_string() == "full") {
      request.projection = Projection::kFullPanel;
    } else if (projection->as_string() == "hits") {
      request.projection = Projection::kHitsOnly;
    } else {
      return Status::InvalidArgument(
          "projection must be \"full\" or \"hits\"");
    }
  }
  if (const Value* planner = body.Get("planner"); planner != nullptr) {
    if (!planner->is_string()) {
      return Status::InvalidArgument("planner must be a string");
    }
    if (planner->as_string() == "auto") {
      request.planner = PlannerMode::kAuto;
    } else if (planner->as_string() == "pre_filter") {
      request.planner = PlannerMode::kForcePreFilter;
    } else if (planner->as_string() == "post_filter") {
      request.planner = PlannerMode::kForcePostFilter;
    } else {
      return Status::InvalidArgument(
          "planner must be \"auto\", \"pre_filter\" or \"post_filter\"");
    }
  }
  AGORAEO_ASSIGN_OR_RETURN(const int64_t page,
                           NonNegativeField(body, "page", 0));
  request.page = static_cast<size_t>(page);
  AGORAEO_ASSIGN_OR_RETURN(
      const int64_t page_size,
      NonNegativeField(body, "page_size",
                       static_cast<int64_t>(earthqube::kPageSize)));
  request.page_size = static_cast<size_t>(page_size);
  if (const Value* cursor = body.Get("cursor"); cursor != nullptr) {
    if (!cursor->is_string()) {
      return Status::InvalidArgument("cursor must be a string");
    }
    AGORAEO_ASSIGN_OR_RETURN(const earthqube::PageCursor decoded,
                             earthqube::DecodeCursor(cursor->as_string()));
    request.page = decoded.page;
    request.page_size = decoded.page_size;
  }
  AGORAEO_RETURN_IF_ERROR(request.Validate());
  return request;
}

std::string EarthQubeService::QueryResponseToJson(
    const QueryResponse& response) {
  Document plan;
  plan.Set("strategy", Value(std::string(earthqube::StrategyToString(
                           response.plan.strategy))));
  plan.Set("description", Value(response.plan.description));
  plan.Set("selectivity", Value(response.plan.estimated_selectivity));
  plan.Set("estimated_matches",
           Value(static_cast<int64_t>(response.plan.estimated_filter_matches)));

  const size_t total = response.total();
  size_t begin = 0;
  size_t end = total;
  size_t reported = total;
  if (response.windowed) {
    // The execution tier already sliced this response to the requested
    // window (ranked direct access streams only what the page needs),
    // so serialise it whole.  The reported total is a lower bound:
    // everything known to precede the window, the window itself, and
    // one more hit iff a continuation cursor proves there is one.
    reported = response.page * response.page_size + total +
               (response.cursor.empty() ? 0 : 1);
  } else if (response.page_size > 0) {
    begin = std::min(total, response.page * response.page_size);
    end = std::min(total, begin + response.page_size);
  }

  std::string out = "{\"total\":" + std::to_string(reported) +
                    ",\"page\":" + std::to_string(response.page) +
                    ",\"page_size\":" + std::to_string(response.page_size) +
                    ",\"served_from_cache\":" +
                    (response.served_from_cache ? "true" : "false") +
                    ",\"plan\":" + json::Serialize(plan) + ",\"results\":[";
  bool first = true;
  if (response.projection == Projection::kHitsOnly) {
    for (size_t i = begin; i < end; ++i) {
      if (!first) out += ",";
      first = false;
      Document d;
      d.Set("name", Value(response.hits[i].patch_name));
      d.Set("distance",
            Value(static_cast<int64_t>(response.hits[i].hamming_distance)));
      out += json::Serialize(d);
    }
  } else {
    const auto& entries = response.panel.entries();
    // Joined similarity responses keep entries aligned with hits, so
    // each result row can carry its Hamming distance.
    const bool aligned = response.hits.size() == entries.size();
    // A paged panel holds only its page's rows, from offset() on.
    const size_t offset = response.panel.offset();
    for (size_t i = begin; i < end; ++i) {
      if (!first) out += ",";
      first = false;
      Document d = EntryToJsonDoc(entries[i - offset]);
      if (aligned && !response.hits.empty()) {
        d.Set("distance",
              Value(static_cast<int64_t>(response.hits[i].hamming_distance)));
      }
      out += json::Serialize(d);
    }
  }
  out += "]";
  if (response.projection == Projection::kFullPanel) {
    out += ",\"label_statistics\":[" +
           LabelStatisticsToJson(response.statistics) + "]";
  }
  out += ",\"cursor\":\"" + response.cursor + "\"}";
  return out;
}

void EarthQubeService::RegisterRoutes(HttpServer* server,
                                      bool include_query_route) {
  // Every server fronting this service reports per-route request
  // counts/latency into the system's registry (RegisterRoutes runs
  // before Start, which is when the server binds its metrics).
  server->AttachObservability(&system_->obs());
  server->Route("GET", "/health", [](const HttpRequest&) {
    return HttpResponse::Json(200, "{\"status\":\"ok\"}");
  });
  if (include_query_route) {
    server->RouteAsync("POST", "/api/v2/query",
                       [this](const HttpRequest& request,
                              HttpServer::Responder responder) {
                         HandleQueryV2(request, std::move(responder));
                       });
  }
  server->Route("POST", "/api/feedback", [this](const HttpRequest& request) {
    return HandleFeedback(request);
  });
  server->Route("POST", "/api/download", [this](const HttpRequest& request) {
    return HandleDownload(request);
  });
  server->Route("GET", "/api/feedback/count", [this](const HttpRequest&) {
    return HttpResponse::Json(
        200, "{\"count\":" + std::to_string(system_->NumFeedbackEntries()) +
                 "}");
  });
  server->Route("POST", "/api/v2/index/snapshot", [this](const HttpRequest&) {
    return HandleIndexSnapshot();
  });
  // Observability: Prometheus exposition, the JSON mirror, and the
  // slow-query ring.  Served even with metrics disabled (the registry
  // is just empty) so probes never 404.
  server->Route("GET", "/metrics", [this](const HttpRequest&) {
    return HttpResponse::Text(200,
                              system_->obs().registry().PrometheusText());
  });
  server->Route("GET", "/api/v2/metrics", [this](const HttpRequest&) {
    return HttpResponse::Json(200, system_->obs().registry().JsonText());
  });
  server->Route("GET", "/api/v2/debug/slow_queries",
                [this](const HttpRequest&) {
                  return HttpResponse::Json(200,
                                            system_->obs().slow_log().ToJson());
                });
  server->Route("GET", "/api/patch/*", [this](const HttpRequest& request) {
    return HandlePatchMetadata(request);
  });
}

HttpResponse EarthQubeService::HandleIndexSnapshot() {
  earthqube::CbirService* cbir = system_->cbir();
  if (cbir == nullptr) {
    return FromStatus(Status::FailedPrecondition("no CBIR service attached"));
  }
  const Status status = cbir->Snapshot();
  if (!status.ok()) return FromStatus(status);
  const earthqube::CbirPersistenceStats& p = cbir->persistence_stats();
  Document out;
  out.Set("snapshotted", Value(true));
  out.Set("num_indexed", Value(static_cast<int64_t>(cbir->num_indexed())));
  out.Set("snapshots_written",
          Value(static_cast<int64_t>(p.snapshots_written)));
  return HttpResponse::Json(200, json::Serialize(out));
}

void EarthQubeService::HandleQueryV2(const HttpRequest& request,
                                     HttpServer::Responder responder) const {
  auto body = json::ParseObject(request.body.empty() ? "{}" : request.body);
  if (!body.ok()) {
    responder.Send(HttpResponse::BadRequest(body.status().message()));
    return;
  }

  if (const Value* batch = body->Get("requests"); batch != nullptr) {
    if (!batch->is_array() || batch->as_array().empty()) {
      responder.Send(
          HttpResponse::BadRequest("requests must be a non-empty array"));
      return;
    }
    if (batch->as_array().size() > kMaxBatchQueries) {
      responder.Send(HttpResponse::BadRequest(
          "batch too large: at most " + std::to_string(kMaxBatchQueries) +
          " requests per submission"));
      return;
    }
    std::vector<QueryRequest> requests;
    requests.reserve(batch->as_array().size());
    for (const Value& entry : batch->as_array()) {
      if (!entry.is_document()) {
        responder.Send(
            HttpResponse::BadRequest("requests entries must be objects"));
        return;
      }
      auto parsed = QueryRequestFromJson(entry.as_document());
      if (!parsed.ok()) {
        responder.Send(FromStatus(parsed.status()));
        return;
      }
      requests.push_back(std::move(parsed).value());
    }
    // Any failed slot fails the whole batch (first failing slot wins);
    // the last completion answers the parked connection.
    system_->ExecuteBatchAsync(
        requests,
        [responder](StatusOr<std::vector<QueryResponse>> responses) {
          if (!responses.ok()) {
            responder.Send(FromStatus(responses.status()));
            return;
          }
          std::string out = "{\"batch_size\":" +
                            std::to_string(responses->size()) +
                            ",\"responses\":[";
          for (size_t i = 0; i < responses->size(); ++i) {
            if (i != 0) out += ",";
            out += QueryResponseToJson((*responses)[i]);
          }
          out += "]}";
          responder.Send(HttpResponse::Json(200, out));
        });
    return;
  }

  auto parsed = QueryRequestFromJson(*body);
  if (!parsed.ok()) {
    responder.Send(FromStatus(parsed.status()));
    return;
  }
  // Per-request trace: adopt a propagated id (the cluster coordinator's
  // x-trace-id) or mint one.  Null when tracing is off — the engine's
  // span sites all null-check.
  obs::Observability& obs = system_->obs();
  const std::string& propagated = request.Header("x-trace-id");
  std::shared_ptr<obs::Trace> trace = propagated.empty()
                                          ? obs.StartTrace()
                                          : obs.StartTrace(propagated);
  const uint64_t start_ns =
      (trace != nullptr || obs.metrics_enabled()) ? obs::NowNanos() : 0;
  std::string summary = "POST /api/v2/query ";
  summary += !parsed->similarity.has_value() ? "panel"
             : parsed->panel.has_value()     ? "hybrid"
                                             : "cbir";
  system_->ExecuteAsync(
      *parsed,
      [this, responder, trace, start_ns,
       summary = std::move(summary)](const StatusOr<QueryResponse>& response) {
        HttpResponse http =
            response.ok()
                ? HttpResponse::Json(200, QueryResponseToJson(*response))
                : FromStatus(response.status());
        if (trace != nullptr) http.headers["x-trace-id"] = trace->id();
        if (start_ns != 0) {
          obs::SlowQueryLog& slow_log = system_->obs().slow_log();
          const uint64_t total_ns = obs::NowNanos() - start_ns;
          // Threshold check before rendering: fast requests never pay
          // for the trace JSON.
          if (total_ns >= slow_log.threshold_ns() &&
              slow_log.capacity() > 0) {
            slow_log.Observe(total_ns, trace != nullptr ? trace->id() : "",
                             summary, trace != nullptr ? trace->ToJson() : "");
          }
        }
        responder.Send(http);
      },
      trace);
}

HttpResponse EarthQubeService::HandleFeedback(const HttpRequest& request) {
  auto body = json::ParseObject(request.body);
  if (!body.ok()) return HttpResponse::BadRequest(body.status().message());
  const Value* text = body->Get("text");
  if (text == nullptr || !text->is_string() || text->as_string().empty()) {
    return HttpResponse::BadRequest("text is required");
  }
  const Status stored = system_->SubmitFeedback(text->as_string());
  if (!stored.ok()) return HttpResponse::InternalError(stored.message());
  return HttpResponse::Json(201, "{\"stored\":true}");
}

HttpResponse EarthQubeService::HandleDownload(
    const HttpRequest& request) const {
  auto body = json::ParseObject(request.body);
  if (!body.ok()) return HttpResponse::BadRequest(body.status().message());
  const Value* names = body->Get("names");
  if (names == nullptr || !names->is_array() || names->as_array().empty()) {
    return HttpResponse::BadRequest("names must be a non-empty array");
  }
  std::vector<std::string> list;
  for (const Value& n : names->as_array()) {
    if (!n.is_string()) {
      return HttpResponse::BadRequest("names must be strings");
    }
    list.push_back(n.as_string());
  }
  auto zip = system_->ExportAsZip(list);
  if (!zip.ok()) return FromStatus(zip.status());
  // The browser downloads binary; the JSON API ships it base64-tagged.
  Document out;
  out.Set("filename", Value("earthqube_download.zip"));
  out.Set("zip_base64", Value(json::Base64Encode(*zip)));
  out.Set("entries", Value(static_cast<int64_t>(list.size())));
  return HttpResponse::Json(200, json::Serialize(out));
}

HttpResponse EarthQubeService::HandlePatchMetadata(
    const HttpRequest& request) const {
  const std::string prefix = "/api/patch/";
  auto name = UrlDecode(request.path.substr(prefix.size()));
  if (!name.ok()) return HttpResponse::BadRequest(name.status().message());
  auto meta = system_->GetMetadata(*name);
  if (!meta.ok()) return HttpResponse::NotFound("no such patch: " + *name);
  Document d;
  d.Set("name", Value(meta->name));
  std::vector<Value> labels;
  for (bigearthnet::LabelId id : meta->labels.ids()) {
    labels.emplace_back(bigearthnet::LabelById(id).name);
  }
  d.Set("labels", Value(std::move(labels)));
  d.Set("country", Value(meta->country));
  d.Set("date", Value(meta->acquisition_date.ToString()));
  d.Set("season", Value(std::string(SeasonToString(meta->season))));
  Document bounds;
  bounds.Set("min_lat", Value(meta->bounds.min.lat));
  bounds.Set("min_lon", Value(meta->bounds.min.lon));
  bounds.Set("max_lat", Value(meta->bounds.max.lat));
  bounds.Set("max_lon", Value(meta->bounds.max.lon));
  d.Set("bounds", Value(bounds));
  return HttpResponse::Json(200, json::Serialize(d));
}

}  // namespace agoraeo::netsvc
