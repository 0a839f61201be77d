#include "cluster/cluster_node.h"

#include <algorithm>
#include <utility>

#include "bigearthnet/archive_generator.h"
#include "common/logging.h"
#include "earthqube/statistics.h"
#include "json/json.h"
#include "netsvc/http.h"

namespace agoraeo::cluster {

using docstore::Document;
using docstore::Value;
using earthqube::QueryRequest;
using earthqube::QueryResponse;
using netsvc::EarthQubeService;
using netsvc::FromStatus;
using netsvc::HttpRequest;
using netsvc::HttpResponse;

ClusterNode::ClusterNode(earthqube::EarthQube* system, Options options)
    : system_(system),
      options_(std::move(options)),
      server_(std::make_unique<netsvc::HttpServer>()),
      service_(system),
      peer_client_(options_.host, options_.client_options) {
  obs::Observability& obs = system_->obs();
  moved_metric_ = obs.CounterOrNull("agoraeo_cluster_moved_total");
  epoch_gauge_ = obs.GaugeOrNull("agoraeo_cluster_epoch");
  owned_slots_gauge_ = obs.GaugeOrNull("agoraeo_cluster_owned_slots");
  migration_ns_ = obs.HistogramOrNull("agoraeo_cluster_migration_ns");
}

ClusterNode::~ClusterNode() { Stop(); }

Status ClusterNode::Start(uint16_t port) {
  service_.RegisterRoutes(server_.get(), /*include_query_route=*/false);
  server_->Route("POST", "/api/v2/query", [this](const HttpRequest& request) {
    return HandleQuery(request);
  });
  server_->Route("GET", "/api/v2/cluster/slots",
                 [this](const HttpRequest&) { return HandleSlots(); });
  server_->Route("POST", "/api/v2/cluster/migrate",
                 [this](const HttpRequest& request) {
                   return HandleMigrate(request);
                 });
  server_->Route("POST", "/api/v2/cluster/import",
                 [this](const HttpRequest& request) {
                   return HandleImport(request);
                 });
  server_->Route("POST", "/api/v2/cluster/ingest",
                 [this](const HttpRequest& request) {
                   return HandleIngest(request);
                 });
  server_->Route("GET", "/api/v2/cluster/code/*",
                 [this](const HttpRequest& request) {
                   return HandleCode(request);
                 });
  return server_->Start(port);
}

void ClusterNode::Stop() { server_->Stop(); }

void ClusterNode::SetTable(const SlotTable& table) {
  std::lock_guard<std::mutex> lock(mu_);
  if (table.epoch() >= table_.epoch()) table_ = table;
  PublishTableLocked();
}

void ClusterNode::PublishTableLocked() {
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->Set(static_cast<int64_t>(table_.epoch()));
  }
  if (owned_slots_gauge_ != nullptr) {
    owned_slots_gauge_->Set(
        static_cast<int64_t>(table_.CountOwnedBy(options_.id)));
  }
}

NodeAddress ClusterNode::address() const {
  return {options_.id, options_.host, static_cast<int>(server_->port())};
}

uint64_t ClusterNode::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.epoch();
}

SlotTable ClusterNode::table() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_;
}

size_t ClusterNode::owned_slot_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.CountOwnedBy(options_.id);
}

std::vector<size_t> ClusterNode::tombstoned_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {tombstones_.begin(), tombstones_.end()};
}

HttpResponse ClusterNode::Stamp(HttpResponse response) const {
  // A query answer already carries the epoch its data was read at.
  response.headers.emplace("x-cluster-epoch", std::to_string(epoch()));
  return response;
}

std::optional<HttpResponse> ClusterNode::MovedResponse(size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeAddress* owner = table_.OwnerOfSlot(slot);
  if (owner == nullptr || owner->id == options_.id) return std::nullopt;
  if (moved_metric_ != nullptr) moved_metric_->Increment();
  HttpResponse response = HttpResponse::Json(
      308, json::Serialize(MovedBody(slot, *owner, table_.epoch())));
  response.reason = netsvc::ReasonPhrase(308);
  return response;
}

size_t ClusterNode::FilterTombstoned(const std::set<size_t>& tombstones,
                                     QueryResponse* response) const {
  const size_t num_slots = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.num_slots();
  }();
  if (num_slots == 0) return 0;
  size_t dropped = 0;
  const auto keep = [&](const std::string& name) {
    return tombstones.count(SlotOf(name, num_slots)) == 0;
  };
  if (response->projection == earthqube::Projection::kHitsOnly) {
    std::vector<earthqube::CbirResult> hits;
    hits.reserve(response->hits.size());
    for (earthqube::CbirResult& hit : response->hits) {
      if (keep(hit.patch_name)) hits.push_back(std::move(hit));
    }
    dropped = response->hits.size() - hits.size();
    response->hits = std::move(hits);
  } else {
    const auto& entries = response->panel.entries();
    const bool aligned = response->hits.size() == entries.size();
    std::vector<earthqube::ResultEntry> kept;
    std::vector<earthqube::CbirResult> kept_hits;
    std::vector<bigearthnet::LabelSet> label_sets;
    kept.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      if (!keep(entries[i].name)) continue;
      label_sets.push_back(entries[i].labels);
      kept.push_back(entries[i]);
      if (aligned) kept_hits.push_back(response->hits[i]);
    }
    dropped = entries.size() - kept.size();
    response->panel = earthqube::ResultPanel(std::move(kept));
    if (aligned) response->hits = std::move(kept_hits);
    response->statistics =
        earthqube::LabelStatistics::FromLabelSets(label_sets);
  }
  // The dropped rows change the page math; redo the cursor the way the
  // executor's FinishPaging does.
  response->cursor.clear();
  if (response->page_size > 0 &&
      (response->page + 1) * response->page_size < response->total()) {
    response->cursor = earthqube::EncodeCursor(
        {.page = response->page + 1, .page_size = response->page_size});
  }
  return dropped;
}

HttpResponse ClusterNode::ExecuteOne(const QueryRequest& request,
                                     const std::string& trace_id) const {
  // By-name similarity subjects are slot-addressed: answering one for a
  // slot this node does not serve would silently miss the subject, so
  // redirect instead (the MOVED of the slot protocol).
  if (request.similarity.has_value() &&
      request.similarity->archive_name.has_value()) {
    size_t slot = 0;
    bool addressed_here = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (table_.num_slots() > 0) {
        slot = SlotOf(*request.similarity->archive_name, table_.num_slots());
        const NodeAddress* owner = table_.OwnerOfSlot(slot);
        addressed_here = owner != nullptr && owner->id == options_.id &&
                         tombstones_.count(slot) == 0;
      }
    }
    if (!addressed_here) {
      if (auto moved = MovedResponse(slot)) return *std::move(moved);
      return HttpResponse::Error(409, "conflict",
                                 "slot " + std::to_string(slot) +
                                     " is not served here and has no known "
                                     "owner");
    }
  }

  // A coordinator-propagated trace id makes this node's execution one
  // child of the merged cluster trace: the engine stage spans are echoed
  // back in the x-trace-spans response header.
  obs::Observability& obs = system_->obs();
  std::shared_ptr<obs::Trace> trace =
      trace_id.empty() ? nullptr : obs.StartTrace(trace_id);
  const uint64_t start_ns =
      (trace != nullptr || obs.metrics_enabled()) ? obs::NowNanos() : 0;

  // Tombstones are read BEFORE executing: a slot that migrates away
  // mid-execution is still answered here (the data stays until then,
  // and the coordinator dedups by name), whereas reading them after
  // would drop rows the new owner may not have served yet.  The answer
  // carries the epoch read with them, so a coordinator whose nodes
  // answered from different sides of a migration can tell and re-ask.
  std::set<size_t> tombstones;
  uint64_t read_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tombstones = tombstones_;
    read_epoch = table_.epoch();
  }
  // A paged panel query builds only its page's rows, but dropping
  // tombstoned rows shifts every page; with tombstones the node builds
  // the whole panel and pages it after filtering.
  const bool repage = !tombstones.empty() && !request.similarity.has_value() &&
                      request.page_size > 0;
  QueryRequest executed = request;
  if (repage) executed.page_size = 0;
  StatusOr<QueryResponse> response = [&] {
    std::shared_lock<std::shared_mutex> data_lock(data_mu_);
    return system_->Execute(executed, trace);
  }();
  if (response.ok() && repage) {
    response->page = request.page;
    response->page_size = request.page_size;
  }

  if (start_ns != 0) {
    obs::SlowQueryLog& slow_log = obs.slow_log();
    const uint64_t total_ns = obs::NowNanos() - start_ns;
    if (total_ns >= slow_log.threshold_ns() && slow_log.capacity() > 0) {
      slow_log.Observe(total_ns, trace != nullptr ? trace->id() : "",
                       "cluster /api/v2/query on node " + options_.id,
                       trace != nullptr ? trace->ToJson() : "");
    }
  }

  if (!response.ok()) return FromStatus(response.status());

  // The engine cut a k or limit answer before the tombstoned rows were
  // dropped, so the answer can hold fewer rows than asked while more
  // live ones remain; the header tells the coordinator how many rows
  // the cut kept, which is what its tie repair tests.
  const size_t dropped =
      tombstones.empty() ? 0 : FilterTombstoned(tombstones, &*response);
  HttpResponse http = HttpResponse::Json(
      200, EarthQubeService::QueryResponseToJson(*response));
  http.headers["x-cluster-epoch"] = std::to_string(read_epoch);
  if (dropped > 0) {
    const size_t kept = response->projection == earthqube::Projection::kHitsOnly
                            ? response->hits.size()
                            : response->panel.entries().size();
    http.headers["x-cluster-cut-rows"] = std::to_string(kept + dropped);
  }
  if (trace != nullptr) {
    http.headers["x-trace-id"] = trace->id();
    http.headers["x-trace-spans"] = trace->SpansToJson();
  }
  return http;
}

HttpResponse ClusterNode::HandleQuery(const HttpRequest& request) const {
  auto body = json::ParseObject(request.body.empty() ? "{}" : request.body);
  if (!body.ok()) {
    return Stamp(HttpResponse::BadRequest(body.status().message()));
  }
  if (const Value* batch = body->Get("requests"); batch != nullptr) {
    if (!batch->is_array() || batch->as_array().empty()) {
      return Stamp(
          HttpResponse::BadRequest("requests must be a non-empty array"));
    }
    if (batch->as_array().size() > EarthQubeService::kMaxBatchQueries) {
      return Stamp(HttpResponse::BadRequest(
          "batch too large: at most " +
          std::to_string(EarthQubeService::kMaxBatchQueries) +
          " requests per submission"));
    }
    std::string out = "{\"batch_size\":" +
                      std::to_string(batch->as_array().size()) +
                      ",\"responses\":[";
    bool first = true;
    for (const Value& entry : batch->as_array()) {
      if (!entry.is_document()) {
        return Stamp(
            HttpResponse::BadRequest("requests entries must be objects"));
      }
      auto parsed = EarthQubeService::QueryRequestFromJson(entry.as_document());
      if (!parsed.ok()) return Stamp(FromStatus(parsed.status()));
      HttpResponse one = ExecuteOne(*parsed);
      // Mirrors the monolithic batch contract: the first failing slot
      // (including a redirect) fails the whole submission.
      if (one.status_code != 200) return Stamp(std::move(one));
      if (!first) out += ",";
      first = false;
      out += one.body;
    }
    out += "]}";
    return Stamp(HttpResponse::Json(200, std::move(out)));
  }
  auto parsed = EarthQubeService::QueryRequestFromJson(*body);
  if (!parsed.ok()) return Stamp(FromStatus(parsed.status()));
  return Stamp(ExecuteOne(*parsed, request.Header("x-trace-id")));
}

HttpResponse ClusterNode::HandleSlots() const {
  return Stamp(HttpResponse::Json(200, json::Serialize([this] {
    std::lock_guard<std::mutex> lock(mu_);
    return table_.ToJson();
  }())));
}

HttpResponse ClusterNode::HandleMigrate(const HttpRequest& request) {
  auto body = json::ParseObject(request.body.empty() ? "{}" : request.body);
  if (!body.ok()) {
    return Stamp(HttpResponse::BadRequest(body.status().message()));
  }
  const Value* slot = body->Get("slot");
  const Value* target = body->Get("target");
  if (slot == nullptr || !slot->is_int64() || slot->as_int64() < 0 ||
      target == nullptr || !target->is_string()) {
    return Stamp(HttpResponse::BadRequest(
        "migrate needs {\"slot\": <int>, \"target\": \"<node id>\"}"));
  }
  const Status migrated = MigrateSlot(static_cast<size_t>(slot->as_int64()),
                                      target->as_string());
  if (!migrated.ok()) return Stamp(FromStatus(migrated));
  Document out;
  out.Set("migrated", Value(true));
  out.Set("slot", Value(slot->as_int64()));
  out.Set("epoch", Value(static_cast<int64_t>(epoch())));
  return Stamp(HttpResponse::Json(200, json::Serialize(out)));
}

Status ClusterNode::MigrateSlot(size_t slot, const std::string& target_id) {
  obs::ScopedTimer migration_timer(migration_ns_);
  NodeAddress target;
  uint64_t next_epoch = 0;
  size_t num_slots = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (slot >= table_.num_slots()) {
      return Status::InvalidArgument("slot out of range: " +
                                     std::to_string(slot));
    }
    const NodeAddress* owner = table_.OwnerOfSlot(slot);
    if (owner == nullptr || owner->id != options_.id ||
        tombstones_.count(slot) != 0) {
      return Status::FailedPrecondition(
          "this node does not own slot " + std::to_string(slot));
    }
    const NodeAddress* peer = table_.NodeById(target_id);
    if (peer == nullptr) {
      return Status::NotFound("unknown migration target: " + target_id);
    }
    if (peer->id == options_.id) {
      return Status::InvalidArgument("cannot migrate a slot to its owner");
    }
    if (migrating_) {
      return Status::FailedPrecondition("a migration is already running");
    }
    migrating_ = true;
    target = *peer;
    next_epoch = table_.epoch() + 1;
    num_slots = table_.num_slots();
  }
  // From here every exit must clear migrating_.
  const earthqube::CbirService* cbir = system_->cbir();
  Status result = Status::OK();
  if (cbir == nullptr) {
    result = Status::FailedPrecondition("no CBIR service attached");
  } else {
    SlotPayload payload;
    payload.slot = slot;
    payload.epoch = next_epoch;
    {
      std::shared_lock<std::shared_mutex> data_lock(data_mu_);
      for (const std::string& name : cbir->indexed_names()) {
        if (SlotOf(name, num_slots) != slot) continue;
        auto code = cbir->CodeOf(name);
        auto meta = system_->GetMetadata(name);
        if (!code.ok() || !meta.ok()) {
          result = Status::Internal("slot item lookup failed for " + name);
          break;
        }
        payload.names.push_back(name);
        payload.codes.push_back(*std::move(code));
        payload.metadata.push_back(*std::move(meta));
      }
    }
    if (result.ok()) {
      auto body = SlotPayloadToJson(payload);
      if (!body.ok()) {
        result = body.status();
      } else {
        netsvc::HttpCall call;
        call.host = target.host;
        call.port = static_cast<uint16_t>(target.port);
        call.target = "/api/v2/cluster/import";
        call.body = json::Serialize(*body);
        auto imported = peer_client_.Request(call);
        if (!imported.ok()) {
          result = imported.status();
        } else if (imported->status_code != 200) {
          result = Status::Internal("import refused by " + target.id + ": " +
                                    imported->body);
        }
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  migrating_ = false;
  if (!result.ok()) return result;
  // Commit: the target confirmed it holds the slot; flip ownership,
  // version the topology, and stop serving the local copy.
  AGORAEO_RETURN_IF_ERROR(table_.AssignSlot(slot, target.id));
  table_.set_epoch(std::max(next_epoch, table_.epoch() + 1));
  tombstones_.insert(slot);
  PublishTableLocked();
  AGORAEO_LOG(kInfo) << "cluster node " << options_.id << " migrated slot "
                     << slot << " to " << target.id << " (epoch "
                     << table_.epoch() << ")";
  return Status::OK();
}

HttpResponse ClusterNode::HandleImport(const HttpRequest& request) {
  auto body = json::ParseObject(request.body.empty() ? "{}" : request.body);
  if (!body.ok()) {
    return Stamp(HttpResponse::BadRequest(body.status().message()));
  }
  auto payload = ParseSlotPayload(*body);
  if (!payload.ok()) {
    return Stamp(HttpResponse::BadRequest(payload.status().message()));
  }
  bigearthnet::Archive archive;
  archive.patches = std::move(payload->metadata);
  const Status ingested = [&] {
    std::unique_lock<std::shared_mutex> data_lock(data_mu_);
    return system_->IngestArchiveWithCodes(archive, payload->codes);
  }();
  if (!ingested.ok()) return Stamp(FromStatus(ingested));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (table_.NodeById(options_.id) != nullptr) {
      // Adopt ownership immediately: from this moment both ends answer
      // queries for the slot (the forwarding window) until the source
      // commits its side and tombstones.
      (void)table_.AssignSlot(payload->slot, options_.id);
      table_.set_epoch(std::max(table_.epoch(), payload->epoch));
      tombstones_.erase(payload->slot);
      PublishTableLocked();
    }
  }
  Document out;
  out.Set("imported", Value(static_cast<int64_t>(payload->names.size())));
  out.Set("slot", Value(static_cast<int64_t>(payload->slot)));
  return Stamp(HttpResponse::Json(200, json::Serialize(out)));
}

HttpResponse ClusterNode::HandleIngest(const HttpRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (migrating_) {
      return HttpResponse::Error(
          503, "unavailable",
          "ingest refused: a slot migration is in progress");
    }
  }
  auto body = json::ParseObject(request.body.empty() ? "{}" : request.body);
  if (!body.ok()) {
    return Stamp(HttpResponse::BadRequest(body.status().message()));
  }
  auto payload = ParseSlotPayload(*body);
  if (!payload.ok()) {
    return Stamp(HttpResponse::BadRequest(payload.status().message()));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (table_.num_slots() > 0) {
      for (const std::string& name : payload->names) {
        const size_t slot = SlotOf(name, table_.num_slots());
        const NodeAddress* owner = table_.OwnerOfSlot(slot);
        if (owner == nullptr || owner->id != options_.id ||
            tombstones_.count(slot) != 0) {
          if (owner != nullptr && owner->id != options_.id) {
            return Stamp(HttpResponse::Json(
                308,
                json::Serialize(MovedBody(slot, *owner, table_.epoch()))));
          }
          return Stamp(HttpResponse::Error(
              409, "conflict",
              "name " + name + " routes to slot " + std::to_string(slot) +
                  ", which this node does not accept"));
        }
      }
    }
  }
  bigearthnet::Archive archive;
  archive.patches = std::move(payload->metadata);
  const Status ingested = [&] {
    std::unique_lock<std::shared_mutex> data_lock(data_mu_);
    return system_->IngestArchiveWithCodes(archive, payload->codes);
  }();
  if (!ingested.ok()) return Stamp(FromStatus(ingested));
  Document out;
  out.Set("ingested", Value(static_cast<int64_t>(payload->names.size())));
  return Stamp(HttpResponse::Json(200, json::Serialize(out)));
}

HttpResponse ClusterNode::HandleCode(const HttpRequest& request) const {
  const std::string prefix = "/api/v2/cluster/code/";
  auto name = netsvc::UrlDecode(request.path.substr(prefix.size()));
  if (!name.ok()) {
    return Stamp(HttpResponse::BadRequest(name.status().message()));
  }
  size_t slot = 0;
  bool addressed_here = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (table_.num_slots() > 0) {
      slot = SlotOf(*name, table_.num_slots());
      const NodeAddress* owner = table_.OwnerOfSlot(slot);
      addressed_here = owner != nullptr && owner->id == options_.id &&
                       tombstones_.count(slot) == 0;
    }
  }
  if (!addressed_here) {
    if (auto moved = MovedResponse(slot)) return *std::move(moved);
    return Stamp(HttpResponse::Error(
        409, "conflict",
        "slot " + std::to_string(slot) + " has no known owner"));
  }
  const earthqube::CbirService* cbir = system_->cbir();
  if (cbir == nullptr) {
    return Stamp(
        HttpResponse::Error(409, "conflict", "no CBIR service attached"));
  }
  auto code = [&] {
    std::shared_lock<std::shared_mutex> data_lock(data_mu_);
    return cbir->CodeOf(*name);
  }();
  if (!code.ok()) {
    return Stamp(HttpResponse::NotFound("no such indexed image: " + *name));
  }
  Document out;
  out.Set("name", Value(*name));
  out.Set("code", Value(code->ToBitString()));
  return Stamp(HttpResponse::Json(200, json::Serialize(out)));
}

}  // namespace agoraeo::cluster
