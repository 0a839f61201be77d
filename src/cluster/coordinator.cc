#include "cluster/coordinator.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <unordered_set>
#include <utility>

#include "earthqube/query_cache.h"
#include "earthqube/ranked_access.h"
#include "earthqube/statistics.h"
#include "json/json.h"
#include "netsvc/earthqube_service.h"
#include "netsvc/http.h"

namespace agoraeo::cluster {

using docstore::Document;
using docstore::Value;
using earthqube::QueryRequest;
using earthqube::QueryResponse;
using netsvc::EarthQubeService;
using netsvc::FromStatus;
using netsvc::HttpResponse;

namespace {

/// Unknown names (data that bypassed this coordinator) sort after every
/// routed name, deterministically by name.
constexpr uint64_t kUnknownSeq = std::numeric_limits<uint64_t>::max();

/// Parses a node's x-trace-spans header — the compact span array
/// rendered by Trace::SpansToJson (relative microseconds) — back into
/// spans for the coordinator's merged trace.
StatusOr<std::vector<obs::TraceSpan>> ParseSpansJson(const std::string& text) {
  AGORAEO_ASSIGN_OR_RETURN(const Value parsed, json::Parse(text));
  if (!parsed.is_array()) {
    return Status::InvalidArgument("x-trace-spans is not an array");
  }
  std::vector<obs::TraceSpan> spans;
  spans.reserve(parsed.as_array().size());
  for (const Value& entry : parsed.as_array()) {
    if (!entry.is_document()) continue;
    const Document& doc = entry.as_document();
    obs::TraceSpan span;
    if (const Value* name = doc.Get("name"); name != nullptr &&
        name->is_string()) {
      span.name = name->as_string();
    }
    if (const Value* start = doc.Get("start_us");
        start != nullptr && start->is_int64()) {
      span.start_ns = static_cast<uint64_t>(start->as_int64()) * 1000;
    }
    if (const Value* dur = doc.Get("dur_us");
        dur != nullptr && dur->is_int64()) {
      span.duration_ns = static_cast<uint64_t>(dur->as_int64()) * 1000;
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

/// The merged-ranking cache: default budget and shards, no TTL,
/// validated against the coordinator's result epoch.
cache::ShardedLruCacheOptions ResultCacheOptions(
    const cache::EpochValidator* epoch) {
  cache::ShardedLruCacheOptions options;
  options.validator = epoch;
  return options;
}

}  // namespace

Coordinator::Coordinator() : Coordinator(Options()) {}

Coordinator::Coordinator(Options options)
    : options_(std::move(options)),
      obs_(options_.obs),
      result_cache_(ResultCacheOptions(&result_epoch_)) {
  if (obs_.metrics_enabled()) RegisterMetrics();
  // After RegisterMetrics: the client copies options_.client_options.
  client_ = std::make_unique<netsvc::HttpClient>("127.0.0.1",
                                                 options_.client_options);
}

void Coordinator::RegisterMetrics() {
  obs::MetricsRegistry& registry = obs_.registry();
  client_metrics_.requests =
      registry.GetCounter("agoraeo_http_client_requests_total");
  client_metrics_.failures =
      registry.GetCounter("agoraeo_http_client_failures_total");
  client_metrics_.retries =
      registry.GetCounter("agoraeo_http_client_retries_total");
  client_metrics_.backoff_sleeps =
      registry.GetCounter("agoraeo_http_client_backoff_sleeps_total");
  // kNone never fails a request; start at the first real kind.
  for (int kind = 1; kind <= static_cast<int>(netsvc::HttpErrorKind::kOther);
       ++kind) {
    client_metrics_.errors_by_kind[kind] = registry.GetCounter(
        obs::LabeledName("agoraeo_http_client_errors_total", "kind",
                         netsvc::HttpErrorKindName(
                             static_cast<netsvc::HttpErrorKind>(kind))));
  }
  options_.client_options.metrics = &client_metrics_;
  fanout_ns_ = obs_.HistogramOrNull("agoraeo_cluster_fanout_ns");
  merge_ns_ = obs_.HistogramOrNull("agoraeo_cluster_merge_ns");
  epoch_gauge_ = obs_.GaugeOrNull("agoraeo_cluster_epoch");
  redirects_metric_ = obs_.CounterOrNull("agoraeo_cluster_redirects_total");
  fanout_node_failures_ =
      obs_.CounterOrNull("agoraeo_cluster_fanout_node_failures_total");
  // The result cache, read at scrape time like EarthQube's caches: a
  // cursor resumed without a fan-out shows up as a hit, an epoch bump
  // (routed ingest, topology churn) as stale_drops.  The registry is a
  // member, destroyed with this coordinator.
  registry.AddCollector([this](std::vector<obs::Sample>* out) {
    cache::AppendCacheSamples("merged_rankings", result_cache_.Stats(), out);
    obs::PushGauge(out, "agoraeo_cache_epoch",
                   static_cast<double>(result_epoch_.Current()));
  });
}

void Coordinator::AttachTable(const SlotTable& table) {
  uint64_t adopted;
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (table.epoch() >= table_.epoch()) {
      changed = table.epoch() != table_.epoch();
      table_ = table;
    }
    adopted = table_.epoch();
  }
  // A topology change re-shapes the fan-out (and a migration's
  // forwarding window re-shapes who answers), so cached rankings
  // computed under the old table stop being served as fresh.
  if (changed) result_epoch_.Bump();
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->Set(static_cast<int64_t>(adopted));
  }
}

Status Coordinator::RefreshTopology(const NodeAddress& seed) {
  netsvc::HttpCall call;
  call.host = seed.host;
  call.port = static_cast<uint16_t>(seed.port);
  call.method = "GET";
  call.target = "/api/v2/cluster/slots";
  AGORAEO_ASSIGN_OR_RETURN(const HttpResponse response,
                           client_->Request(call));
  if (response.status_code != 200) {
    return Status::Internal("slot table fetch from " + seed.id +
                            " answered " +
                            std::to_string(response.status_code));
  }
  AGORAEO_ASSIGN_OR_RETURN(const Document doc,
                           json::ParseObject(response.body));
  AGORAEO_ASSIGN_OR_RETURN(const SlotTable table, SlotTable::FromJson(doc));
  AttachTable(table);
  return Status::OK();
}

SlotTable Coordinator::table() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_;
}

uint64_t Coordinator::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_.epoch();
}

uint64_t Coordinator::ObserveEpoch(const NodeAddress& node,
                                   const HttpResponse& response) {
  const auto it = response.headers.find("x-cluster-epoch");
  if (it == response.headers.end()) return 0;
  uint64_t advertised = 0;
  try {
    advertised = std::stoull(it->second);
  } catch (...) {
    return 0;
  }
  if (advertised > epoch()) {
    // Best effort: a failed refresh leaves the stale table in place and
    // the next MOVED answer will try again.
    (void)RefreshTopology(node);
  }
  return advertised;
}

Status Coordinator::IngestArchive(const bigearthnet::Archive& archive,
                                  const std::vector<BinaryCode>& codes) {
  if (codes.size() != archive.patches.size()) {
    return Status::InvalidArgument("codes length mismatch with patches");
  }
  SlotTable snapshot = table();
  if (snapshot.num_nodes() == 0) {
    return Status::FailedPrecondition("no cluster topology attached");
  }
  // Global ingest order is assigned HERE, before any routing: the
  // sequence numbers are what later makes merged results reproduce the
  // monolithic ingest order.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& meta : archive.patches) {
      if (seq_.count(meta.name) == 0) seq_[meta.name] = next_seq_++;
    }
  }

  // One group of patch indices per owner node, archive order preserved.
  const auto route = [&](const std::vector<size_t>& items, int depth,
                         const auto& self) -> Status {
    std::vector<std::pair<NodeAddress, std::vector<size_t>>> groups;
    for (size_t i : items) {
      const NodeAddress* owner = snapshot.OwnerOfName(archive.patches[i].name);
      if (owner == nullptr) {
        return Status::FailedPrecondition(
            "no owner for " + archive.patches[i].name);
      }
      auto group = std::find_if(
          groups.begin(), groups.end(),
          [&](const auto& g) { return g.first.id == owner->id; });
      if (group == groups.end()) {
        groups.push_back({*owner, {}});
        group = groups.end() - 1;
      }
      group->second.push_back(i);
    }
    // Every owner's group ships at once, so the owners ingest in
    // parallel; each node still receives its patches in archive order.
    std::vector<netsvc::HttpCall> calls(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      const auto& [node, indices] = groups[g];
      SlotPayload payload;
      payload.slot = 0;  // routed ingest spans slots; field unused here
      payload.epoch = snapshot.epoch();
      for (size_t i : indices) {
        payload.names.push_back(archive.patches[i].name);
        payload.codes.push_back(codes[i]);
        payload.metadata.push_back(archive.patches[i]);
      }
      AGORAEO_ASSIGN_OR_RETURN(const Document body,
                               SlotPayloadToJson(payload));
      calls[g].host = node.host;
      calls[g].port = static_cast<uint16_t>(node.port);
      calls[g].target = "/api/v2/cluster/ingest";
      calls[g].body = json::Serialize(body);
    }
    std::vector<StatusOr<HttpResponse>> responses = client_->RequestAll(calls);
    for (size_t g = 0; g < groups.size(); ++g) {
      const auto& [node, indices] = groups[g];
      AGORAEO_RETURN_IF_ERROR(responses[g].status());
      const HttpResponse& response = *responses[g];
      ObserveEpoch(node, response);
      if (response.status_code == 308) {
        if (depth >= 1) {
          return Status::Internal(
              "ingest redirect loop: node " + node.id +
              " still answers MOVED after a topology refresh");
        }
        redirects_followed_.fetch_add(1, std::memory_order_relaxed);
        if (redirects_metric_ != nullptr) redirects_metric_->Increment();
        // The redirecting node holds a newer table than ours; adopt it
        // and re-route just this group once.
        AGORAEO_RETURN_IF_ERROR(RefreshTopology(node));
        snapshot = table();
        AGORAEO_RETURN_IF_ERROR(self(indices, depth + 1, self));
        continue;
      }
      if (response.status_code != 200) {
        return Status::Internal("ingest refused by " + node.id + ": " +
                                response.body);
      }
    }
    return Status::OK();
  };

  std::vector<size_t> all(archive.patches.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const Status status = route(all, 0, route);
  // Bump AFTER the node writes (even failed ones — a partial ingest
  // already changed some node's data): rankings cached mid-ingest were
  // stamped with the pre-ingest epoch and go stale on their next Get.
  result_epoch_.Bump();
  return status;
}

StatusOr<BinaryCode> Coordinator::ResolveSubjectCode(const std::string& name) {
  const SlotTable snapshot = table();
  const NodeAddress* owner = snapshot.OwnerOfName(name);
  if (owner == nullptr) {
    return Status::FailedPrecondition("no owner for subject " + name);
  }
  NodeAddress target = *owner;
  for (int attempt = 0; attempt < 2; ++attempt) {
    netsvc::HttpCall call;
    call.host = target.host;
    call.port = static_cast<uint16_t>(target.port);
    call.method = "GET";
    call.target = "/api/v2/cluster/code/" + netsvc::UrlEncode(name);
    AGORAEO_ASSIGN_OR_RETURN(const HttpResponse response,
                             client_->Request(call));
    ObserveEpoch(target, response);
    if (response.status_code == 200) {
      AGORAEO_ASSIGN_OR_RETURN(const Document doc,
                               json::ParseObject(response.body));
      const Value* code = doc.Get("code");
      if (code == nullptr || !code->is_string() || code->as_string().empty()) {
        return Status::Internal("malformed code response from " + target.id);
      }
      return BinaryCode::FromBitString(code->as_string());
    }
    if (response.status_code == 308) {
      // Follow exactly one MOVED; a second redirect means the topology
      // is churning faster than we can chase, so fail rather than loop.
      if (attempt == 1) break;
      AGORAEO_ASSIGN_OR_RETURN(const Document doc,
                               json::ParseObject(response.body));
      AGORAEO_ASSIGN_OR_RETURN(const MovedInfo moved, ParseMovedBody(doc));
      redirects_followed_.fetch_add(1, std::memory_order_relaxed);
      if (redirects_metric_ != nullptr) redirects_metric_->Increment();
      target = moved.owner;
      continue;
    }
    return netsvc::StatusFromResponse(response);
  }
  return Status::Internal("subject " + name +
                          " still MOVED after following one redirect");
}

StatusOr<QueryResponse> Coordinator::ExecuteFanout(QueryRequest request) {
  const SlotTable snapshot = table();
  if (snapshot.num_nodes() == 0) {
    return Status::FailedPrecondition("no cluster topology attached");
  }

  // One trace per fan-out; the nodes' x-trace-spans answers merge in as
  // children, so the slow-query log shows the whole cross-cluster
  // request as a single tree.
  const std::shared_ptr<obs::Trace> trace = obs_.StartTrace();
  obs::ScopedTimer fan_timer(fanout_ns_);
  const uint64_t start_ns =
      (trace != nullptr || obs_.metrics_enabled()) ? obs::NowNanos() : 0;

  const bool has_sim = request.similarity.has_value();
  const bool has_panel = request.panel.has_value();
  const size_t page = request.page;
  const size_t page_size = request.page_size;

  // The page-free fingerprint identifies the underlying global ranking;
  // its FNV hash is the handle id carried in v3 cursors — minted here
  // exactly as a monolithic node mints it, so cursors stay portable.
  QueryRequest fp_request = request;
  fp_request.page = 0;
  fp_request.page_size = 0;
  const std::optional<std::string> stream_fp =
      earthqube::QueryCache::RequestFingerprint(fp_request);
  const std::string handle_id =
      stream_fp.has_value() ? earthqube::RankedAccess::HandleIdFor(*stream_fp)
                            : std::string();
  // Epoch BEFORE any node read: an ingest racing the fan-out leaves the
  // cached ranking stale instead of serving pre-ingest rows as fresh.
  const uint64_t epoch_snapshot = result_epoch_.Current();

  // The global cap on rows (k, a similarity or panel limit) and, for a
  // windowed similarity request, the rows its page needs: the page, and
  // one more to prove a next page.  Only that many are fetched when it
  // is fewer than the cap; everything else fetches the whole capped
  // ranking.
  std::optional<size_t> cap;
  if (has_sim) {
    const earthqube::SimilaritySpec& spec = *request.similarity;
    if (spec.k.has_value()) {
      cap = *spec.k;
    } else if (spec.limit > 0) {
      cap = spec.limit;
    }
  } else if (has_panel && request.panel->limit > 0) {
    cap = request.panel->limit;
  }
  const bool windowed = has_sim && page_size > 0;
  const size_t window = (page + 1) * page_size + 1;
  // Rows of the whole capped ranking (SIZE_MAX when uncapped), and the
  // rows this request reads.
  const size_t all = cap.value_or(std::numeric_limits<size_t>::max());
  const size_t need = windowed ? std::min(window, all) : all;

  std::shared_ptr<const MergedRanking> merged;
  bool from_cache = false;
  bool deepen = false;  // a cached ranking too shallow for this page
  if (stream_fp.has_value()) {
    // Cursor resume (or any repeat page of a recent ranking): slice the
    // cached merged rows — no fan-out at all — unless this page lies
    // past the rows the first fan-out fetched, which is a miss.
    auto cached = result_cache_.GetIf(
        *stream_fp, [&](const std::shared_ptr<const MergedRanking>& ranking) {
          deepen = !ranking->Covers(need);
          return !deepen;
        });
    if (cached.has_value()) {
      merged = *std::move(cached);
      from_cache = true;
    }
  }

  const std::vector<NodeAddress> nodes = snapshot.nodes();
  if (merged == nullptr) {
  // A client paging past a bounded fetch is walking the ranking: fetch
  // the rest of it at once rather than one page deeper each time.
  const size_t depth = deepen ? all : need;
  // Rewrite for fan-out: unpaged, and capped at `depth` per node only
  // where a node's truncation is safe to repair (k-NN, and radius
  // limits of a bounded fetch); every global limit is re-applied after
  // the merge, where "first N" means something.
  std::string exclude;
  size_t per_node = 0;  // rows each node may return; 0 = all it has
  if (has_sim) {
    earthqube::SimilaritySpec& spec = *request.similarity;
    if (spec.patch.has_value()) {
      return Status::InvalidArgument(
          "uploaded-patch subjects are not routable; submit a code");
    }
    if (spec.archive_name.has_value()) {
      exclude = *spec.archive_name;
      BinaryCode code;
      {
        obs::ScopedSpan resolve_span(trace.get(), "resolve_subject");
        AGORAEO_ASSIGN_OR_RETURN(code, ResolveSubjectCode(exclude));
      }
      spec.code = std::move(code);
      spec.archive_name.reset();
    }
    // The subject occupies one rank on its owner node; ask for one
    // more so dropping it cannot starve the global top rows.
    if (spec.k.has_value() || depth < all) {
      per_node = depth + (exclude.empty() ? 0 : 1);
    }
    if (spec.k.has_value()) spec.k = per_node;
    spec.limit = spec.k.has_value() ? 0 : per_node;
  }
  if (has_panel) request.panel->limit = 0;
  request.page = 0;
  request.page_size = 0;

  // Scatter: every node holds some of the slots, so every node is
  // asked, all at once over the pooled connections.
  const auto fan_once = [&](const std::string& body, uint64_t* newest_epoch)
      -> StatusOr<std::vector<WireQueryResponse>> {
    obs::ScopedSpan fan_span(trace.get(), "fanout");
    std::vector<netsvc::HttpCall> calls(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      calls[i].host = nodes[i].host;
      calls[i].port = static_cast<uint16_t>(nodes[i].port);
      calls[i].target = "/api/v2/query";
      calls[i].body = body;
      // Propagate the trace id so each node's engine stamps its stage
      // spans under OUR trace and echoes them back in x-trace-spans.
      if (trace != nullptr) calls[i].headers["x-trace-id"] = trace->id();
    }
    std::vector<netsvc::HttpRequestDetail> details;
    std::vector<StatusOr<HttpResponse>> raw = client_->RequestAll(calls, &details);
    std::vector<WireQueryResponse> partials;
    partials.reserve(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!raw[i].ok()) {
        if (fanout_node_failures_ != nullptr) {
          fanout_node_failures_->Increment();
        }
        // The typed error kind and attempt count tell the operator
        // WHICH node failed and HOW (refused vs timed out vs garbled)
        // without re-running the query.
        return Status::Internal(
            "fan-out to node " + nodes[i].id + " failed (" +
            netsvc::HttpErrorKindName(details[i].error_kind) + " after " +
            std::to_string(details[i].attempts) + " attempt(s)): " +
            std::string(raw[i].status().message()));
      }
      const HttpResponse& response = *raw[i];
      *newest_epoch =
          std::max(*newest_epoch, ObserveEpoch(nodes[i], response));
      // A node's typed error (a full queue's 429, a bad request's 400)
      // reaches the client as the same error, not as a 500; an untyped
      // one names the node that failed.
      if (response.status_code != 200) {
        const Status status = netsvc::StatusFromResponse(response);
        if (status.code() != StatusCode::kInternal) return status;
        return Status::Internal("node " + nodes[i].id + " answered " +
                                std::string(status.message()));
      }
      if (trace != nullptr) {
        const auto spans_it = response.headers.find("x-trace-spans");
        if (spans_it != response.headers.end()) {
          auto child_spans = ParseSpansJson(spans_it->second);
          if (child_spans.ok()) {
            trace->AddChild(nodes[i].id, *std::move(child_spans));
          }
        }
      }
      AGORAEO_ASSIGN_OR_RETURN(const Document doc,
                               json::ParseObject(response.body));
      AGORAEO_ASSIGN_OR_RETURN(WireQueryResponse partial,
                               ParseQueryResponse(doc));
      partial.cut_rows = partial.results.size();
      const auto cut_it = response.headers.find("x-cluster-cut-rows");
      if (cut_it != response.headers.end()) {
        partial.cut_rows = std::max<size_t>(
            partial.cut_rows,
            std::strtoull(cut_it->second.c_str(), nullptr, 10));
      }
      partials.push_back(std::move(partial));
    }
    return partials;
  };
  // A slot migration committing mid-fan-out can leave the slot's rows
  // on neither side of the forwarding window (the new owner answered
  // before its import, the old one after its tombstone).  Some node
  // then answers from an epoch newer than the table this fan-out was
  // planned on: adopt it (ObserveEpoch) and ask every node again.
  constexpr int kFanAttempts = 3;
  const auto fan_all =
      [&](const std::string& body) -> StatusOr<std::vector<WireQueryResponse>> {
    for (int attempt = 1;; ++attempt) {
      const uint64_t planned_epoch = epoch();
      uint64_t newest_epoch = 0;
      AGORAEO_ASSIGN_OR_RETURN(std::vector<WireQueryResponse> partials,
                               fan_once(body, &newest_epoch));
      if (newest_epoch <= planned_epoch || attempt == kFanAttempts) {
        return partials;
      }
    }
  };

  // Gather: dedup by name (the migration forwarding window can answer
  // one item from two nodes), restore the global order, and keep the
  // first `depth` rows.
  struct Row {
    WireResult result;
    uint64_t seq;
  };
  std::vector<Row> rows;
  uint64_t merge_ns = 0;
  const auto merge = [&](std::vector<WireQueryResponse>& partials) {
    obs::ScopedSpan merge_span(trace.get(), "merge");
    const uint64_t merge_start = merge_ns_ != nullptr ? obs::NowNanos() : 0;
    rows.clear();
    std::unordered_set<std::string> seen;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (WireQueryResponse& partial : partials) {
        for (WireResult& result : partial.results) {
          if (!exclude.empty() && result.name == exclude) continue;
          if (!seen.insert(result.name).second) continue;
          const auto it = seq_.find(result.name);
          const uint64_t seq = it == seq_.end() ? kUnknownSeq : it->second;
          rows.push_back({std::move(result), seq});
        }
      }
    }
    std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
      if (has_sim && a.result.distance != b.result.distance) {
        return a.result.distance < b.result.distance;
      }
      if (a.seq != b.seq) return a.seq < b.seq;
      return a.result.name < b.result.name;
    });
    if (rows.size() > depth) rows.resize(depth);
    if (merge_start != 0) merge_ns += obs::NowNanos() - merge_start;
  };

  AGORAEO_ASSIGN_OR_RETURN(const Document fan_doc,
                           QueryRequestToJson(request));
  AGORAEO_ASSIGN_OR_RETURN(std::vector<WireQueryResponse> partials,
                           fan_all(json::Serialize(fan_doc)));

  // Tie repair.  A node that cuts its answer at `per_node` rows does so
  // by (distance, LOCAL id), and after a slot migration local-id order
  // no longer follows global ingest order — a tie at the global cut's
  // distance can hide an item that belongs before the cut.  Detect the
  // only case where that is possible (some node's engine cut a full
  // answer — counted before its tombstone filter shortened it — whose
  // worst returned distance reaches the merged cut's distance) and
  // re-fan as an uncapped, inclusive RADIUS search at that boundary:
  // every candidate that could make the cut comes back, and the merge
  // truncates exactly.
  std::vector<std::pair<size_t, uint32_t>> tails;  // (rows, worst distance)
  for (const WireQueryResponse& partial : partials) {
    tails.emplace_back(partial.cut_rows,
                       partial.results.empty()
                           ? 0
                           : partial.results.back().distance);
  }
  merge(partials);
  if (per_node > 0 && rows.size() == depth && depth > 0) {
    const uint32_t boundary = rows.back().result.distance;
    const bool may_hide_ties =
        std::any_of(tails.begin(), tails.end(), [&](const auto& tail) {
          return tail.first >= per_node && tail.second <= boundary;
        });
    if (may_hide_ties) {
      earthqube::SimilaritySpec& spec = *request.similarity;
      spec.k.reset();
      spec.limit = 0;
      spec.radius = boundary;
      AGORAEO_ASSIGN_OR_RETURN(const Document widened,
                               QueryRequestToJson(request));
      AGORAEO_ASSIGN_OR_RETURN(partials, fan_all(json::Serialize(widened)));
      merge(partials);
    }
  }
  if (merge_ns_ != nullptr) merge_ns_->Record(merge_ns);

  auto owned = std::make_shared<MergedRanking>();
  owned->depth = depth;
  owned->rows.reserve(rows.size());
  for (Row& row : rows) owned->rows.push_back(std::move(row.result));
  merged = std::move(owned);
  if (stream_fp.has_value()) {
    size_t bytes = 64;
    for (const WireResult& r : merged->rows) {
      bytes += 96 + r.name.size() + r.country.size() + r.date.size();
    }
    result_cache_.Put(*stream_fp, merged, bytes, epoch_snapshot);
  }
  }  // cache miss: fan-out + merge

  // Window or slice.  Similarity responses are windowed exactly like
  // the monolith's ranked direct access (the response holds ONLY the
  // requested page; the serialiser reports the lower-bound total and a
  // v3 cursor), so a cluster answer stays byte-identical to a
  // monolithic one.  Panel-only responses keep the eager shape and let
  // the serialiser slice.
  const std::vector<WireResult>& all_rows = merged->rows;
  size_t begin = 0;
  size_t end = all_rows.size();
  bool has_more = false;
  if (windowed) {
    begin = std::min(all_rows.size(), page * page_size);
    end = std::min(all_rows.size(), page * page_size + page_size);
    has_more = all_rows.size() >= page * page_size + page_size + 1;
  }

  QueryResponse out;
  out.projection = request.projection;
  out.page = page;
  out.page_size = page_size;
  out.windowed = windowed;
  out.served_from_cache = from_cache;
  if (has_sim) {
    out.hits.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      out.hits.push_back({all_rows[i].name, all_rows[i].distance});
    }
  }
  if (request.projection == earthqube::Projection::kFullPanel) {
    std::vector<earthqube::ResultEntry> entries;
    std::vector<bigearthnet::LabelSet> label_sets;
    entries.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const WireResult& row = all_rows[i];
      if (!row.has_metadata) {
        return Status::Internal("node row for " + row.name +
                                " is missing the metadata join");
      }
      earthqube::ResultEntry entry;
      entry.name = row.name;
      entry.labels = row.labels;
      entry.country = row.country;
      entry.acquisition_date = row.date;
      entry.map_location = row.location;
      label_sets.push_back(entry.labels);
      entries.push_back(std::move(entry));
    }
    out.panel = earthqube::ResultPanel(std::move(entries));
    out.statistics = earthqube::LabelStatistics::FromLabelSets(label_sets);
  }
  out.plan.strategy =
      has_sim ? (has_panel ? earthqube::QueryPlan::Strategy::kPreFilter
                           : earthqube::QueryPlan::Strategy::kCbirOnly)
              : earthqube::QueryPlan::Strategy::kPanelOnly;
  out.plan.description =
      "CLUSTER(fan-out over " + std::to_string(nodes.size()) + " nodes)";
  if (windowed) {
    if (has_more) {
      out.cursor = earthqube::EncodeCursor({page + 1, page_size, handle_id});
    }
  } else if (page_size > 0 && (page + 1) * page_size < out.total()) {
    out.cursor =
        earthqube::EncodeCursor({.page = page + 1, .page_size = page_size});
  }
  if (start_ns != 0) {
    obs::SlowQueryLog& slow_log = obs_.slow_log();
    const uint64_t total_ns = obs::NowNanos() - start_ns;
    if (total_ns >= slow_log.threshold_ns() && slow_log.capacity() > 0) {
      slow_log.Observe(total_ns, trace != nullptr ? trace->id() : "",
                       "cluster fan-out over " +
                           std::to_string(nodes.size()) + " nodes",
                       trace != nullptr ? trace->ToJson() : "");
    }
  }
  return out;
}

StatusOr<std::string> Coordinator::QuerySingle(const Document& body) {
  AGORAEO_ASSIGN_OR_RETURN(QueryRequest request,
                           EarthQubeService::QueryRequestFromJson(body));
  AGORAEO_ASSIGN_OR_RETURN(QueryResponse response,
                           ExecuteFanout(std::move(request)));
  return EarthQubeService::QueryResponseToJson(response);
}

StatusOr<std::string> Coordinator::Query(const std::string& body_json) {
  AGORAEO_ASSIGN_OR_RETURN(
      const Document body,
      json::ParseObject(body_json.empty() ? "{}" : body_json));
  const Value* batch = body.Get("requests");
  if (batch == nullptr) return QuerySingle(body);
  if (!batch->is_array() || batch->as_array().empty()) {
    return Status::InvalidArgument("requests must be a non-empty array");
  }
  if (batch->as_array().size() > EarthQubeService::kMaxBatchQueries) {
    return Status::InvalidArgument(
        "batch too large: at most " +
        std::to_string(EarthQubeService::kMaxBatchQueries) +
        " requests per submission");
  }
  std::string out = "{\"batch_size\":" +
                    std::to_string(batch->as_array().size()) +
                    ",\"responses\":[";
  bool first = true;
  for (const Value& entry : batch->as_array()) {
    if (!entry.is_document()) {
      return Status::InvalidArgument("requests entries must be objects");
    }
    AGORAEO_ASSIGN_OR_RETURN(const std::string one,
                             QuerySingle(entry.as_document()));
    if (!first) out += ",";
    first = false;
    out += one;
  }
  out += "]}";
  return out;
}

void Coordinator::RegisterRoutes(netsvc::HttpServer* server) {
  server->AttachObservability(&obs_);
  server->Route("GET", "/health", [](const netsvc::HttpRequest&) {
    return HttpResponse::Json(200, "{\"status\":\"ok\"}");
  });
  server->Route("GET", "/metrics", [this](const netsvc::HttpRequest&) {
    return HttpResponse::Text(200, obs_.registry().PrometheusText());
  });
  server->Route("GET", "/api/v2/metrics", [this](const netsvc::HttpRequest&) {
    return HttpResponse::Json(200, obs_.registry().JsonText());
  });
  server->Route("GET", "/api/v2/debug/slow_queries",
                [this](const netsvc::HttpRequest&) {
                  return HttpResponse::Json(200, obs_.slow_log().ToJson());
                });
  server->Route("POST", "/api/v2/query",
                [this](const netsvc::HttpRequest& request) {
                  auto response = Query(request.body);
                  if (!response.ok()) return FromStatus(response.status());
                  return HttpResponse::Json(200, *std::move(response));
                });
  server->Route("GET", "/api/v2/cluster/slots",
                [this](const netsvc::HttpRequest&) {
                  return HttpResponse::Json(200,
                                            json::Serialize(table().ToJson()));
                });
}

}  // namespace agoraeo::cluster
