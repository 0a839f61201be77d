#ifndef AGORAEO_NETSVC_EARTHQUBE_SERVICE_H_
#define AGORAEO_NETSVC_EARTHQUBE_SERVICE_H_

#include <string>

#include "common/status.h"
#include "earthqube/earthqube.h"
#include "netsvc/server.h"

namespace agoraeo::netsvc {

/// Maps a facade error onto the shared JSON error envelope by status
/// code — the one status→HTTP switch of the monolith, cluster nodes and
/// the coordinator: NotFound 404, CursorExpired 410 `cursor_expired`
/// (so paging clients can tell "restart from page 0" apart from "fix
/// your request"), InvalidArgument 400, FailedPrecondition 409
/// `conflict`, Overloaded 429 `overloaded` with `Retry-After: 1`,
/// anything else 500.
HttpResponse FromStatus(const Status& status);

/// The inverse of FromStatus, for a service reading a peer's error
/// answer (the coordinator fanning out to cluster nodes): 400, 404,
/// 409, 410 and 429 map back onto their status codes, anything else is
/// Internal.  The message is the {"error": {"code", "message"}}
/// envelope's, or the raw body when there is no envelope.
Status StatusFromResponse(const HttpResponse& response);

/// The HTTP face of the EarthQube back end — the middle tier of the
/// paper's three-tier architecture.  Registers JSON endpoints on an
/// HttpServer and translates between the wire format and the EarthQube
/// facade:
///
///   GET  /health                         liveness probe
///   POST /api/v2/query                   unified query API (see below)
///   GET  /metrics                        Prometheus text exposition:
///                                        cache, engine, index, WAL
///                                        and route state
///   GET  /api/v2/metrics                 same registry as JSON
///   GET  /api/v2/debug/slow_queries      slow-query ring, worst first
///   POST /api/v2/index/snapshot          checkpoint a durable index
///   POST /api/download                   zip export of named images
///   POST /api/feedback                   anonymous feedback text
///   GET  /api/feedback/count
///   GET  /api/patch/<name>               one image's metadata
///
/// /api/v2/query is the one query route.  It is registered as a
/// deferred (async) handler: the HTTP worker parses the request,
/// submits it to EarthQube's execution engine via ExecuteAsync /
/// ExecuteBatchAsync, and returns immediately; an engine worker
/// completes the parked connection when the (possibly coalesced or
/// micro-batched) execution finishes.  Non-query routes stay
/// synchronous.
///
/// /api/v2/query request body — one schema covers panel-only,
/// CBIR-only, hybrid (panel ∧ similarity) and batch submissions:
///   {
///     "panel": {            // optional metadata restrictions
///       "geo": {"rect": {...}} | {"circle": {...}} | {"polygon": [...]},
///       "date_range": {"begin": "YYYY-MM-DD", "end": "YYYY-MM-DD"},
///       "satellites": ["S2A","S2B"],
///       "seasons": ["Summer","Autumn"],
///       "labels": {"operator": "some"|"exactly"|"at_least_and_more",
///                  "names": [...]},
///       "limit": 100
///     },
///     "similarity": {       // optional similarity restriction
///       "name": "<archive image>" | "code": "<'0'/'1' bit string>",
///       "radius": 8 | "k": 20,   // both together -> 400 (default radius 8)
///       "limit": 50
///     },
///     "projection": "full" | "hits",        // default "full"
///     "planner": "auto" | "pre_filter" | "post_filter",  // default auto
///     "page": 0, "page_size": 50,
///     "cursor": "<continuation token>"      // overrides page/page_size
///   }
/// Continuation cursors come in two flavours: v2 tokens carry only
/// (page, page_size); v3 tokens additionally name the server-side
/// ranked-access handle pinning the merged shard-frontier state, so
/// resuming page N costs one incremental pull instead of a
/// re-execution of pages 0..N-1.  Both decode transparently; a handle
/// that has expired, been evicted, or straddles an ingest epoch bump
/// silently falls back to re-execution — resumes never fail, they just
/// lose the shortcut.  A cursor that cannot be DECODED (bad base64,
/// unknown version, mangled fields) is answered with 410 and error
/// code "cursor_expired" so paging clients know to restart from page 0
/// rather than "fix" the request.
/// Batch flavour: {"requests": [<single bodies>, ...]} (at most
/// kMaxBatchQueries).
///
/// /api/v2/query response (similarity responses are windowed: results
/// hold exactly the requested page, "total" is the lower bound
/// page*page_size + |results| (+1 when a cursor promises more), and
/// label_statistics cover the window):
///   {"total": N, "page": 0, "page_size": 50, "cursor": "<token>"|"",
///    "served_from_cache": false,
///    "plan": {"strategy": "panel_only"|"cbir_only"|"pre_filter"|
///             "post_filter", "description": "...", "selectivity": 0.03,
///             "estimated_matches": 123},
///    "results": [{"name",...,"distance"?}, ...],
///    "label_statistics": [{"label","count","color"}, ...]}
/// Hits-only projection drops the metadata join: results are
/// [{"name","distance"}, ...] and label_statistics is omitted.  Batch
/// responses: {"batch_size": N, "responses": [<single responses>]}.
///
/// Every endpoint answers errors with the shared JSON envelope
/// {"error": {"code": "...", "message": "..."}} (HttpResponse::Error),
/// classified by FromStatus.
class EarthQubeService {
 public:
  /// `system` must outlive the service and the server.
  explicit EarthQubeService(earthqube::EarthQube* system) : system_(system) {}

  /// Registers every endpoint on `server` (call before server->Start()).
  /// A cluster node passes `include_query_route = false` and registers
  /// its own /api/v2/query handler (slot guard + migration filtering)
  /// in front of the same execution path.
  void RegisterRoutes(HttpServer* server, bool include_query_route = true);

  /// Largest accepted /api/v2/query batch.
  static constexpr size_t kMaxBatchQueries = 1024;

  /// Translates a /api/v2/query "panel" object into a query-panel
  /// submission (exposed for tests).
  static StatusOr<earthqube::EarthQubeQuery> QueryFromJson(
      const docstore::Document& body);

  /// Translates a /api/v2/query body into a unified request (exposed
  /// for tests).  Parser-level and semantic validation errors both
  /// surface as InvalidArgument, an undecodable cursor as CursorExpired.
  static StatusOr<earthqube::QueryRequest> QueryRequestFromJson(
      const docstore::Document& body);

  /// Serialises a v2 response (exposed for tests).
  static std::string QueryResponseToJson(
      const earthqube::QueryResponse& response);

 private:
  void HandleQueryV2(const HttpRequest& request,
                     HttpServer::Responder responder) const;
  HttpResponse HandleIndexSnapshot();
  HttpResponse HandleFeedback(const HttpRequest& request);
  HttpResponse HandleDownload(const HttpRequest& request) const;
  HttpResponse HandlePatchMetadata(const HttpRequest& request) const;

  earthqube::EarthQube* system_;
};

}  // namespace agoraeo::netsvc

#endif  // AGORAEO_NETSVC_EARTHQUBE_SERVICE_H_
