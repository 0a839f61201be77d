#ifndef AGORAEO_EARTHQUBE_EARTHQUBE_H_
#define AGORAEO_EARTHQUBE_EARTHQUBE_H_

#include <memory>
#include <string>
#include <vector>

#include <functional>

#include "bigearthnet/archive_generator.h"
#include "docstore/database.h"
#include "earthqube/cbir_service.h"
#include "earthqube/exec/exec_config.h"
#include "earthqube/query.h"
#include "earthqube/query_cache.h"
#include "earthqube/query_request.h"
#include "earthqube/ranked_access.h"
#include "earthqube/result_panel.h"
#include "earthqube/schema.h"
#include "earthqube/statistics.h"
#include "obs/observability.h"

namespace agoraeo::earthqube {

class ExecutionEngine;

/// Back-end configuration.
struct EarthQubeConfig {
  LabelEncoding label_encoding = LabelEncoding::kAsciiCompressed;
  /// Geohash precision of the metadata location index (5 chars ~ 4.9 km
  /// cells, matching the ~1.2 km patches and typical query extents).
  int geo_index_precision = 5;
  /// Whether to build the metadata indexes (name PK, labels multikey,
  /// labels_key hash, location geo).  Disabled only by the index-ablation
  /// benchmarks.
  bool build_indexes = true;
  /// Hybrid planner: estimated filter selectivities at or below this
  /// run pre-filter (filter -> candidate set -> restricted Hamming
  /// search); above it, post-filter (Hamming search -> metadata join ->
  /// filter).  bench_hybrid_query measures the crossover at ~2-8%
  /// selectivity (lower at larger archive sizes); 5% centres it.
  double prefilter_selectivity_threshold = 0.05;
  /// Query-cache subsystem: response cache (hot CBIR/hybrid requests)
  /// and allowlist cache (hot pre-filter panel filters), both epoch-
  /// invalidated by archive mutations.  See QueryCacheConfig.
  QueryCacheConfig cache;
  /// Staged execution engine: admission queue, cross-request miss
  /// coalescing (singleflight) and micro-batching of distinct in-flight
  /// misses.  See ExecConfig; disabling it restores the synchronous
  /// per-caller execution path.
  ExecConfig exec;
  /// Observability: the per-system metrics registry, request tracing
  /// and slow-query log.  See ObsConfig; disabling metrics/tracing
  /// makes every record site a dead branch.
  obs::ObsConfig obs;
  /// Ranked direct access: paged similarity requests stream hits
  /// lazily from the shard frontiers and pin the merged stream in a
  /// bounded handle table, so page N resumes in O(page_size log shards)
  /// instead of re-executing the whole ranking.  See RankedAccessConfig.
  RankedAccessConfig ranked;
};

/// A search response: the result panel model, the label-statistics view,
/// and the executed plan's statistics.  For similarity searches the
/// panel is ordered by ascending Hamming distance; for panel queries by
/// DocId (ingestion) order.
struct SearchResponse {
  ResultPanel panel;
  LabelStatistics statistics;
  docstore::QueryStats query_stats;
};

/// The EarthQube back-end server (paper Section 3.2): validates and
/// processes user queries against the MongoDB-like data tier, and
/// provides CBIR through the integrated MiLaN service.
class EarthQube {
 public:
  explicit EarthQube(EarthQubeConfig config = {});
  ~EarthQube();

  /// Loads an archive's metadata into the metadata collection and builds
  /// the configured indexes.
  Status IngestArchive(const bigearthnet::Archive& archive);

  /// Cluster-tier ingest: metadata plus PRECOMPUTED binary codes
  /// (codes[i] belongs to archive.patches[i]) — no model inference on
  /// this node.  Metadata lands in the collection, codes in the
  /// attached CBIR service (WAL-logged), and the cache epoch bumps
  /// once.  FailedPrecondition without an attached CBIR service.
  Status IngestArchiveWithCodes(const bigearthnet::Archive& archive,
                                const std::vector<BinaryCode>& codes);

  /// Attaches a CBIR service (trained MiLaN model + Hamming index) built
  /// by the caller; enables the similarity-search endpoints.
  void AttachCbir(std::unique_ptr<CbirService> cbir);

  /// The boot path of a durable CBIR service: runs the service's
  /// Recover() (snapshot restore + WAL catch-up), then attaches it.
  /// The cache epoch bumps exactly once — inside AttachCbir — however
  /// many items recovery restored; recovery failures leave the current
  /// service (if any) attached and untouched.
  Status RecoverAndAttachCbir(std::unique_ptr<CbirService> cbir);

  // --- unified query execution (API v2) -----------------------------------

  /// Executes one unified request — panel-only, CBIR-only, or hybrid
  /// (filter ∧ similarity).  Hybrid requests go through a small planner:
  /// when the metadata filter's estimated selectivity is at or below
  /// config().prefilter_selectivity_threshold the executor pre-filters
  /// (docstore filter -> candidate set -> restricted Hamming search);
  /// otherwise it post-filters (Hamming search -> metadata join ->
  /// filter).  Both strategies return identical result sets; the choice
  /// is reported in QueryResponse::plan.  Every other query entry point
  /// of this facade is a shim over this method.
  ///
  /// With the execution engine enabled (config().exec.enable, the
  /// default) this is a thin shim over engine Submit(...).Get():
  /// concurrent identical requests coalesce onto one execution and
  /// distinct in-flight misses may share one batched index pass.
  StatusOr<QueryResponse> Execute(const QueryRequest& request) const;

  /// Traced flavour of Execute: the engine stamps its stage spans
  /// (admit, cache probe, queue wait, batch wait, index pass,
  /// materialize) onto `trace`.  Null trace is exactly Execute.
  StatusOr<QueryResponse> Execute(const QueryRequest& request,
                                  std::shared_ptr<obs::Trace> trace) const;

  /// Asynchronous flavour of Execute: `done` is invoked exactly once
  /// with the response — on an engine worker thread, or inline when the
  /// request completes at admission (validation error, cache hit) or
  /// the engine is disabled.  The deferred netsvc pipeline parks
  /// requests on this instead of occupying an HTTP worker per in-flight
  /// query.
  void ExecuteAsync(
      const QueryRequest& request,
      std::function<void(const StatusOr<QueryResponse>&)> done) const;

  /// Traced flavour of ExecuteAsync.
  void ExecuteAsync(
      const QueryRequest& request, std::shared_ptr<obs::Trace> trace,
      std::function<void(const StatusOr<QueryResponse>&)> done) const;

  /// Executes a request batch: slot i holds what Execute(requests[i])
  /// would return.  The whole batch is admitted to the engine under one
  /// gate, so identical requests execute once (singleflight fan-out)
  /// and homogeneous CBIR shapes (the /cbir/batch_search pattern) fuse
  /// into micro-batched index passes.
  StatusOr<std::vector<QueryResponse>> ExecuteBatch(
      const std::vector<QueryRequest>& requests) const;

  // --- query panel (v1 shims over Execute) ---------------------------------

  /// Executes a query-panel submission.
  StatusOr<SearchResponse> Search(const EarthQubeQuery& query) const;

  /// Count without materialising results.
  size_t CountMatches(const EarthQubeQuery& query) const;

  // --- similarity search (Section 3.3) ------------------------------------

  /// Query-by-archive-image: retrieves all images within `radius` of the
  /// named image's code; the response panel is ordered by distance.
  StatusOr<SearchResponse> SimilarToArchiveImage(const std::string& name,
                                                 uint32_t radius,
                                                 size_t max_results = 0) const;

  /// k-NN flavour of the above.
  StatusOr<SearchResponse> NearestToArchiveImage(const std::string& name,
                                                 size_t k) const;

  /// Query-by-new-example: an uploaded patch is featurised and hashed on
  /// the fly.
  StatusOr<SearchResponse> SimilarToUploadedImage(
      const bigearthnet::Patch& patch, uint32_t radius,
      size_t max_results = 0) const;

  /// Batch query-by-archive-image: slot i holds what
  /// SimilarToArchiveImage(names[i], ...) would return as raw CBIR hits
  /// (name + Hamming distance, no metadata join — the batch path is the
  /// high-throughput interface).  The index lookups run as one sharded
  /// batch across the CBIR service's query pool.
  StatusOr<std::vector<std::vector<CbirResult>>> BatchSimilarToArchiveImages(
      const std::vector<std::string>& names, uint32_t radius,
      size_t max_results = 0) const;

  /// k-NN flavour of BatchSimilarToArchiveImages.
  StatusOr<std::vector<std::vector<CbirResult>>> BatchNearestToArchiveImages(
      const std::vector<std::string>& names, size_t k) const;

  // --- image payloads ------------------------------------------------------

  /// Stores a patch's raster stack in the image-data collection (unique
  /// by patch name).
  Status StorePatchPixels(const bigearthnet::Patch& patch);

  /// Loads a raster stack back.
  StatusOr<bigearthnet::Patch> LoadPatchPixels(const std::string& name) const;

  /// Renders and stores the RGB preview for a patch (rendered-images
  /// collection).
  Status StoreRenderedImage(const bigearthnet::Patch& patch);

  /// Returns the stored RGB payload (interleaved, 3 bytes per pixel).
  StatusOr<std::vector<uint8_t>> GetRenderedImage(
      const std::string& name) const;

  // --- downloads -----------------------------------------------------------

  /// Builds the download payload for a set of images (the result panel's
  /// "download as zip" button and the cart's combined download): one
  /// folder per image containing metadata.json, plus bands.bin and
  /// preview.rgb when the corresponding payloads are stored, plus a
  /// top-level manifest.txt.  NotFound when any name is unknown.
  StatusOr<std::vector<uint8_t>> ExportAsZip(
      const std::vector<std::string>& names) const;

  // --- feedback ------------------------------------------------------------

  /// Stores anonymous user feedback text.
  Status SubmitFeedback(const std::string& text);
  size_t NumFeedbackEntries() const;

  // --- metadata access -----------------------------------------------------

  /// Metadata of one archive image by patch name.
  StatusOr<bigearthnet::PatchMetadata> GetMetadata(
      const std::string& name) const;

  docstore::Database& database() { return db_; }
  const docstore::Database& database() const { return db_; }
  CbirService* cbir() { return cbir_.get(); }
  const CbirService* cbir() const { return cbir_.get(); }
  const EarthQubeConfig& config() const { return config_; }
  /// The query-cache subsystem (stats endpoint, tests, manual
  /// invalidation).  Mutations made through this facade bump its epoch
  /// automatically; callers mutating the CBIR service directly via
  /// cbir() must call query_cache().Invalidate() themselves.
  QueryCache& query_cache() const { return query_cache_; }
  /// The staged execution engine (stats endpoint, tests, benches);
  /// null when config().exec.enable is false.
  ExecutionEngine* exec_engine() const { return engine_.get(); }
  /// The ranked direct-access handle table (stats endpoint, tests);
  /// null when config().ranked.enable is false.
  RankedAccess* ranked_access() const { return ranked_.get(); }
  /// The observability bundle: metrics registry, tracing switch and
  /// slow-query log (the /metrics and debug endpoints read it; const
  /// query paths record into it).
  obs::Observability& obs() const { return obs_; }
  size_t num_images() const;

 private:
  friend class ExecutionEngine;

  StatusOr<ResultEntry> EntryFromDocument(const docstore::Document& doc) const;

  /// Registers the scrape-time collectors that export the existing
  /// stats structs (caches, engine, index, persistence) into obs_'s
  /// registry — one counting truth, sampled on demand.
  void RegisterCollectors();

  /// Stage-1 admission checks shared by the synchronous path and the
  /// engine: request validation plus the CBIR-attached precondition.
  Status PreflightCheck(const QueryRequest& request) const;

  /// Probes the response and negative caches for a fingerprintable
  /// similarity request.  Returns the replayed response (flagged
  /// served_from_cache), the cached NotFound, or nullopt on miss.
  std::optional<StatusOr<QueryResponse>> ProbeCaches(
      const QueryRequest& request,
      const std::optional<std::string>& fingerprint) const;

  /// One uncached execution bracketed by cache bookkeeping: the epoch
  /// is snapshotted before the reads, successful similarity responses
  /// are Put, and NotFound similarity subjects are negative-cached.
  /// `response_cached` (optional) reports whether the response-cache Put
  /// was admitted — the engine's flight pre-warm counter reads it.
  StatusOr<QueryResponse> ExecuteAndCache(
      const QueryRequest& request,
      const std::optional<std::string>& fingerprint,
      bool* response_cached = nullptr) const;

  /// The engine-off Execute body: preflight -> cache probe ->
  /// ExecuteAndCache, all on the caller's thread.
  StatusOr<QueryResponse> ExecuteSync(const QueryRequest& request) const;

  /// Cache-put halves of ExecuteAndCache, exposed to the engine's
  /// micro-batch path (which snapshots one epoch per shared pass).
  /// CacheResponse returns whether the response cache admitted the
  /// entry (the flight pre-warm signal).
  bool CacheResponse(const QueryRequest& request,
                     const std::optional<std::string>& fingerprint,
                     const QueryResponse& response,
                     uint64_t epoch_snapshot) const;
  void MaybeCacheNegative(const QueryRequest& request,
                          const std::optional<std::string>& fingerprint,
                          const Status& status, uint64_t epoch_snapshot) const;

  /// Execute minus the response-cache layer.
  StatusOr<QueryResponse> ExecuteUncached(const QueryRequest& request) const;

  StatusOr<QueryResponse> ExecutePanelOnly(const QueryRequest& request) const;

  // --- similarity execution: one path for CBIR-only and hybrid requests,
  // --- single or micro-batched, paged or not -------------------------------

  /// The hybrid planner's decision for one request.
  struct HybridPlanInfo {
    QueryPlan::Strategy strategy = QueryPlan::Strategy::kPostFilter;
    double selectivity = 1.0;
    size_t estimated = 0;
  };
  HybridPlanInfo PlanHybrid(const QueryRequest& request,
                            const docstore::Filter& filter) const;

  /// Returns the pre-filter candidate allowlist for a panel filter,
  /// from the allowlist cache when warm, otherwise via a docstore
  /// filter pass (cached afterwards).
  StatusOr<std::shared_ptr<const CachedAllowlist>> ObtainAllowlist(
      const EarthQubeQuery& panel, const docstore::Filter& filter) const;

  /// Everything a similarity response is built from besides its
  /// ranking, fixed per request shape (mode, panel filter, planner):
  /// the response skeleton with the plan description and base stats,
  /// how survivors come out of the ranked stream, and the pre-filter
  /// allowlist the stream is restricted to.
  struct SimilarityPlan {
    QueryResponse skeleton;
    RankedHandle::Kind kind = RankedHandle::Kind::kPlain;
    docstore::Filter filter = docstore::Filter::True();
    std::shared_ptr<const index::CandidateSet> allowed;
  };
  StatusOr<SimilarityPlan> PlanSimilarity(const QueryRequest& request) const;

  /// Executes similarity requests that share one plan — the engine's
  /// micro-batch key guarantees it; a lone request is a batch of one.
  /// Resolves every subject (a bad archive name fails only its own
  /// slot), plans once, gives requests whose page-free fingerprints
  /// are equal one shared ranked handle (resuming a live one for paged
  /// requests), opens every missing ranking in one batched open, and
  /// builds every response with RespondSimilarity, spread across the
  /// CBIR query pool.  Slot i is requests[i]'s outcome.
  /// `epoch_snapshot` is the cache epoch observed before any read.
  std::vector<StatusOr<QueryResponse>> ExecuteSimilarity(
      const std::vector<const QueryRequest*>& requests,
      uint64_t epoch_snapshot) const;

  /// The one similarity response builder: pulls `handle` until the
  /// request's window is buffered, slices it, joins metadata for the
  /// full-panel projection and mints the cursor.  A paged request
  /// (with ranked access on) gets the window [page·size, page·size +
  /// size) and a v3 cursor on the handle; an unpaged one gets the
  /// window [0, cap) and no handle cursor.
  StatusOr<QueryResponse> RespondSimilarity(
      const QueryRequest& request, const SimilarityPlan& plan,
      const std::shared_ptr<RankedHandle>& handle) const;

  /// Whether a request is served as a window of a pinned ranking:
  /// paging on and the ranked-access layer enabled.
  bool Windowed(const QueryRequest& request) const;

  /// Pulls the handle's stream until `need` survivors are buffered (or
  /// the stream/cap is exhausted).  Caller holds the handle's mutex.
  Status ExtendHandle(RankedHandle* handle, size_t need) const;

  /// Resolves a similarity spec's subject to (code, exclude_name).
  StatusOr<BinaryCode> ResolveSimilarityCode(const SimilaritySpec& spec,
                                             std::string* exclude_name) const;

  /// Joins CBIR hits against the metadata collection into a full-panel
  /// response body (entries in hit order + label statistics).
  Status JoinHits(const std::vector<CbirResult>& hits,
                  QueryResponse* response) const;

  /// Fills paging bookkeeping (page, page_size, continuation cursor).
  static void FinishPaging(const QueryRequest& request,
                           QueryResponse* response);

  EarthQubeConfig config_;
  /// Declared before every instrumented member: caches, index, engine
  /// and server all record into it, so it must outlive them.  Recording
  /// is not observable query state, so const paths may write it.
  mutable obs::Observability obs_;
  /// Caching is not observable query state, so const query paths may
  /// populate it.
  mutable QueryCache query_cache_;
  docstore::Database db_;
  docstore::Collection* metadata_;
  docstore::Collection* image_data_;
  docstore::Collection* rendered_;
  docstore::Collection* feedback_;
  std::unique_ptr<CbirService> cbir_;
  /// Handle-table population happens on const query paths (it is cached
  /// execution state, not observable results).  Declared after cbir_:
  /// its streams borrow the CBIR service's name map.
  mutable std::unique_ptr<RankedAccess> ranked_;
  /// Resume-path latency (extend + window materialisation), recorded
  /// under the engine's stage histogram family.
  obs::Histogram* stage_ranked_resume_ = nullptr;
  /// Declared last: the engine's workers reference every member above,
  /// so it must be destroyed (drained and joined) first.
  std::unique_ptr<ExecutionEngine> engine_;
};

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_EARTHQUBE_H_
