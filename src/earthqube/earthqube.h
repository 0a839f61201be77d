#ifndef AGORAEO_EARTHQUBE_EARTHQUBE_H_
#define AGORAEO_EARTHQUBE_EARTHQUBE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

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
  /// and allowlist cache (one match set per hot panel filter, shared by
  /// panels and pre-filter hybrids), both epoch-invalidated by archive
  /// mutations.  See QueryCacheConfig.
  QueryCacheConfig cache;
  /// Staged execution engine, the only executor: admission queue,
  /// cross-request miss coalescing (singleflight) and micro-batching of
  /// distinct in-flight misses.  See ExecConfig.
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

  // --- query execution -----------------------------------------------------

  /// Completion callbacks of the asynchronous entry points; each is
  /// invoked exactly once.
  using Callback = std::function<void(StatusOr<QueryResponse>)>;
  using BatchCallback =
      std::function<void(StatusOr<std::vector<QueryResponse>>)>;

  /// Executes one request — panel-only, CBIR-only, or hybrid (filter ∧
  /// similarity) — on the execution engine: `done` receives the
  /// response on an engine worker, or inline when the request completes
  /// at admission (validation error, cache hit, full queue).  Hybrid
  /// requests go through a small planner: when the metadata filter's
  /// estimated selectivity is at or below
  /// config().prefilter_selectivity_threshold the executor pre-filters
  /// (docstore filter -> candidate set -> restricted Hamming search);
  /// otherwise it post-filters (Hamming search -> metadata join ->
  /// filter).  Both strategies return identical result sets; the choice
  /// is reported in QueryResponse::plan.  Concurrent identical requests
  /// coalesce onto one execution and distinct in-flight misses may
  /// share one batched index pass.  `trace` (optional) collects the
  /// engine's stage spans.  The deferred netsvc pipeline parks requests
  /// on this instead of occupying an HTTP worker per in-flight query.
  void ExecuteAsync(const QueryRequest& request, Callback done,
                    std::shared_ptr<obs::Trace> trace = nullptr) const;

  /// Blocking flavour of ExecuteAsync.  Must not be called from an
  /// engine completion callback.
  StatusOr<QueryResponse> Execute(
      const QueryRequest& request,
      std::shared_ptr<obs::Trace> trace = nullptr) const;

  /// Executes a request batch: on success slot i holds what
  /// Execute(requests[i]) would return; otherwise the first failing
  /// slot's status.  The whole batch is admitted under one engine
  /// pause, so identical requests execute once (singleflight fan-out)
  /// and compatible CBIR shapes (a /api/v2/query batch of similarity
  /// requests) fuse into micro-batched index passes.  The last slot to
  /// complete invokes `done`.
  void ExecuteBatchAsync(const std::vector<QueryRequest>& requests,
                         BatchCallback done) const;

  /// Blocking flavour of ExecuteBatchAsync.
  StatusOr<std::vector<QueryResponse>> ExecuteBatch(
      const std::vector<QueryRequest>& requests) const;

  /// Count of panel matches without materialising results.
  size_t CountMatches(const EarthQubeQuery& query) const;

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

  /// Mutating the metadata collection through this bypasses the cache
  /// epoch: such callers must call query_cache().Invalidate() too.
  docstore::Database& database() { return db_; }
  const docstore::Database& database() const { return db_; }
  CbirService* cbir() { return cbir_.get(); }
  const CbirService* cbir() const { return cbir_.get(); }
  const EarthQubeConfig& config() const { return config_; }
  /// The query-cache subsystem (metrics collectors, tests, manual
  /// invalidation).  Mutations made through this facade bump its epoch
  /// automatically; callers mutating the CBIR service directly via
  /// cbir() must call query_cache().Invalidate() themselves.
  QueryCache& query_cache() const { return query_cache_; }
  /// The staged execution engine (metrics collectors, tests, benches).
  ExecutionEngine& exec_engine() const { return *engine_; }
  /// The ranked direct-access handle table (metrics collectors, tests).
  RankedAccess& ranked_access() const { return ranked_; }
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

  /// The engine's stage-1 admission checks: request validation plus
  /// the CBIR-attached precondition.
  Status PreflightCheck(const QueryRequest& request) const;

  /// Probes the response and negative caches for a fingerprintable
  /// similarity request.  Returns the replayed response (flagged
  /// served_from_cache), the cached NotFound, or nullopt on miss.
  std::optional<StatusOr<QueryResponse>> ProbeCaches(
      const QueryRequest& request,
      const std::optional<std::string>& fingerprint) const;

  /// Cache puts of the engine's group executor (which snapshots one
  /// epoch per shared pass).  Successful similarity responses are Put;
  /// NotFound similarity subjects are negative-cached.  CacheResponse
  /// returns whether the response cache admitted the entry (the flight
  /// pre-warm signal).
  bool CacheResponse(const QueryRequest& request,
                     const std::optional<std::string>& fingerprint,
                     const QueryResponse& response,
                     uint64_t epoch_snapshot) const;
  void MaybeCacheNegative(const QueryRequest& request,
                          const std::optional<std::string>& fingerprint,
                          const Status& status, uint64_t epoch_snapshot) const;

  /// A panel query: the filter's match set (one planner pass on a cache
  /// miss), label statistics over every match, and result rows for the
  /// requested page only (every match when `page_size` is 0).  A warm
  /// match set makes a repeated panel cost one page of rows.
  StatusOr<QueryResponse> ExecutePanelOnly(const QueryRequest& request) const;

  /// The metadata filter of a panel query.
  docstore::Filter PanelFilter(const EarthQubeQuery& panel) const;

  /// The match set of `panel`'s filter, limited to `panel.limit` when
  /// `apply_limit` (a limited set keys its own entry), from the allowlist
  /// cache when warm, otherwise from one filter pass that is cached
  /// afterwards.  After a fresh pass `docs` holds the matched documents,
  /// aligned with the ids; after a hit it is left empty.
  std::shared_ptr<const FilterMatchSet> ObtainMatchSet(
      const EarthQubeQuery& panel, bool apply_limit,
      std::vector<const docstore::Document*>* docs) const;

  /// The document of `matches.ids[i]`: `docs[i]` after a fresh pass,
  /// else a lookup by id.  Corruption when the id resolves to nothing.
  StatusOr<const docstore::Document*> MatchDocument(
      const FilterMatchSet& matches,
      const std::vector<const docstore::Document*>& docs, size_t i) const;

  /// A match set's label counts and Hamming-index allowlist, derived
  /// from its ids (or the fresh pass's `docs`) on first demand and kept
  /// in the set.
  StatusOr<const LabelStatistics::LabelCounts*> MatchLabelCounts(
      const FilterMatchSet& matches,
      const std::vector<const docstore::Document*>& docs) const;
  StatusOr<const index::CandidateSet*> MatchCandidates(
      const FilterMatchSet& matches,
      const std::vector<const docstore::Document*>& docs) const;

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
  /// full-panel projection and mints the cursor.  A paged request gets
  /// the window [page·size, page·size + size) and a v3 cursor on the
  /// handle; an unpaged one gets the window [0, cap) and no handle
  /// cursor.
  StatusOr<QueryResponse> RespondSimilarity(
      const QueryRequest& request, const SimilarityPlan& plan,
      const std::shared_ptr<RankedHandle>& handle) const;

  /// Whether a request is served as a window of a pinned ranking
  /// (paging on).
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
  mutable RankedAccess ranked_;
  /// Resume-path latency (extend + window materialisation), recorded
  /// under the engine's stage histogram family.
  obs::Histogram* stage_ranked_resume_ = nullptr;
  /// Declared last: the engine's workers reference every member above,
  /// so it must be destroyed (drained and joined) first.
  std::unique_ptr<ExecutionEngine> engine_;
};

}  // namespace agoraeo::earthqube

#endif  // AGORAEO_EARTHQUBE_EARTHQUBE_H_
