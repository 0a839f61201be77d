#include "earthqube/earthqube.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <future>
#include <mutex>
#include <unordered_map>

#include "common/simd/hamming_kernels.h"
#include "earthqube/exec/execution_engine.h"
#include "earthqube/zip_writer.h"

#include "common/logging.h"

namespace agoraeo::earthqube {

using bigearthnet::LabelSet;
using docstore::Document;
using docstore::Filter;
using docstore::Value;

namespace {

/// Geohash precision of the metadata location index (5 chars ~ 4.9 km
/// cells, matching the ~1.2 km patches and typical query extents).
constexpr int kGeoIndexPrecision = 5;

/// Adds one metadata document's labels, read from its stored labels_key,
/// to `counts` — each label once, as a LabelSet holds it.
Status CountLabels(const Document& doc, LabelStatistics::LabelCounts* counts) {
  const Value* key = doc.GetPath(kFieldLabelsKey);
  if (key == nullptr || !key->is_string()) {
    return Status::Corruption("metadata document missing labels_key");
  }
  static_assert(bigearthnet::kNumLabels <= 64, "label mask is one word");
  uint64_t seen = 0;
  for (char c : key->as_string()) {
    AGORAEO_ASSIGN_OR_RETURN(bigearthnet::LabelId id,
                             bigearthnet::LabelIdFromAsciiKey(c));
    const uint64_t bit = uint64_t{1} << id;
    if ((seen & bit) != 0) continue;
    seen |= bit;
    ++(*counts)[static_cast<size_t>(id)];
  }
  return Status::OK();
}

}  // namespace

EarthQube::EarthQube(EarthQubeConfig config)
    : config_(config),
      obs_(config.obs),
      query_cache_(config.cache),
      ranked_(config.ranked) {
  metadata_ = db_.GetOrCreateCollection(kMetadataCollection);
  image_data_ = db_.GetOrCreateCollection(kImageDataCollection);
  rendered_ = db_.GetOrCreateCollection(kRenderedCollection);
  feedback_ = db_.GetOrCreateCollection(kFeedbackCollection);
  if (config_.build_indexes) {
    // The image-data and rendered-images collections are keyed by patch
    // name (the paper: "automatically indexed by MongoDB").
    (void)image_data_->CreateHashIndex("name", /*unique=*/true);
    (void)rendered_->CreateHashIndex("name", /*unique=*/true);
  }
  stage_ranked_resume_ = obs_.HistogramOrNull(
      obs::LabeledName("agoraeo_engine_stage_ns", "stage", "ranked_resume"));
  engine_ = std::make_unique<ExecutionEngine>(this, config_.exec, &obs_);
  if (obs_.metrics_enabled()) RegisterCollectors();
}

void EarthQube::RegisterCollectors() {
  // Scrape-time collectors keep one counting truth: the existing stats
  // structs stay authoritative and /metrics snapshots them on demand
  // instead of double-counting on the hot path.  They capture `this`;
  // the registry is a member of obs_, destroyed with this facade.
  using obs::PushCounter;
  using obs::PushGauge;
  obs_.registry().AddCollector([this](std::vector<obs::Sample>* out) {
    cache::AppendCacheSamples("response", query_cache_.ResponseStats(), out);
    cache::AppendCacheSamples("allowlist", query_cache_.AllowlistStats(), out);
    cache::AppendCacheSamples("negative", query_cache_.NegativeStats(), out);
    PushGauge(out, "agoraeo_cache_epoch",
              static_cast<double>(query_cache_.epoch()));
  });
  obs_.registry().AddCollector([this](std::vector<obs::Sample>* out) {
    const ExecStats s = engine_->Stats();
    PushCounter(out, "agoraeo_engine_submitted_total", s.submitted);
    PushCounter(out, "agoraeo_engine_completed_total", s.completed);
    PushCounter(out, "agoraeo_engine_cache_hits_total", s.cache_hits);
    PushCounter(out, "agoraeo_engine_negative_hits_total", s.negative_hits);
    PushCounter(out, "agoraeo_engine_coalesced_total", s.coalesced);
    PushCounter(out, "agoraeo_engine_flights_total", s.flights);
    PushCounter(out, "agoraeo_engine_direct_total", s.direct);
    PushCounter(out, "agoraeo_engine_batches_total", s.batches);
    PushCounter(out, "agoraeo_engine_batched_flights_total",
                s.batched_flights);
    PushCounter(out, "agoraeo_engine_rejected_total", s.rejected);
    PushCounter(out, "agoraeo_engine_flight_warms_total", s.flight_warms);
    PushCounter(out, "agoraeo_engine_warm_from_flight_hits_total",
                s.warm_from_flight_hits);
  });
  obs_.registry().AddCollector([this](std::vector<obs::Sample>* out) {
    const RankedAccessStats s = ranked_.Stats();
    const auto result = [](const char* r) {
      return obs::LabeledName("agoraeo_engine_cursor_resume_total", "result",
                              r);
    };
    PushCounter(out, result("hit"), s.hits);
    PushCounter(out, result("miss"), s.misses);
    PushCounter(out, result("expired"), s.expired + s.epoch_drops);
    PushCounter(out, "agoraeo_ranked_handles_registered_total", s.registered);
    PushCounter(out, "agoraeo_ranked_handles_evicted_total", s.evicted);
    PushGauge(out, "agoraeo_ranked_handles",
              static_cast<double>(s.handles));
    PushGauge(out, "agoraeo_ranked_handle_bytes",
              static_cast<double>(s.bytes));
  });
  obs_.registry().AddCollector([this](std::vector<obs::Sample>* out) {
    if (cbir_ == nullptr) return;
    const auto per_shard = [&](const char* base, size_t shard, double value) {
      PushGauge(out, obs::LabeledName(base, "shard", std::to_string(shard)),
                value);
    };
    PushGauge(out, "agoraeo_index_items",
              static_cast<double>(cbir_->num_indexed()));
    if (const index::ShardedHammingIndex* sharded = cbir_->sharded_index()) {
      const index::ShardedIndexStats s = sharded->Stats();
      PushGauge(out, "agoraeo_index_shards",
                static_cast<double>(s.num_shards));
      PushCounter(out, "agoraeo_index_seals_total", s.seals);
      PushCounter(out, "agoraeo_index_compactions_total", s.compactions);
      PushGauge(out, "agoraeo_index_sealed_items",
                static_cast<double>(s.sealed_items));
      PushGauge(out, "agoraeo_index_mutable_items",
                static_cast<double>(s.mutable_items));
      PushCounter(out, "agoraeo_index_single_fanouts_total",
                  s.single_fanouts);
      PushCounter(out, "agoraeo_index_batch_fanouts_total", s.batch_fanouts);
      PushCounter(out, "agoraeo_index_fanout_tasks_total", s.fanout_tasks);
      PushCounter(out, "agoraeo_index_merge_nanos_total", s.merge_nanos);
      for (size_t i = 0; i < s.shard_sizes.size(); ++i) {
        per_shard("agoraeo_index_shard_items", i,
                  static_cast<double>(s.shard_sizes[i]));
      }
      for (size_t i = 0; i < s.shard_segments.size(); ++i) {
        per_shard("agoraeo_index_shard_segments", i,
                  static_cast<double>(s.shard_segments[i]));
      }
    } else if (const index::SegmentedHammingIndex* segmented =
                   cbir_->segmented_index()) {
      // An unsharded segmented index reports as shard 0.
      const index::SegmentedIndexStats s = segmented->Stats();
      PushCounter(out, "agoraeo_index_seals_total", s.seals);
      PushCounter(out, "agoraeo_index_compactions_total", s.compactions);
      PushGauge(out, "agoraeo_index_sealed_items",
                static_cast<double>(s.sealed_items));
      PushGauge(out, "agoraeo_index_mutable_items",
                static_cast<double>(s.mutable_items));
      per_shard("agoraeo_index_shard_segments", 0,
                static_cast<double>(s.num_sealed));
    }
    const CbirPersistenceStats& p = cbir_->persistence_stats();
    if (p.enabled) {
      PushCounter(out, "agoraeo_wal_records_total", p.wal_records);
      PushCounter(out, "agoraeo_wal_bytes_appended_total",
                  cbir_->wal_bytes_appended());
      PushCounter(out, "agoraeo_snapshots_written_total",
                  p.snapshots_written);
      PushCounter(out, "agoraeo_recovery_restored_items_total",
                  p.restored_items);
      PushCounter(out, "agoraeo_recovery_replayed_items_total",
                  p.replayed_items);
      PushCounter(out, "agoraeo_recovery_discarded_snapshots_total",
                  p.discarded_snapshots);
    }
    // The Hamming kernel layer: which dispatched kernel serves distance
    // scans, and how many scan passes each compiled kernel has run.  The
    // dispatch table is process-global (every index in the process
    // shares the kernels), so it stays the single counting truth.
    PushGauge(out,
              obs::LabeledName("agoraeo_index_kernel_active", "kernel",
                               simd::ActiveKernel()->name),
              1.0);
    const auto& kernels = simd::CompiledKernels();
    for (size_t i = 0; i < kernels.size(); ++i) {
      PushCounter(out,
                  obs::LabeledName("agoraeo_index_kernel_dispatch_total",
                                   "kernel", kernels[i]->name),
                  simd::DispatchCount(i));
    }
  });
}

EarthQube::~EarthQube() = default;

Status EarthQube::IngestArchive(const bigearthnet::Archive& archive) {
  if (config_.build_indexes && metadata_->size() == 0) {
    AGORAEO_RETURN_IF_ERROR(
        metadata_->CreateHashIndex(kFieldName, /*unique=*/true));
    AGORAEO_RETURN_IF_ERROR(metadata_->CreateMultikeyIndex(kFieldLabels));
    AGORAEO_RETURN_IF_ERROR(metadata_->CreateHashIndex(kFieldLabelsKey));
    AGORAEO_RETURN_IF_ERROR(
        metadata_->CreateGeoIndex(kFieldLocation, kGeoIndexPrecision));
    // B+-tree over the day ordinal: acquisition-date range filters (the
    // query panel's date subsection) plan an interval scan instead of a
    // collection scan.
    AGORAEO_RETURN_IF_ERROR(metadata_->CreateRangeIndex(kFieldDateOrdinal));
    // The panel's season subsection filters with In over this scalar
    // field; a multikey index gives it a posting list per season.
    AGORAEO_RETURN_IF_ERROR(metadata_->CreateMultikeyIndex(kFieldSeason));
  }
  for (const auto& meta : archive.patches) {
    auto inserted = metadata_->Insert(
        MetadataToDocument(meta, config_.label_encoding));
    if (!inserted.ok()) {
      // Documents inserted before the failure are visible, so cached
      // query results may already be stale.
      query_cache_.Invalidate();
      return inserted.status();
    }
  }
  query_cache_.Invalidate();
  AGORAEO_LOG(kInfo) << "EarthQube ingested " << archive.patches.size()
                     << " patches (total " << metadata_->size() << ")";
  return Status::OK();
}

Status EarthQube::IngestArchiveWithCodes(
    const bigearthnet::Archive& archive,
    const std::vector<BinaryCode>& codes) {
  if (cbir_ == nullptr) {
    return Status::FailedPrecondition(
        "IngestArchiveWithCodes needs an attached CBIR service");
  }
  if (codes.size() != archive.patches.size()) {
    return Status::InvalidArgument("codes length mismatch with patches");
  }
  AGORAEO_RETURN_IF_ERROR(IngestArchive(archive));
  std::vector<std::string> names;
  names.reserve(archive.patches.size());
  for (const auto& meta : archive.patches) names.push_back(meta.name);
  AGORAEO_RETURN_IF_ERROR(cbir_->AddImagesWithCodes(names, codes));
  // IngestArchive already invalidated for the metadata writes; the code
  // index changed after that, so bump again.
  query_cache_.Invalidate();
  return Status::OK();
}

void EarthQube::AttachCbir(std::unique_ptr<CbirService> cbir) {
  // Live ranked handles hold streams borrowing the OLD service's name
  // map; drop them before that service is destroyed (the epoch bump
  // alone would only make them unreachable lazily).
  ranked_.Clear();
  cbir_ = std::move(cbir);
  if (cbir_ != nullptr) cbir_->AttachObservability(&obs_);
  // A new code index changes every similarity result.
  query_cache_.Invalidate();
}

Status EarthQube::RecoverAndAttachCbir(std::unique_ptr<CbirService> cbir) {
  // Recover BEFORE attaching: queries keep hitting the old service (or
  // none) until the new index is fully rebuilt, and the epoch bumps
  // once, in AttachCbir, not per restored batch.
  AGORAEO_RETURN_IF_ERROR(cbir->Recover());
  AttachCbir(std::move(cbir));
  return Status::OK();
}

StatusOr<ResultEntry> EarthQube::EntryFromDocument(const Document& doc) const {
  AGORAEO_ASSIGN_OR_RETURN(bigearthnet::PatchMetadata meta,
                           DocumentToMetadata(doc));
  ResultEntry entry;
  entry.name = meta.name;
  entry.labels = meta.labels;
  entry.country = meta.country;
  entry.acquisition_date = meta.acquisition_date.ToString();
  entry.map_location = meta.bounds.Center();
  return entry;
}

// --- unified executor ---------------------------------------------------

void EarthQube::FinishPaging(const QueryRequest& request,
                             QueryResponse* response) {
  response->projection = request.projection;
  response->page = request.page;
  response->page_size = request.page_size;
  if (request.page_size > 0 &&
      (request.page + 1) * request.page_size < response->total()) {
    response->cursor = EncodeCursor(
        {.page = request.page + 1, .page_size = request.page_size});
  }
}

StatusOr<BinaryCode> EarthQube::ResolveSimilarityCode(
    const SimilaritySpec& spec, std::string* exclude_name) const {
  exclude_name->clear();
  if (spec.archive_name.has_value()) {
    *exclude_name = *spec.archive_name;
    return cbir_->CodeOf(*spec.archive_name);
  }
  if (spec.patch.has_value()) return cbir_->HashPatch(*spec.patch);
  // A raw code must match the indexed width: the scan kernels read and
  // pad query words by the index's code length.
  const size_t bits = cbir_->code_bits();
  if (bits != 0 && spec.code->size() != bits) {
    return Status::InvalidArgument(
        "similarity.code has " + std::to_string(spec.code->size()) +
        " bits; the index holds " + std::to_string(bits) + "-bit codes");
  }
  return *spec.code;
}

Status EarthQube::JoinHits(const std::vector<CbirResult>& hits,
                           QueryResponse* response) const {
  std::vector<ResultEntry> entries;
  std::vector<LabelSet> label_sets;
  entries.reserve(hits.size());
  label_sets.reserve(hits.size());
  for (const CbirResult& r : hits) {
    AGORAEO_ASSIGN_OR_RETURN(
        docstore::DocId id,
        metadata_->FindOneId(Filter::Eq(kFieldName, Value(r.patch_name))));
    ++response->query_stats.docs_examined;
    AGORAEO_ASSIGN_OR_RETURN(ResultEntry entry,
                             EntryFromDocument(*metadata_->Get(id)));
    label_sets.push_back(entry.labels);
    entries.push_back(std::move(entry));
  }
  response->panel = ResultPanel(std::move(entries));
  response->statistics = LabelStatistics::FromLabelSets(label_sets);
  return Status::OK();
}

docstore::Filter EarthQube::PanelFilter(const EarthQubeQuery& panel) const {
  return panel.ToFilter(config_.label_encoding ==
                        LabelEncoding::kAsciiCompressed);
}

std::shared_ptr<const FilterMatchSet> EarthQube::ObtainMatchSet(
    const EarthQubeQuery& panel, bool apply_limit,
    std::vector<const Document*>* docs) const {
  docs->clear();
  const size_t limit = apply_limit ? panel.limit : 0;
  std::optional<std::string> fingerprint;
  if (config_.cache.enable_allowlist_cache) {
    fingerprint = QueryCache::PanelFingerprint(panel,
                                               /*include_limit=*/limit != 0);
    if (auto cached = query_cache_.GetMatchSet(*fingerprint)) return cached;
  }
  // Epoch snapshot before the filter pass: an ingest racing it leaves
  // the entry put below stale instead of serving pre-ingest data.
  const uint64_t epoch_snapshot = query_cache_.epoch();
  auto fresh = std::make_shared<FilterMatchSet>();
  metadata_->FindWithDocs(PanelFilter(panel), limit, &fresh->filter_stats,
                          &fresh->ids, docs);
  if (fingerprint.has_value()) {
    query_cache_.PutMatchSet(*fingerprint, fresh, epoch_snapshot);
  }
  return fresh;
}

StatusOr<const Document*> EarthQube::MatchDocument(
    const FilterMatchSet& matches, const std::vector<const Document*>& docs,
    size_t i) const {
  if (i < docs.size()) return docs[i];
  const Document* doc = metadata_->Get(matches.ids[i]);
  if (doc == nullptr) {
    return Status::Corruption("cached filter match " +
                              std::to_string(matches.ids[i]) +
                              " resolves to no metadata document");
  }
  return doc;
}

StatusOr<const LabelStatistics::LabelCounts*> EarthQube::MatchLabelCounts(
    const FilterMatchSet& matches,
    const std::vector<const Document*>& docs) const {
  std::lock_guard<std::mutex> lock(matches.mu);
  if (!matches.label_counts.has_value()) {
    // Reads only the stored label keys; no result row is built.
    LabelStatistics::LabelCounts counts{};
    for (size_t i = 0; i < matches.ids.size(); ++i) {
      AGORAEO_ASSIGN_OR_RETURN(const Document* doc,
                               MatchDocument(matches, docs, i));
      AGORAEO_RETURN_IF_ERROR(CountLabels(*doc, &counts));
    }
    matches.label_counts = counts;
  }
  return &*matches.label_counts;
}

StatusOr<const index::CandidateSet*> EarthQube::MatchCandidates(
    const FilterMatchSet& matches,
    const std::vector<const Document*>& docs) const {
  std::lock_guard<std::mutex> lock(matches.mu);
  if (!matches.candidates.has_value()) {
    std::vector<std::string> names;
    names.reserve(matches.ids.size());
    for (size_t i = 0; i < matches.ids.size(); ++i) {
      AGORAEO_ASSIGN_OR_RETURN(const Document* doc,
                               MatchDocument(matches, docs, i));
      const Value* name = doc->GetPath(kFieldName);
      if (name != nullptr && name->is_string()) {
        names.push_back(name->as_string());
      }
    }
    matches.candidates = cbir_->CandidatesFromNames(names);
  }
  return &*matches.candidates;
}

StatusOr<QueryResponse> EarthQube::ExecutePanelOnly(
    const QueryRequest& request) const {
  std::vector<const Document*> docs;
  const std::shared_ptr<const FilterMatchSet> matches =
      ObtainMatchSet(*request.panel, /*apply_limit=*/true, &docs);
  AGORAEO_ASSIGN_OR_RETURN(const LabelStatistics::LabelCounts* counts,
                           MatchLabelCounts(*matches, docs));
  // Rows are built for the requested page alone (for every match when
  // unpaged): the page is a direct slice of the DocId-ordered ids.
  const size_t total = matches->ids.size();
  size_t begin = 0;
  size_t end = total;
  if (request.page_size > 0) {
    begin = std::min(total, request.page * request.page_size);
    end = std::min(total, begin + request.page_size);
  }
  std::vector<ResultEntry> rows;
  rows.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    AGORAEO_ASSIGN_OR_RETURN(const Document* doc,
                             MatchDocument(*matches, docs, i));
    AGORAEO_ASSIGN_OR_RETURN(ResultEntry entry, EntryFromDocument(*doc));
    rows.push_back(std::move(entry));
  }
  QueryResponse response;
  response.query_stats = matches->filter_stats;
  response.panel = ResultPanel(std::move(rows), begin, total);
  response.statistics = LabelStatistics::FromCounts(*counts, total);
  response.plan.strategy = QueryPlan::Strategy::kPanelOnly;
  response.plan.description = response.query_stats.plan;
  FinishPaging(request, &response);
  return response;
}

EarthQube::HybridPlanInfo EarthQube::PlanHybrid(const QueryRequest& request,
                                                const Filter& filter) const {
  // Cheap selectivity estimate: index candidate counts only, no
  // document verification.
  std::string estimate_plan;
  HybridPlanInfo info;
  info.estimated = metadata_->EstimateMatches(filter, &estimate_plan);
  const size_t collection_size = metadata_->size();
  info.selectivity = collection_size == 0
                         ? 1.0
                         : static_cast<double>(info.estimated) /
                               static_cast<double>(collection_size);
  switch (request.planner) {
    case PlannerMode::kForcePreFilter:
      info.strategy = QueryPlan::Strategy::kPreFilter;
      break;
    case PlannerMode::kForcePostFilter:
      info.strategy = QueryPlan::Strategy::kPostFilter;
      break;
    case PlannerMode::kAuto:
    default:
      info.strategy = info.selectivity <= config_.prefilter_selectivity_threshold
                          ? QueryPlan::Strategy::kPreFilter
                          : QueryPlan::Strategy::kPostFilter;
      break;
  }
  return info;
}

StatusOr<EarthQube::SimilarityPlan> EarthQube::PlanSimilarity(
    const QueryRequest& request) const {
  const SimilaritySpec& spec = *request.similarity;
  const std::string index_name = cbir_->hamming_index().Name();
  SimilarityPlan plan;
  QueryResponse& skeleton = plan.skeleton;
  if (!request.panel.has_value()) {
    skeleton.query_stats.plan = "CBIR";
    skeleton.plan.strategy = QueryPlan::Strategy::kCbirOnly;
    skeleton.plan.description =
        "CBIR(" + index_name +
        (spec.radius.has_value() ? ", radius=" + std::to_string(*spec.radius)
                                 : ", k=" + std::to_string(*spec.k)) +
        ")";
    return plan;
  }
  plan.filter = PanelFilter(*request.panel);
  const HybridPlanInfo info = PlanHybrid(request, plan.filter);
  skeleton.plan.strategy = info.strategy;
  skeleton.plan.estimated_selectivity = info.selectivity;
  skeleton.plan.estimated_filter_matches = info.estimated;
  char sel_text[32];
  std::snprintf(sel_text, sizeof(sel_text), "%.4f", info.selectivity);
  if (info.strategy == QueryPlan::Strategy::kPreFilter) {
    // Filter first: the filter's match set (shared with panels, and
    // unlimited: the pre-filter pass ignores the panel limit) yields
    // the allowlist, then the Hamming index ranks only within it.
    std::vector<const Document*> docs;
    const std::shared_ptr<const FilterMatchSet> matches =
        ObtainMatchSet(*request.panel, /*apply_limit=*/false, &docs);
    AGORAEO_ASSIGN_OR_RETURN(const index::CandidateSet* candidates,
                             MatchCandidates(*matches, docs));
    skeleton.query_stats = matches->filter_stats;
    skeleton.plan.description =
        "HYBRID(pre-filter: " + skeleton.query_stats.plan + " -> " +
        std::to_string(candidates->size()) + " candidates -> restricted " +
        index_name + ", est_sel=" + sel_text + ")";
    plan.allowed =
        std::shared_ptr<const index::CandidateSet>(matches, candidates);
  } else {
    // Search first: the unrestricted ranking is joined against the
    // metadata and filtered as it streams.
    plan.kind = RankedHandle::Kind::kPostFilter;
    skeleton.plan.description = "HYBRID(post-filter: CBIR " + index_name +
                                " -> join -> " + plan.filter.ToString() +
                                ", est_sel=" + sel_text + ")";
  }
  skeleton.query_stats.plan = skeleton.plan.description;
  return plan;
}

bool EarthQube::Windowed(const QueryRequest& request) const {
  return request.page_size > 0;
}

Status EarthQube::ExtendHandle(RankedHandle* handle, size_t need) const {
  const size_t cap = handle->survivor_cap_;
  const size_t target = cap == 0 ? need : std::min(need, cap);
  if (handle->kind() == RankedHandle::Kind::kPlain) {
    while (!handle->exhausted_ && handle->survivors_.size() < target) {
      if (handle->stream_ == nullptr ||
          handle->stream_->Next(target - handle->survivors_.size(),
                                &handle->survivors_) == 0) {
        handle->exhausted_ = true;
      }
    }
  } else {
    // Post-filter: join each raw hit's metadata and keep the filter
    // survivors.  Raw hits are pulled in fixed-size chunks and every
    // chunk is consumed whole, so the docs-examined watermarks are the
    // same whether a ranking is walked in one deep request or resumed
    // page by page.
    constexpr size_t kPostFilterPull = 16;
    std::vector<CbirResult> raw;
    while (!handle->exhausted_ && handle->survivors_.size() < target) {
      raw.clear();
      if (handle->stream_ == nullptr ||
          handle->stream_->Next(kPostFilterPull, &raw) == 0) {
        handle->exhausted_ = true;
        break;
      }
      for (const CbirResult& r : raw) {
        AGORAEO_ASSIGN_OR_RETURN(
            docstore::DocId id,
            metadata_->FindOneId(Filter::Eq(kFieldName, Value(r.patch_name))));
        ++handle->examined_total_;
        if (!handle->filter_.Matches(*metadata_->Get(id))) continue;
        handle->survivors_.push_back(r);
        handle->examined_after_.push_back(handle->examined_total_);
        if (cap != 0 && handle->survivors_.size() >= cap) break;
      }
    }
  }
  if (cap != 0 && handle->survivors_.size() >= cap) handle->exhausted_ = true;
  return Status::OK();
}

std::vector<StatusOr<QueryResponse>> EarthQube::ExecuteSimilarity(
    const std::vector<const QueryRequest*>& requests,
    uint64_t epoch_snapshot) const {
  const size_t n = requests.size();
  std::vector<StatusOr<QueryResponse>> out(
      n, StatusOr<QueryResponse>(Status::Internal("not executed")));

  // Resolve every subject first, so a bad archive name fails the same
  // way whether or not its ranking is resident.
  std::vector<size_t> live;
  std::vector<BinaryCode> codes(n);
  std::vector<std::string> excludes(n);
  for (size_t i = 0; i < n; ++i) {
    StatusOr<BinaryCode> code =
        ResolveSimilarityCode(*requests[i]->similarity, &excludes[i]);
    if (!code.ok()) {
      out[i] = code.status();
      continue;
    }
    codes[i] = std::move(code).value();
    live.push_back(i);
  }
  if (live.empty()) return out;

  StatusOr<SimilarityPlan> plan = PlanSimilarity(*requests[live.front()]);
  if (!plan.ok()) {
    for (size_t i : live) out[i] = plan.status();
    return out;
  }
  const SimilaritySpec& mode = *requests[live.front()]->similarity;

  // One handle per distinct ranking: requests whose page-free
  // fingerprints are equal share it, and a paged request resumes the
  // live handle its cursor names.  Uploaded-patch subjects have no
  // fingerprint and stay ephemeral.
  std::vector<std::shared_ptr<RankedHandle>> handles(n);
  std::vector<size_t> to_open;            // slots owning a fresh handle
  std::vector<bool> registers(n, false);  // fresh handle to pin
  std::unordered_map<std::string, size_t> owner_by_fp;
  for (size_t i : live) {
    const QueryRequest& request = *requests[i];
    // A lone unpaged request has nothing to share its ranking with.
    std::optional<std::string> stream_fp;
    if (live.size() > 1 || Windowed(request)) {
      QueryRequest stream_request = request;
      stream_request.page = 0;
      stream_request.page_size = 0;
      stream_fp = QueryCache::RequestFingerprint(stream_request);
    }
    size_t owner = i;
    if (stream_fp.has_value()) {
      owner = owner_by_fp.emplace(*stream_fp, i).first->second;
    }
    if (owner != i) {
      handles[i] = handles[owner];
      registers[owner] = registers[owner] || Windowed(request);
      continue;
    }
    const std::string handle_id =
        stream_fp.has_value() ? RankedAccess::HandleIdFor(*stream_fp) : "";
    if (Windowed(request) && stream_fp.has_value()) {
      handles[i] = ranked_.Get(handle_id, *stream_fp, epoch_snapshot);
    }
    if (handles[i] != nullptr) continue;
    const SimilaritySpec& spec = *request.similarity;
    handles[i] = std::make_shared<RankedHandle>(
        handle_id, stream_fp.value_or(std::string()), epoch_snapshot,
        plan->kind);
    handles[i]->survivor_cap_ = spec.radius.has_value() ? spec.limit : *spec.k;
    if (plan->kind == RankedHandle::Kind::kPostFilter) {
      handles[i]->filter_ = plan->filter;
    }
    registers[i] = Windowed(request) && stream_fp.has_value();
    to_open.push_back(i);
  }

  // One (batched) open for every missing ranking.  Post-filter streams
  // carry the UNCAPPED raw ranking — the cap applies to filter
  // survivors, not raw hits — so k-NN asks for everything unless k is 0.
  if (!to_open.empty()) {
    std::vector<BinaryCode> open_codes;
    std::vector<size_t> caps;
    std::vector<std::string> open_excludes;
    for (size_t i : to_open) {
      size_t cap = handles[i]->survivor_cap_;
      if (plan->kind == RankedHandle::Kind::kPostFilter) {
        cap = mode.radius.has_value() || cap == 0 ? 0 : SIZE_MAX;
      }
      open_codes.push_back(codes[i]);
      caps.push_back(cap);
      open_excludes.push_back(excludes[i]);
    }
    std::vector<std::unique_ptr<CbirHitStream>> streams;
    if (to_open.size() == 1) {
      streams.push_back(cbir_->OpenStream(open_codes[0], mode.radius, caps[0],
                                          plan->allowed, open_excludes[0]));
    } else {
      streams = cbir_->OpenStreams(open_codes, mode.radius, caps,
                                   plan->allowed, open_excludes);
    }
    for (size_t j = 0; j < to_open.size(); ++j) {
      const size_t i = to_open[j];
      handles[i]->stream_ = std::move(streams[j]);
      if (!registers[i]) continue;
      // First-wins: a racing request may have pinned this ranking
      // already; every sharer converges on the resident handle.
      const RankedHandle* fresh = handles[i].get();
      const std::shared_ptr<RankedHandle> pinned =
          ranked_.Register(handles[i]);
      for (size_t k : live) {
        if (handles[k].get() == fresh) handles[k] = pinned;
      }
    }
  }

  // Build every response; pulling the streams here is where most index
  // work happens for the lazy kinds, so spread it across the pool.
  auto respond = [&](size_t j) {
    const size_t i = live[j];
    out[i] = RespondSimilarity(*requests[i], *plan, handles[i]);
  };
  ThreadPool* pool = live.size() > 1 ? cbir_->QueryPool() : nullptr;
  if (pool != nullptr) {
    pool->ParallelFor(live.size(), respond);
  } else {
    for (size_t j = 0; j < live.size(); ++j) respond(j);
  }
  return out;
}

StatusOr<QueryResponse> EarthQube::RespondSimilarity(
    const QueryRequest& request, const SimilarityPlan& plan,
    const std::shared_ptr<RankedHandle>& handle) const {
  const bool windowed = Windowed(request);
  const uint64_t start_ns =
      windowed && stage_ranked_resume_ != nullptr ? obs::NowNanos() : 0;
  const size_t begin = windowed ? request.page * request.page_size : 0;
  // A paged window reaches one past its end: that proves a further
  // page exists without draining the rest of the ranking.  An unpaged
  // window runs to the cap.
  const size_t cap = handle->survivor_cap_;
  const size_t need = windowed ? begin + request.page_size + 1
                      : cap == 0 ? SIZE_MAX
                                 : cap;

  QueryResponse response = plan.skeleton;
  bool has_more = false;
  size_t touch_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(handle->mu_);
    AGORAEO_RETURN_IF_ERROR(ExtendHandle(handle.get(), need));
    const std::vector<CbirResult>& survivors = handle->survivors_;
    const size_t end =
        windowed ? std::min(survivors.size(), begin + request.page_size)
                 : survivors.size();
    if (begin < end) {
      response.hits.assign(survivors.begin() + begin, survivors.begin() + end);
    }
    has_more = windowed && survivors.size() >= need;
    if (handle->kind() == RankedHandle::Kind::kPostFilter) {
      // Deterministic join cost: the raw rank of the window's last
      // survivor — what a fresh execution of exactly this window
      // examines, however deep the stream has already been pulled.
      response.query_stats.docs_examined +=
          survivors.size() >= need ? handle->examined_after_[need - 1]
                                   : handle->examined_total_;
    }
    // Measured under handle->mu_: a concurrent resume of this cursor
    // may extend survivors_ the moment the lock drops, and Touch must
    // not walk the vector mid-reallocation.
    if (windowed) touch_bytes = RankedAccess::ApproxBytes(*handle);
  }
  if (windowed && !handle->id().empty()) ranked_.Touch(handle, touch_bytes);

  if (request.projection == Projection::kFullPanel) {
    AGORAEO_RETURN_IF_ERROR(JoinHits(response.hits, &response));
  }
  if (!windowed) {
    FinishPaging(request, &response);
    return response;
  }
  response.windowed = true;
  response.projection = request.projection;
  response.page = request.page;
  response.page_size = request.page_size;
  if (has_more) {
    response.cursor =
        EncodeCursor({request.page + 1, request.page_size, handle->id()});
  }
  if (start_ns != 0) stage_ranked_resume_->Record(obs::NowNanos() - start_ns);
  return response;
}

Status EarthQube::PreflightCheck(const QueryRequest& request) const {
  AGORAEO_RETURN_IF_ERROR(request.Validate());
  if (request.similarity.has_value() && cbir_ == nullptr) {
    return Status::FailedPrecondition("no CBIR service attached");
  }
  return Status::OK();
}

std::optional<StatusOr<QueryResponse>> EarthQube::ProbeCaches(
    const QueryRequest& request,
    const std::optional<std::string>& fingerprint) const {
  // Response cache: CBIR-only and hybrid requests (the hot interactive
  // shapes; uploaded-patch subjects have no cheap fingerprint).  A hit
  // replays the stored response byte-for-byte, flagged served_from_cache.
  if (!fingerprint.has_value() || !request.similarity.has_value()) {
    return std::nullopt;
  }
  if (config_.cache.enable_response_cache) {
    if (auto cached = query_cache_.GetResponse(*fingerprint)) {
      QueryResponse out = *cached;
      out.served_from_cache = true;
      return StatusOr<QueryResponse>(std::move(out));
    }
  }
  // Negative cache: a recently observed NotFound (bad archive name) is
  // replayed without touching the docstore or index; the short TTL and
  // the epoch bound how long a since-ingested name keeps failing.
  if (config_.cache.enable_negative_cache) {
    if (auto negative = query_cache_.GetNegative(*fingerprint)) {
      return StatusOr<QueryResponse>(*negative);
    }
  }
  return std::nullopt;
}

bool EarthQube::CacheResponse(const QueryRequest& request,
                              const std::optional<std::string>& fingerprint,
                              const QueryResponse& response,
                              uint64_t epoch_snapshot) const {
  if (!fingerprint.has_value() || !request.similarity.has_value()) {
    return false;
  }
  return query_cache_.PutResponse(*fingerprint, response, epoch_snapshot);
}

void EarthQube::MaybeCacheNegative(
    const QueryRequest& request,
    const std::optional<std::string>& fingerprint, const Status& status,
    uint64_t epoch_snapshot) const {
  if (!fingerprint.has_value() || !request.similarity.has_value()) return;
  if (!status.IsNotFound()) return;
  query_cache_.PutNegative(*fingerprint, status, epoch_snapshot);
}

namespace {

/// Blocks on an asynchronous entry point: `submit` receives the
/// completion callback and the caller waits for its one invocation.
template <typename T, typename Submit>
T Await(Submit submit) {
  auto done = std::make_shared<std::promise<T>>();
  std::future<T> result = done->get_future();
  submit([done](T value) { done->set_value(std::move(value)); });
  return result.get();
}

}  // namespace

void EarthQube::ExecuteAsync(const QueryRequest& request, Callback done,
                             std::shared_ptr<obs::Trace> trace) const {
  engine_->SubmitAsync(request, std::move(done), std::move(trace));
}

StatusOr<QueryResponse> EarthQube::Execute(
    const QueryRequest& request, std::shared_ptr<obs::Trace> trace) const {
  return Await<StatusOr<QueryResponse>>([&](Callback done) {
    ExecuteAsync(request, std::move(done), std::move(trace));
  });
}

void EarthQube::ExecuteBatchAsync(const std::vector<QueryRequest>& requests,
                                  BatchCallback done) const {
  if (requests.empty()) {
    done(std::vector<QueryResponse>{});
    return;
  }
  // Slots fill in from engine callbacks, possibly concurrently; the
  // last completion answers.
  struct Join {
    std::mutex mu;
    std::vector<StatusOr<QueryResponse>> slots;
    size_t remaining;
    BatchCallback done;
  };
  auto join = std::make_shared<Join>();
  join->slots.assign(requests.size(),
                     StatusOr<QueryResponse>(Status::Internal("slot pending")));
  join->remaining = requests.size();
  join->done = std::move(done);
  // One admission gate for the whole batch: identical requests
  // coalesce onto one flight and compatible shapes land in one
  // micro-batch window.
  engine_->Pause();
  for (size_t i = 0; i < requests.size(); ++i) {
    engine_->SubmitAsync(requests[i], [join, i](StatusOr<QueryResponse> slot) {
      {
        std::lock_guard<std::mutex> lock(join->mu);
        join->slots[i] = std::move(slot);
        if (--join->remaining != 0) return;
      }
      std::vector<QueryResponse> out;
      out.reserve(join->slots.size());
      for (StatusOr<QueryResponse>& result : join->slots) {
        if (!result.ok()) {
          join->done(result.status());  // the first failing slot wins
          return;
        }
        out.push_back(std::move(result).value());
      }
      join->done(std::move(out));
    });
  }
  engine_->Resume();
}

StatusOr<std::vector<QueryResponse>> EarthQube::ExecuteBatch(
    const std::vector<QueryRequest>& requests) const {
  return Await<StatusOr<std::vector<QueryResponse>>>(
      [&](BatchCallback done) { ExecuteBatchAsync(requests, std::move(done)); });
}

size_t EarthQube::CountMatches(const EarthQubeQuery& query) const {
  return metadata_->Count(PanelFilter(query));
}

Status EarthQube::StorePatchPixels(const bigearthnet::Patch& patch) {
  auto inserted = image_data_->Insert(PatchToImageDocument(patch));
  return inserted.ok() ? Status::OK() : inserted.status();
}

StatusOr<bigearthnet::Patch> EarthQube::LoadPatchPixels(
    const std::string& name) const {
  AGORAEO_ASSIGN_OR_RETURN(
      docstore::DocId id,
      image_data_->FindOneId(Filter::Eq("name", Value(name))));
  return ImageDocumentToPatch(*image_data_->Get(id));
}

Status EarthQube::StoreRenderedImage(const bigearthnet::Patch& patch) {
  const auto& band = patch.s2(bigearthnet::S2Band::kB04);
  const std::vector<uint8_t> rgb = bigearthnet::RenderRgb(patch);
  auto inserted = rendered_->Insert(
      RenderedToDocument(patch.meta.name, rgb, band.width, band.height));
  return inserted.ok() ? Status::OK() : inserted.status();
}

StatusOr<std::vector<uint8_t>> EarthQube::GetRenderedImage(
    const std::string& name) const {
  AGORAEO_ASSIGN_OR_RETURN(
      docstore::DocId id,
      rendered_->FindOneId(Filter::Eq("name", Value(name))));
  const Value* rgb = rendered_->Get(id)->Get("rgb");
  if (rgb == nullptr || !rgb->is_binary()) {
    return Status::Corruption("rendered image payload missing: " + name);
  }
  return rgb->as_binary();
}

StatusOr<std::vector<uint8_t>> EarthQube::ExportAsZip(
    const std::vector<std::string>& names) const {
  ZipWriter zip;
  std::string manifest;
  for (const std::string& name : names) {
    AGORAEO_ASSIGN_OR_RETURN(
        docstore::DocId id,
        metadata_->FindOneId(Filter::Eq(kFieldName, Value(name))));
    const docstore::Document* meta = metadata_->Get(id);
    AGORAEO_RETURN_IF_ERROR(
        zip.Add(name + "/metadata.json", meta->ToString()));
    manifest += name + "\n";

    // Raster payload, when the image-data collection holds it.
    auto pixels = image_data_->FindOneId(Filter::Eq("name", Value(name)));
    if (pixels.ok()) {
      ByteWriter bands;
      docstore::SerializeDocument(*image_data_->Get(*pixels), &bands);
      AGORAEO_RETURN_IF_ERROR(zip.Add(name + "/bands.bin", bands.data()));
    }
    // Rendered RGB preview, when present.
    auto rendered = GetRenderedImage(name);
    if (rendered.ok()) {
      AGORAEO_RETURN_IF_ERROR(zip.Add(name + "/preview.rgb", *rendered));
    }
  }
  AGORAEO_RETURN_IF_ERROR(zip.Add("manifest.txt", manifest));
  return zip.Finish();
}

Status EarthQube::SubmitFeedback(const std::string& text) {
  Document doc;
  doc.Set("text", Value(text));
  doc.Set("anonymous", Value(true));
  auto inserted = feedback_->Insert(std::move(doc));
  return inserted.ok() ? Status::OK() : inserted.status();
}

size_t EarthQube::NumFeedbackEntries() const {
  return feedback_->size();
}

StatusOr<bigearthnet::PatchMetadata> EarthQube::GetMetadata(
    const std::string& name) const {
  AGORAEO_ASSIGN_OR_RETURN(
      docstore::DocId id,
      metadata_->FindOneId(Filter::Eq(kFieldName, Value(name))));
  return DocumentToMetadata(*metadata_->Get(id));
}

size_t EarthQube::num_images() const { return metadata_->size(); }

}  // namespace agoraeo::earthqube
