#include "docstore/collection.h"

#include <algorithm>
#include <optional>

namespace agoraeo::docstore {

StatusOr<DocId> Collection::Insert(Document doc) {
  const DocId id = next_id_;
  // Unique-index check first so a rejected insert leaves no trace.
  for (const auto& idx : hash_indexes_) {
    if (!idx->unique()) continue;
    const Value* v = doc.GetPath(idx->path());
    if (v != nullptr && idx->Lookup(*v) != nullptr) {
      return Status::AlreadyExists("duplicate key on unique index " +
                                   idx->path() + ": " + v->ToString());
    }
  }
  for (const auto& idx : hash_indexes_) {
    AGORAEO_RETURN_IF_ERROR(idx->Insert(id, doc));
  }
  for (const auto& idx : multikey_indexes_) idx->Insert(id, doc);
  for (const auto& idx : geo_indexes_) idx->Insert(id, doc);
  for (const auto& idx : range_indexes_) idx->Insert(id, doc);
  auto stored = docs_.emplace(id, std::move(doc));
  UpdateHistograms(stored.first->second, /*add=*/true);
  ++next_id_;
  return id;
}

Status Collection::Remove(DocId id) {
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    return Status::NotFound("no document with id " + std::to_string(id));
  }
  for (const auto& idx : hash_indexes_) idx->Remove(id, it->second);
  for (const auto& idx : multikey_indexes_) idx->Remove(id, it->second);
  for (const auto& idx : geo_indexes_) idx->Remove(id, it->second);
  for (const auto& idx : range_indexes_) idx->Remove(id, it->second);
  UpdateHistograms(it->second, /*add=*/false);
  docs_.erase(it);
  return Status::OK();
}

Status Collection::Update(DocId id, Document doc) {
  auto it = docs_.find(id);
  if (it == docs_.end()) {
    return Status::NotFound("no document with id " + std::to_string(id));
  }
  // Check unique constraints against other documents.
  for (const auto& idx : hash_indexes_) {
    if (!idx->unique()) continue;
    const Value* v = doc.GetPath(idx->path());
    if (v == nullptr) continue;
    const auto* list = idx->Lookup(*v);
    if (list != nullptr && !(list->size() == 1 && (*list)[0] == id)) {
      return Status::AlreadyExists("duplicate key on unique index " +
                                   idx->path() + ": " + v->ToString());
    }
  }
  for (const auto& idx : hash_indexes_) idx->Remove(id, it->second);
  for (const auto& idx : multikey_indexes_) idx->Remove(id, it->second);
  for (const auto& idx : geo_indexes_) idx->Remove(id, it->second);
  for (const auto& idx : range_indexes_) idx->Remove(id, it->second);
  UpdateHistograms(it->second, /*add=*/false);
  it->second = std::move(doc);
  UpdateHistograms(it->second, /*add=*/true);
  for (const auto& idx : hash_indexes_) {
    AGORAEO_RETURN_IF_ERROR(idx->Insert(id, it->second));
  }
  for (const auto& idx : multikey_indexes_) idx->Insert(id, it->second);
  for (const auto& idx : geo_indexes_) idx->Insert(id, it->second);
  for (const auto& idx : range_indexes_) idx->Insert(id, it->second);
  return Status::OK();
}

const Document* Collection::Get(DocId id) const {
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : &it->second;
}

namespace {

/// The tightest interval the range conjuncts (Gt/Gte/Lt/Lte/Eq) on one
/// path imply, e.g. date >= a AND date <= b becomes [a, b].  `bounds`
/// counts the conjuncts folded in; 0 means none applies.  With
/// `first_only` (an array-valued path, where each conjunct may be met
/// by a different element) only the first conjunct's own interval is
/// taken, which still covers every match.
struct Interval {
  const Value* lower = nullptr;
  bool lower_inclusive = true;
  const Value* upper = nullptr;
  bool upper_inclusive = true;
  size_t bounds = 0;
};

Interval MergeBounds(const std::vector<const Filter*>& conjuncts,
                     const std::string& path, bool first_only) {
  Interval iv;
  const auto tighten_lower = [&iv](const Value& b, bool inclusive) {
    const int c = iv.lower == nullptr ? 1 : b.Compare(*iv.lower);
    if (c > 0 || (c == 0 && !inclusive)) {
      iv.lower = &b;
      iv.lower_inclusive = inclusive;
    }
  };
  const auto tighten_upper = [&iv](const Value& b, bool inclusive) {
    const int c = iv.upper == nullptr ? -1 : b.Compare(*iv.upper);
    if (c < 0 || (c == 0 && !inclusive)) {
      iv.upper = &b;
      iv.upper_inclusive = inclusive;
    }
  };
  for (const Filter* child : conjuncts) {
    if (child->path() != path) continue;
    const Filter::Op op = child->op();
    const bool lower = op == Filter::Op::kEq || op == Filter::Op::kGt ||
                       op == Filter::Op::kGte;
    const bool upper = op == Filter::Op::kEq || op == Filter::Op::kLt ||
                       op == Filter::Op::kLte;
    if (!lower && !upper) continue;
    const bool inclusive = op == Filter::Op::kEq || op == Filter::Op::kGte ||
                           op == Filter::Op::kLte;
    if (lower) tighten_lower(child->values()[0], inclusive);
    if (upper) tighten_upper(child->values()[0], inclusive);
    ++iv.bounds;
    if (first_only) break;
  }
  return iv;
}

/// Count-only size of an interval: the path's histogram when it covers
/// every index entry and the bounds are numeric, else the B+-tree's
/// interval count.  `*by_histogram` tells which answered.
size_t EstimateInterval(const RangeIndex& idx, const FieldHistogram* hist,
                        const Interval& iv, bool* by_histogram) {
  const bool numeric_bounds = (iv.lower == nullptr || iv.lower->is_number()) &&
                              (iv.upper == nullptr || iv.upper->is_number());
  *by_histogram = hist != nullptr && hist->total() > 0 &&
                  hist->numeric_only() && numeric_bounds;
  if (*by_histogram) {
    return hist->EstimateRange(
        iv.lower != nullptr ? std::optional<double>(iv.lower->as_number())
                            : std::nullopt,
        iv.upper != nullptr ? std::optional<double>(iv.upper->as_number())
                            : std::nullopt);
  }
  return idx.CountInRange(iv.lower, iv.lower_inclusive, iv.upper,
                          iv.upper_inclusive);
}

std::vector<const Filter*> Conjuncts(const Filter& filter) {
  std::vector<const Filter*> out;
  if (filter.op() == Filter::Op::kAnd) {
    for (const Filter& child : filter.children()) out.push_back(&child);
  } else {
    out.push_back(&filter);
  }
  return out;
}

/// Advances `*pos` to the first element of the sorted `list` not below
/// `id` (exponential, then binary search) and reports whether it is
/// `id`.  Probing ascending ids this way costs O(log gap) per probe.
bool GallopTo(const std::vector<DocId>& list, size_t* pos, DocId id) {
  size_t lo = *pos;
  size_t hi = lo;
  for (size_t step = 1; hi < list.size() && list[hi] < id; step *= 2) {
    lo = hi + 1;
    hi += step;
  }
  const size_t end = std::min(hi + 1, list.size());
  *pos = static_cast<size_t>(
      std::lower_bound(list.begin() + static_cast<std::ptrdiff_t>(lo),
                       list.begin() + static_cast<std::ptrdiff_t>(end), id) -
      list.begin());
  return *pos < list.size() && list[*pos] == id;
}

}  // namespace

/// One index-assisted conjunct: sorted posting lists (a document
/// qualifies when it is in any of them), a B+-tree interval, or a geo
/// cover.  Posting lists are probed in place; an interval or a cover is
/// materialised only when it drives the plan.
struct Collection::AccessPath {
  enum class Kind { kPostings, kInterval, kGeo };
  Kind kind = Kind::kPostings;
  std::string label;  ///< e.g. "multikey:properties.labels"
  size_t estimate = 0;  ///< count-only upper bound on the ids it yields
  bool by_histogram = false;  ///< the estimate is the path's histogram's
  std::vector<const std::vector<DocId>*> lists;  ///< kPostings
  const RangeIndex* range = nullptr;             ///< kInterval
  Interval interval;
  const GeoIndex* geo = nullptr;  ///< kGeo
  geo::BoundingBox box;
};

std::vector<Collection::AccessPath> Collection::AccessPaths(
    const Filter& filter) const {
  const std::vector<const Filter*> conjuncts = Conjuncts(filter);
  std::vector<AccessPath> paths;
  const auto postings = [&paths](const std::string& label,
                                 std::vector<const std::vector<DocId>*> lists) {
    AccessPath path;
    path.label = label;
    for (const auto* list : lists) {
      if (list == nullptr) continue;
      path.estimate += list->size();
      path.lists.push_back(list);
    }
    paths.push_back(std::move(path));
  };
  const auto hash_on = [this](const std::string& p) -> const HashIndex* {
    for (const auto& idx : hash_indexes_) {
      if (idx->path() == p) return idx.get();
    }
    return nullptr;
  };
  const auto multikey_on = [this](const std::string& p) -> const MultikeyIndex* {
    for (const auto& idx : multikey_indexes_) {
      if (idx->path() == p) return idx.get();
    }
    return nullptr;
  };
  for (const Filter* leaf : conjuncts) {
    switch (leaf->op()) {
      case Filter::Op::kEq: {
        if (const HashIndex* hash = hash_on(leaf->path())) {
          postings("hash:" + hash->path(), {hash->Lookup(leaf->values()[0])});
        } else if (const MultikeyIndex* mk = multikey_on(leaf->path())) {
          postings("multikey:" + mk->path(), {mk->Lookup(leaf->values()[0])});
        }
        break;  // an Eq on a range path joins that path's interval
      }
      case Filter::Op::kIn:
        if (const MultikeyIndex* mk = multikey_on(leaf->path())) {
          std::vector<const std::vector<DocId>*> lists;
          for (const Value& v : leaf->values()) lists.push_back(mk->Lookup(v));
          postings("multikey:" + mk->path(), std::move(lists));
        }
        break;
      case Filter::Op::kAll:
        // One term per element: the intersection is what the probes do.
        // An empty All matches every array, so it constrains nothing.
        if (const MultikeyIndex* mk = multikey_on(leaf->path())) {
          for (const Value& v : leaf->values()) {
            postings("multikey:" + mk->path(), {mk->Lookup(v)});
          }
        }
        break;
      case Filter::Op::kGeoIntersects:
      case Filter::Op::kGeoWithinCircle:
      case Filter::Op::kGeoWithinPolygon:
        for (const auto& idx : geo_indexes_) {
          if (idx->path() != leaf->path()) continue;
          AccessPath path;
          path.kind = AccessPath::Kind::kGeo;
          path.label = "geo:" + idx->path();
          path.geo = idx.get();
          path.box = leaf->op() == Filter::Op::kGeoIntersects ? leaf->box()
                     : leaf->op() == Filter::Op::kGeoWithinCircle
                         ? leaf->circle().Bounds()
                         : leaf->polygon().Bounds();
          path.estimate = idx->CountCandidates(path.box);
          paths.push_back(std::move(path));
          break;
        }
        break;
      default:
        break;
    }
  }
  // Every range conjunct on a range-indexed path folds into one interval
  // per path; a one-sided bound is never scanned alone.
  for (const auto& idx : range_indexes_) {
    AccessPath path;
    path.interval =
        MergeBounds(conjuncts, idx->path(), /*first_only=*/idx->has_arrays());
    if (path.interval.bounds == 0) continue;
    path.kind = AccessPath::Kind::kInterval;
    path.label = "range:" + idx->path();
    path.range = idx.get();
    path.estimate = EstimateInterval(*idx, HistogramFor(idx->path()),
                                     path.interval, &path.by_histogram);
    paths.push_back(std::move(path));
  }
  return paths;
}

void Collection::FindWithDocs(const Filter& filter, size_t limit,
                              QueryStats* stats, std::vector<DocId>* ids,
                              std::vector<const Document*>* docs) const {
  QueryStats local;
  size_t matches = 0;
  // True once `limit` matches are in.
  const auto check = [&](DocId id, const Document& doc) {
    ++local.docs_examined;
    if (!filter.Matches(doc)) return false;
    if (ids != nullptr) ids->push_back(id);
    if (docs != nullptr) docs->push_back(&doc);
    ++matches;
    return limit != 0 && matches >= limit;
  };

  std::vector<AccessPath> paths = AccessPaths(filter);
  if (paths.empty()) {
    local.plan = "COLLSCAN";
    for (const auto& [id, doc] : docs_) {
      if (check(id, doc)) break;
    }
    if (stats != nullptr) *stats = std::move(local);
    return;
  }

  // The smallest estimate drives the plan.  Its ids are the only list
  // walked; every other posting list is probed in place, and the other
  // intervals and covers are left to the per-document check.
  std::stable_sort(paths.begin(), paths.end(),
                   [](const AccessPath& a, const AccessPath& b) {
                     return a.estimate < b.estimate;
                   });
  const AccessPath& lead = paths.front();
  std::vector<DocId> owned;
  const std::vector<DocId>* driver = &owned;
  switch (lead.kind) {
    case AccessPath::Kind::kPostings:
      if (lead.lists.size() == 1) {
        driver = lead.lists[0];
        break;
      }
      for (const auto* list : lead.lists) {
        std::vector<DocId> merged;
        merged.reserve(owned.size() + list->size());
        std::set_union(owned.begin(), owned.end(), list->begin(), list->end(),
                       std::back_inserter(merged));
        owned = std::move(merged);
      }
      break;
    case AccessPath::Kind::kInterval:
      owned = lead.range->Scan(
          lead.interval.lower, lead.interval.lower_inclusive,
          lead.interval.upper, lead.interval.upper_inclusive);
      break;
    case AccessPath::Kind::kGeo:
      owned = lead.geo->Candidates(lead.box);
      break;
  }
  local.index_candidates = driver->size();

  struct Probe {
    const AccessPath* path;
    std::vector<size_t> pos;  ///< one cursor per posting list
  };
  std::vector<Probe> probes;
  std::vector<const std::string*> used = {&lead.label};
  for (size_t i = 1; i < paths.size(); ++i) {
    if (paths[i].kind != AccessPath::Kind::kPostings) continue;
    probes.push_back({&paths[i], std::vector<size_t>(paths[i].lists.size())});
    if (std::none_of(used.begin(), used.end(), [&](const std::string* l) {
          return *l == paths[i].label;
        })) {
      used.push_back(&paths[i].label);
    }
  }
  local.plan = used.size() == 1 ? "IXSCAN(" : "IXAND(";
  for (size_t i = 0; i < used.size(); ++i) {
    if (i > 0) local.plan += ", ";
    local.plan += *used[i];
  }
  local.plan += ")";

  for (DocId id : *driver) {
    bool in_all = true;
    for (Probe& probe : probes) {
      bool in_any = false;
      for (size_t l = 0; l < probe.pos.size() && !in_any; ++l) {
        in_any = GallopTo(*probe.path->lists[l], &probe.pos[l], id);
      }
      if (!in_any) {
        in_all = false;
        break;
      }
    }
    if (!in_all) continue;
    auto it = docs_.find(id);
    if (it == docs_.end()) continue;
    if (check(id, it->second)) break;
  }
  if (stats != nullptr) *stats = std::move(local);
}

std::vector<DocId> Collection::FindIds(const Filter& filter, size_t limit,
                                       QueryStats* stats) const {
  std::vector<DocId> out;
  FindWithDocs(filter, limit, stats, &out, nullptr);
  return out;
}

std::vector<const Document*> Collection::Find(const Filter& filter,
                                              size_t limit,
                                              QueryStats* stats) const {
  std::vector<const Document*> out;
  FindWithDocs(filter, limit, stats, nullptr, &out);
  return out;
}

StatusOr<DocId> Collection::FindOneId(const Filter& filter) const {
  std::vector<DocId> ids = FindIds(filter, 1);
  if (ids.empty()) {
    return Status::NotFound("no document matches " + filter.ToString());
  }
  return ids[0];
}

size_t Collection::Count(const Filter& filter, QueryStats* stats) const {
  return FindIds(filter, 0, stats).size();
}

const FieldHistogram* Collection::HistogramFor(const std::string& path) const {
  for (const auto& [hist_path, hist] : histograms_) {
    if (hist_path == path) return &hist;
  }
  return nullptr;
}

void Collection::UpdateHistograms(const Document& doc, bool add) {
  for (auto& [path, hist] : histograms_) {
    const Value* v = doc.GetPath(path);
    if (v == nullptr) continue;
    auto apply = [&hist, add](const Value& element) {
      if (!element.is_number()) {
        // Tracked so the estimator knows the histogram misses entries.
        if (add) {
          hist.AddNonNumeric();
        } else {
          hist.RemoveNonNumeric();
        }
        return;
      }
      if (add) {
        hist.Add(element.as_number());
      } else {
        hist.Remove(element.as_number());
      }
    };
    if (v->is_array()) {
      for (const Value& element : v->as_array()) apply(element);
    } else {
      apply(*v);
    }
  }
}

size_t Collection::EstimateMatches(const Filter& filter,
                                   std::string* plan) const {
  const std::vector<AccessPath> paths = AccessPaths(filter);
  if (paths.empty()) {
    if (plan != nullptr) *plan = "COLLSCAN";
    return docs_.size();
  }
  // A conjunction matches at most its most selective access path.
  const AccessPath& best = *std::min_element(
      paths.begin(), paths.end(), [](const AccessPath& a, const AccessPath& b) {
        return a.estimate < b.estimate;
      });
  if (plan != nullptr) {
    *plan = best.by_histogram ? "HISTOGRAM(" + best.range->path() + ")"
                              : "IXSCAN(" + best.label + ")";
  }
  // Count-based estimates (multikey sums, geo cell sums, histogram edge
  // buckets) can exceed the collection; the true match count cannot.
  return std::min(best.estimate, docs_.size());
}

std::map<std::string, size_t> Collection::CountByArrayField(
    const std::string& path, const Filter& filter) const {
  std::map<std::string, size_t> counts;
  for (DocId id : FindIds(filter)) {
    const Document& doc = docs_.at(id);
    const Value* v = doc.GetPath(path);
    if (v == nullptr) continue;
    if (v->is_array()) {
      for (const Value& element : v->as_array()) {
        if (element.is_string()) {
          ++counts[element.as_string()];
        } else {
          ++counts[element.ToString()];
        }
      }
    } else if (v->is_string()) {
      ++counts[v->as_string()];
    }
  }
  return counts;
}

Status Collection::CreateHashIndex(const std::string& path, bool unique) {
  for (const auto& idx : hash_indexes_) {
    if (idx->path() == path) {
      return Status::AlreadyExists("hash index exists on " + path);
    }
  }
  auto idx = std::make_unique<HashIndex>(path, unique);
  for (const auto& [id, doc] : docs_) {
    AGORAEO_RETURN_IF_ERROR(idx->Insert(id, doc));
  }
  hash_indexes_.push_back(std::move(idx));
  return Status::OK();
}

Status Collection::CreateMultikeyIndex(const std::string& path) {
  for (const auto& idx : multikey_indexes_) {
    if (idx->path() == path) {
      return Status::AlreadyExists("multikey index exists on " + path);
    }
  }
  auto idx = std::make_unique<MultikeyIndex>(path);
  for (const auto& [id, doc] : docs_) idx->Insert(id, doc);
  multikey_indexes_.push_back(std::move(idx));
  return Status::OK();
}

Status Collection::CreateGeoIndex(const std::string& path, int precision) {
  if (precision < 1 || precision > 12) {
    return Status::InvalidArgument("geo index precision must be in [1, 12]");
  }
  for (const auto& idx : geo_indexes_) {
    if (idx->path() == path) {
      return Status::AlreadyExists("geo index exists on " + path);
    }
  }
  auto idx = std::make_unique<GeoIndex>(path, precision);
  for (const auto& [id, doc] : docs_) idx->Insert(id, doc);
  geo_indexes_.push_back(std::move(idx));
  return Status::OK();
}

Status Collection::CreateRangeIndex(const std::string& path) {
  for (const auto& idx : range_indexes_) {
    if (idx->path() == path) {
      return Status::AlreadyExists("range index exists on " + path);
    }
  }
  auto idx = std::make_unique<RangeIndex>(path);
  for (const auto& [id, doc] : docs_) idx->Insert(id, doc);
  range_indexes_.push_back(std::move(idx));
  // Every range-indexed path gets a cardinality histogram; backfill it
  // from the existing documents so estimates are live immediately.
  FieldHistogram hist;
  for (const auto& [id, doc] : docs_) {
    (void)id;
    const Value* v = doc.GetPath(path);
    if (v == nullptr) continue;
    auto backfill = [&hist](const Value& element) {
      if (element.is_number()) {
        hist.Add(element.as_number());
      } else {
        hist.AddNonNumeric();
      }
    };
    if (v->is_array()) {
      for (const Value& element : v->as_array()) backfill(element);
    } else {
      backfill(*v);
    }
  }
  histograms_.emplace_back(path, std::move(hist));
  return Status::OK();
}

std::vector<Collection::IndexSpec> Collection::IndexSpecs() const {
  std::vector<IndexSpec> specs;
  for (const auto& idx : hash_indexes_) {
    specs.push_back({idx->unique() ? IndexSpec::Kind::kUniqueHash
                                   : IndexSpec::Kind::kHash,
                     idx->path(), 0});
  }
  for (const auto& idx : multikey_indexes_) {
    specs.push_back({IndexSpec::Kind::kMultikey, idx->path(), 0});
  }
  for (const auto& idx : geo_indexes_) {
    specs.push_back({IndexSpec::Kind::kGeo, idx->path(), idx->precision()});
  }
  for (const auto& idx : range_indexes_) {
    specs.push_back({IndexSpec::Kind::kRange, idx->path(), 0});
  }
  return specs;
}

}  // namespace agoraeo::docstore
