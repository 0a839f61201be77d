#include "docstore/index.h"

#include <algorithm>

namespace agoraeo::docstore {

namespace {

void RemoveFromPostingList(std::vector<DocId>* list, DocId id) {
  list->erase(std::remove(list->begin(), list->end(), id), list->end());
}

}  // namespace

// ---------------------------------------------------------------------------
// HashIndex
// ---------------------------------------------------------------------------

Status HashIndex::Insert(DocId id, const Document& doc) {
  const Value* v = doc.GetPath(path_);
  if (v == nullptr) return Status::OK();  // sparse: unindexed
  const std::string key = v->IndexKey();
  auto& list = map_[key];
  if (unique_ && !list.empty()) {
    return Status::AlreadyExists("duplicate key on unique index " + path_ +
                                 ": " + v->ToString());
  }
  list.insert(std::upper_bound(list.begin(), list.end(), id), id);
  return Status::OK();
}

void HashIndex::Remove(DocId id, const Document& doc) {
  const Value* v = doc.GetPath(path_);
  if (v == nullptr) return;
  auto it = map_.find(v->IndexKey());
  if (it == map_.end()) return;
  RemoveFromPostingList(&it->second, id);
  if (it->second.empty()) map_.erase(it);
}

const std::vector<DocId>* HashIndex::Lookup(const Value& v) const {
  auto it = map_.find(v.IndexKey());
  return it == map_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// MultikeyIndex
// ---------------------------------------------------------------------------

void MultikeyIndex::Insert(DocId id, const Document& doc) {
  const Value* v = doc.GetPath(path_);
  if (v == nullptr) return;
  auto add = [&](const Value& element) {
    auto& list = map_[element.IndexKey()];
    auto it = std::upper_bound(list.begin(), list.end(), id);
    // A document may repeat an element; index it once.
    if (it == list.begin() || *(it - 1) != id) list.insert(it, id);
  };
  if (v->is_array()) {
    for (const Value& element : v->as_array()) add(element);
  } else {
    add(*v);  // scalar fields behave as single-element arrays
  }
}

void MultikeyIndex::Remove(DocId id, const Document& doc) {
  const Value* v = doc.GetPath(path_);
  if (v == nullptr) return;
  auto drop = [&](const Value& element) {
    auto it = map_.find(element.IndexKey());
    if (it == map_.end()) return;
    RemoveFromPostingList(&it->second, id);
    if (it->second.empty()) map_.erase(it);
  };
  if (v->is_array()) {
    for (const Value& element : v->as_array()) drop(element);
  } else {
    drop(*v);
  }
}

const std::vector<DocId>* MultikeyIndex::Lookup(const Value& element) const {
  auto it = map_.find(element.IndexKey());
  return it == map_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// RangeIndex
// ---------------------------------------------------------------------------

void RangeIndex::Insert(DocId id, const Document& doc) {
  const Value* v = doc.GetPath(path_);
  if (v == nullptr) return;
  if (v->is_array()) {
    ++array_docs_;
    for (const Value& element : v->as_array()) tree_.Insert(element, id);
  } else {
    tree_.Insert(*v, id);
  }
}

void RangeIndex::Remove(DocId id, const Document& doc) {
  const Value* v = doc.GetPath(path_);
  if (v == nullptr) return;
  if (v->is_array()) {
    --array_docs_;
    for (const Value& element : v->as_array()) tree_.Remove(element, id);
  } else {
    tree_.Remove(*v, id);
  }
}

size_t RangeIndex::CountInRange(const Value* lower, bool lower_inclusive,
                                const Value* upper,
                                bool upper_inclusive) const {
  size_t sum = 0;
  tree_.Scan(lower, lower_inclusive, upper, upper_inclusive,
             [&sum](const Value&, const std::vector<DocId>& postings) {
               sum += postings.size();
             });
  return sum;
}

std::vector<DocId> RangeIndex::Scan(const Value* lower, bool lower_inclusive,
                                    const Value* upper,
                                    bool upper_inclusive) const {
  std::vector<DocId> out =
      tree_.ScanIds(lower, lower_inclusive, upper, upper_inclusive);
  // Callers (the query planner) expect sorted, de-duplicated candidates;
  // array-valued fields can index one document under several keys.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// GeoIndex
// ---------------------------------------------------------------------------

void GeoIndex::Insert(DocId id, const Document& doc) {
  geo::BoundingBox stored;
  if (!Filter::ReadStoredBox(doc, path_, &stored)) return;
  auto hash = geo::GeohashEncode(stored.Center(), precision_);
  if (!hash.ok()) return;
  auto& list = cells_[*hash];
  list.insert(std::upper_bound(list.begin(), list.end(), id), id);
}

void GeoIndex::Remove(DocId id, const Document& doc) {
  geo::BoundingBox stored;
  if (!Filter::ReadStoredBox(doc, path_, &stored)) return;
  auto hash = geo::GeohashEncode(stored.Center(), precision_);
  if (!hash.ok()) return;
  auto it = cells_.find(*hash);
  if (it == cells_.end()) return;
  RemoveFromPostingList(&it->second, id);
  if (it->second.empty()) cells_.erase(it);
}

namespace {

/// Expands a query box by one patch-size margin so rectangles whose
/// center lies just outside but that still intersect are found.
geo::BoundingBox PadQueryBox(const geo::BoundingBox& query) {
  geo::BoundingBox padded = query;
  const double margin = 0.02;  // ~2 km; generous for 1.2 km patches
  padded.min.lat -= margin;
  padded.min.lon -= margin;
  padded.max.lat += margin;
  padded.max.lon += margin;
  return padded;
}

}  // namespace

std::vector<DocId> GeoIndex::Candidates(const geo::BoundingBox& query) const {
  const std::vector<std::string> cover =
      geo::GeohashCover(PadQueryBox(query), precision_);
  std::vector<DocId> out;
  for (const std::string& prefix : cover) {
    // Ordered prefix scan: covers cells at the index precision even when
    // the cover had to fall back to a coarser precision.
    for (auto it = cells_.lower_bound(prefix);
         it != cells_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t GeoIndex::CountCandidates(const geo::BoundingBox& query) const {
  const std::vector<std::string> cover =
      geo::GeohashCover(PadQueryBox(query), precision_);
  size_t sum = 0;
  for (const std::string& prefix : cover) {
    for (auto it = cells_.lower_bound(prefix);
         it != cells_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      sum += it->second.size();
    }
  }
  return sum;
}

}  // namespace agoraeo::docstore
