#ifndef AGORAEO_DOCSTORE_INDEX_H_
#define AGORAEO_DOCSTORE_INDEX_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "docstore/btree.h"
#include "docstore/filter.h"
#include "docstore/value.h"
#include "geo/geo.h"

namespace agoraeo::docstore {

/// Exact-match index over one field path.  When `unique` is set, inserts
/// of duplicate keys are rejected — EarthQube relies on this for the
/// patch-name primary key of the image-data collection.
class HashIndex {
 public:
  HashIndex(std::string path, bool unique)
      : path_(std::move(path)), unique_(unique) {}

  /// Indexes `doc`; AlreadyExists for duplicate keys on a unique index.
  /// Documents lacking the path are not indexed (sparse behaviour).
  Status Insert(DocId id, const Document& doc);
  void Remove(DocId id, const Document& doc);

  /// Posting list for a key (nullptr when absent).
  const std::vector<DocId>* Lookup(const Value& v) const;

  const std::string& path() const { return path_; }
  bool unique() const { return unique_; }
  size_t num_keys() const { return map_.size(); }

 private:
  std::string path_;
  bool unique_;
  std::unordered_map<std::string, std::vector<DocId>> map_;
};

/// Multikey index over an array-valued field: every element of the array
/// points back to the document, which accelerates label filters
/// (Some/Exactly/AtLeast&More resolve to In/Eq/All over the labels array).
class MultikeyIndex {
 public:
  explicit MultikeyIndex(std::string path) : path_(std::move(path)) {}

  void Insert(DocId id, const Document& doc);
  void Remove(DocId id, const Document& doc);

  /// Posting list of documents whose array contains `element`.
  const std::vector<DocId>* Lookup(const Value& element) const;

  const std::string& path() const { return path_; }
  size_t num_keys() const { return map_.size(); }

 private:
  std::string path_;
  std::unordered_map<std::string, std::vector<DocId>> map_;
};

/// Order-preserving secondary index over one field path, backed by a
/// B+-tree — the analogue of MongoDB's default B-tree index.  EarthQube
/// uses it for acquisition-date range filters (Gt/Gte/Lt/Lte and their
/// conjunctions) where hash indexes cannot help.
class RangeIndex {
 public:
  explicit RangeIndex(std::string path, size_t order = 64)
      : path_(std::move(path)), tree_(order) {}

  /// Indexes `doc` (sparse: documents lacking the path are skipped).
  /// Array values index every element, like the multikey index.
  void Insert(DocId id, const Document& doc);
  void Remove(DocId id, const Document& doc);

  /// Ids of documents whose key lies in the interval; null bounds are
  /// unbounded.  Sorted by DocId and de-duplicated.
  std::vector<DocId> Scan(const Value* lower, bool lower_inclusive,
                          const Value* upper, bool upper_inclusive) const;

  /// Upper bound on |Scan(...)|: sums posting-list lengths over the
  /// interval without materialising or de-duplicating ids.  O(keys in
  /// interval) — the fallback estimator when no histogram covers the
  /// path (non-numeric keys).
  size_t CountInRange(const Value* lower, bool lower_inclusive,
                      const Value* upper, bool upper_inclusive) const;

  const std::string& path() const { return path_; }
  size_t num_keys() const { return tree_.num_keys(); }
  const BPlusTree& tree() const { return tree_; }

  /// Whether any indexed document holds an array at the path.  Range
  /// conjuncts on such a path may be met by different elements, so
  /// they cannot be intersected into one interval.
  bool has_arrays() const { return array_docs_ > 0; }

 private:
  std::string path_;
  BPlusTree tree_;
  size_t array_docs_ = 0;
};

/// 2D geohash index over a location field holding the image bounding
/// rectangle — the substitute for MongoDB's built-in geohashing index the
/// paper mentions.  Rectangle centers are hashed at a fixed precision;
/// queries expand to a geohash cell cover and do ordered prefix scans, so
/// coarser covers still find finer cells.
class GeoIndex {
 public:
  GeoIndex(std::string path, int precision)
      : path_(std::move(path)), precision_(precision) {}

  void Insert(DocId id, const Document& doc);
  void Remove(DocId id, const Document& doc);

  /// Candidate documents for a query area (superset of true matches;
  /// callers re-verify with the filter).
  std::vector<DocId> Candidates(const geo::BoundingBox& query) const;

  /// Upper bound on |Candidates(query)|: sums cell posting-list lengths
  /// over the cover without materialising or de-duplicating ids.
  size_t CountCandidates(const geo::BoundingBox& query) const;

  const std::string& path() const { return path_; }
  int precision() const { return precision_; }
  size_t num_cells() const { return cells_.size(); }

 private:
  std::string path_;
  int precision_;
  // Ordered so that coarse prefixes can range-scan finer cells.
  std::map<std::string, std::vector<DocId>> cells_;
};

}  // namespace agoraeo::docstore

#endif  // AGORAEO_DOCSTORE_INDEX_H_
