#include "index/hamming_index.h"

#include <algorithm>

#include "index/batch_util.h"
#include "index/frontier.h"

namespace agoraeo::index {

bool ResultLess(const SearchResult& a, const SearchResult& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.id < b.id;
}

CandidateSet::CandidateSet(std::vector<ItemId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

bool CandidateSet::Contains(ItemId id) const {
  return std::binary_search(ids_.begin(), ids_.end(), id);
}

Status HammingIndex::BatchAdd(const std::vector<ItemId>& ids,
                              const std::vector<BinaryCode>& codes,
                              ThreadPool* /*pool*/) {
  if (ids.size() != codes.size()) {
    return Status::InvalidArgument("BatchAdd ids/codes length mismatch");
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    AGORAEO_RETURN_IF_ERROR(Add(ids[i], codes[i]));
  }
  return Status::OK();
}

std::vector<std::unique_ptr<HitFrontier>> HammingIndex::OpenFrontiers(
    const std::vector<BinaryCode>& queries, const FrontierOptions& options,
    ThreadPool* pool) const {
  std::vector<std::unique_ptr<HitFrontier>> out(queries.size());
  RunSharded(queries.size(), pool, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = OpenFrontier(queries[i], options);
    }
  });
  return out;
}

}  // namespace agoraeo::index
