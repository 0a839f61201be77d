#include "index/hamming_table.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>

#include "index/frontier.h"

namespace agoraeo::index {

namespace {

/// Visits every code at distance EXACTLY `flips` from the current state
/// of `scratch` (which is restored before returning) — the per-ring
/// step of the ring walk, where ring r must not re-visit rings < r.
void EnumerateExactRing(BinaryCode* scratch, uint32_t flips,
                        const std::function<void(const BinaryCode&)>& visit) {
  std::function<void(size_t, uint32_t)> recurse = [&](size_t start,
                                                      uint32_t remaining) {
    if (remaining == 0) {
      visit(*scratch);
      return;
    }
    // i + remaining <= size: leave room for the flips still owed.
    for (size_t i = start; i + remaining <= scratch->size(); ++i) {
      scratch->FlipBit(i);
      recurse(i + 1, remaining - 1);
      scratch->FlipBit(i);
    }
  };
  recurse(0, flips);
}

/// Visits every key with EXACTLY `flips` of the low `bits` bits flipped
/// relative to `base`.
void EnumerateExactRing64(uint64_t base, size_t bits, uint32_t flips,
                          const std::function<void(uint64_t)>& visit) {
  std::function<void(size_t, uint64_t, uint32_t)> recurse =
      [&](size_t start, uint64_t value, uint32_t remaining) {
        if (remaining == 0) {
          visit(value);
          return;
        }
        for (size_t i = start; i + remaining <= bits; ++i) {
          recurse(i + 1, value ^ (1ULL << i), remaining - 1);
        }
      };
  recurse(0, base, flips);
}

/// Orders a min-heap of SearchResult under the canonical (distance, id)
/// order.
struct ResultGreater {
  bool operator()(const SearchResult& a, const SearchResult& b) const {
    return ResultLess(b, a);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// HammingHashTable
// ---------------------------------------------------------------------------

size_t HammingHashTable::ProbeCount(size_t bits, uint32_t radius) {
  size_t total = 0;
  // C(bits, 0) + C(bits, 1) + ... + C(bits, radius), saturating.
  double binom = 1.0;
  for (uint32_t i = 0; i <= radius; ++i) {
    if (binom > 1e18) return SIZE_MAX;
    total += static_cast<size_t>(binom);
    binom = binom * static_cast<double>(bits - i) / static_cast<double>(i + 1);
  }
  return total;
}

Status HammingHashTable::Add(ItemId id, const BinaryCode& code) {
  if (code.empty()) return Status::InvalidArgument("empty code");
  if (code_bits_ == 0) code_bits_ = code.size();
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  buckets_[code].push_back(id);
  ++num_items_;
  return Status::OK();
}

namespace {

/// Lazy ring walk over the single hash table: ring r (codes at distance
/// exactly r) is enumerated only when the consumer drains past ring
/// r-1, and once ring r would cross the probe-count crossover the
/// remaining distances are collected in one bucketed scan (a radius
/// search past the crossover starts with that scan).  Borrows the
/// bucket map — the caller keeps the index alive (the segment layer
/// pins it).
class HashRingFrontier : public HitFrontier {
 public:
  using BucketMap =
      std::unordered_map<BinaryCode, std::vector<ItemId>, BinaryCodeHash>;

  HashRingFrontier(const BucketMap* buckets, size_t code_bits,
                   size_t num_items, const BinaryCode& query,
                   const FrontierOptions& options)
      : buckets_(buckets),
        code_bits_(code_bits),
        num_items_(num_items),
        query_(query),
        max_d_(options.radius.has_value()
                   ? std::min<uint32_t>(*options.radius,
                                        static_cast<uint32_t>(code_bits))
                   : static_cast<uint32_t>(code_bits)),
        allowed_(options.allowed),
        limit_(options.limit),
        stats_(options.stats) {
    // A radius search decides probe vs scan once, from the probes the
    // whole radius would cost; a k-NN walk decides ring by ring.
    if (options.radius.has_value() && num_items_ > 0 &&
        HammingHashTable::ProbeCount(code_bits_, *options.radius) >
            buckets_->size() * 2) {
      BuildTail();
    }
  }

  size_t Next(size_t n, std::vector<SearchResult>* out) override {
    size_t produced = 0;
    while (produced < n) {
      if (pos_ < ring_.size()) {
        const size_t take = std::min(n - produced, ring_.size() - pos_);
        out->insert(out->end(), ring_.begin() + pos_,
                    ring_.begin() + pos_ + take);
        pos_ += take;
        produced += take;
        continue;
      }
      if (tail_ != nullptr) {
        const size_t got = tail_->Next(n - produced, out);
        produced += got;
        if (got == 0) break;  // the tail covered every remaining distance
        continue;
      }
      if (done_) break;
      AdvanceRing();
    }
    return produced;
  }

 private:
  void AdvanceRing() {
    ring_.clear();
    pos_ = 0;
    if (r_ > max_d_ || collected_ >= num_items_) {
      done_ = true;
      return;
    }
    if (HammingHashTable::ProbeCount(code_bits_, r_) > buckets_->size() * 2) {
      BuildTail();
      return;
    }
    size_t probes = 0;
    size_t candidates = 0;
    BinaryCode scratch = query_;
    EnumerateExactRing(&scratch, r_, [&](const BinaryCode& probe) {
      ++probes;
      auto it = buckets_->find(probe);
      if (it == buckets_->end()) return;
      candidates += it->second.size();
      for (ItemId id : it->second) {
        if (allowed_ != nullptr && !allowed_->Contains(id)) continue;
        ring_.push_back({id, r_});
      }
    });
    collected_ += candidates;
    std::sort(ring_.begin(), ring_.end(), ResultLess);
    if (stats_ != nullptr) {
      stats_->buckets_probed += probes;
      stats_->candidates += candidates;
      stats_->results += ring_.size();
    }
    ++r_;
  }

  /// One scan of every bucket for the remaining distances [r_, max_d_],
  /// handed to a lazily-sorted distance-group drain.  A bounded walk
  /// keeps only the `limit` nearest of them.
  void BuildTail() {
    std::vector<SearchResult> hits;
    size_t candidates = 0;
    for (const auto& [code, items] : *buckets_) {
      const uint32_t d = static_cast<uint32_t>(query_.HammingDistance(code));
      if (d < r_ || d > max_d_) continue;
      candidates += items.size();
      for (ItemId id : items) {
        if (allowed_ != nullptr && !allowed_->Contains(id)) continue;
        hits.push_back({id, d});
      }
    }
    if (limit_ != 0 && hits.size() > limit_) {
      std::nth_element(hits.begin(), hits.begin() + limit_, hits.end(),
                       ResultLess);
      hits.resize(limit_);
      hits.shrink_to_fit();
    }
    if (stats_ != nullptr) {
      stats_->buckets_probed += buckets_->size();
      stats_->candidates += candidates;
      stats_->results += hits.size();
    }
    tail_ = std::make_unique<DistanceBucketFrontier>(std::move(hits), max_d_);
  }

  const BucketMap* buckets_;
  const size_t code_bits_;
  const size_t num_items_;
  const BinaryCode query_;
  const uint32_t max_d_;
  const CandidateSet* allowed_;
  const size_t limit_;
  SearchStats* const stats_;

  uint32_t r_ = 0;          ///< next ring to enumerate
  size_t collected_ = 0;    ///< items found so far (pre-allowlist)
  std::vector<SearchResult> ring_;  ///< current ring's hits, id-sorted
  size_t pos_ = 0;
  std::unique_ptr<DistanceBucketFrontier> tail_;
  bool done_ = false;
};

}  // namespace

std::unique_ptr<HitFrontier> HammingHashTable::OpenFrontier(
    const BinaryCode& query, const FrontierOptions& options) const {
  return std::make_unique<HashRingFrontier>(&buckets_, code_bits_, num_items_,
                                            query, options);
}

// ---------------------------------------------------------------------------
// MultiIndexHashing
// ---------------------------------------------------------------------------

void MultiIndexHashing::SubstringRange(size_t j, size_t* begin,
                                       size_t* len) const {
  // Balanced split: the first (bits % m) substrings get one extra bit.
  const size_t base = code_bits_ / m_;
  const size_t extra = code_bits_ % m_;
  *begin = j * base + std::min(j, extra);
  *len = base + (j < extra ? 1 : 0);
}

Status MultiIndexHashing::Add(ItemId id, const BinaryCode& code) {
  if (code.empty()) return Status::InvalidArgument("empty code");
  if (m_ == 0 || m_ > code.size()) {
    return Status::InvalidArgument("invalid substring count");
  }
  if (code_bits_ == 0) {
    code_bits_ = code.size();
    if ((code_bits_ + m_ - 1) / m_ > 64) {
      return Status::InvalidArgument("substrings longer than 64 bits");
    }
    tables_.resize(m_);
  }
  if (code.size() != code_bits_) {
    return Status::InvalidArgument("code length mismatch");
  }
  const uint32_t pos = static_cast<uint32_t>(ids_.size());
  ids_.push_back(id);
  codes_.push_back(code);
  for (size_t j = 0; j < m_; ++j) {
    size_t begin, len;
    SubstringRange(j, &begin, &len);
    const uint64_t key = code.Substring(begin, len).LowWord();
    tables_[j][key].push_back(pos);
  }
  return Status::OK();
}

namespace {

/// Lazy substring-ring deepening over the multi-index tables.  Sub-ring
/// s probes every table at sub-distance exactly s; each newly seen
/// candidate is verified against the full code once and parked in a
/// (distance, id) min-heap.  The pigeonhole argument releases hits
/// incrementally: after sub-ring s completes, any code at full distance
/// D <= m*(s+1)-1 has some substring within distance floor(D/m) <= s of
/// the query's, so it has been seen — everything parked at or below
/// that bound is final.  Falls back to one verified scan when the
/// enumeration would out-probe the stored codes, and stops deepening
/// once the bound covers the radius.
class SubRingFrontier : public HitFrontier {
 public:
  using Table = std::unordered_map<uint64_t, std::vector<uint32_t>>;

  SubRingFrontier(const std::vector<Table>* tables,
                  const std::vector<ItemId>* ids,
                  const std::vector<BinaryCode>* codes, size_t m,
                  std::vector<std::pair<size_t, size_t>> ranges,
                  std::vector<uint64_t> keys, const BinaryCode& query,
                  uint32_t max_d, const CandidateSet* allowed,
                  SearchStats* stats)
      : tables_(tables),
        ids_(ids),
        codes_(codes),
        m_(m),
        ranges_(std::move(ranges)),
        keys_(std::move(keys)),
        query_(query),
        max_d_(max_d),
        allowed_(allowed),
        stats_(stats),
        seen_(codes->size(), false) {
    for (const auto& [begin, len] : ranges_) {
      max_len_ = std::max(max_len_, len);
    }
  }

  size_t Next(size_t n, std::vector<SearchResult>* out) override {
    size_t produced = 0;
    while (produced < n) {
      if (!pending_.empty() &&
          (done_deepening_ ||
           static_cast<int64_t>(pending_.top().distance) <= safe_bound_)) {
        out->push_back(pending_.top());
        pending_.pop();
        ++produced;
        continue;
      }
      if (done_deepening_) break;  // pending drained: exhausted
      DeepenOneSubRing();
    }
    return produced;
  }

 private:
  void DeepenOneSubRing() {
    if (seen_count_ == codes_->size() ||
        s_ > static_cast<uint32_t>(max_len_) ||
        safe_bound_ >= static_cast<int64_t>(max_d_)) {
      done_deepening_ = true;
      return;
    }
    const size_t probes = HammingHashTable::ProbeCount(max_len_, s_);
    if (probes == SIZE_MAX || probes > codes_->size() + 1) {
      // Verified scan of everything not yet seen; completes discovery.
      if (stats_ != nullptr) stats_->buckets_probed += codes_->size();
      for (size_t pos = 0; pos < codes_->size(); ++pos) {
        if (seen_[pos]) continue;
        seen_[pos] = true;
        ++seen_count_;
        Verify(pos);
      }
      done_deepening_ = true;
      return;
    }
    for (size_t j = 0; j < m_; ++j) {
      const auto [begin, len] = ranges_[j];
      if (s_ > len) continue;
      EnumerateExactRing64(keys_[j], len, s_, [&](uint64_t probe) {
        if (stats_ != nullptr) ++stats_->buckets_probed;
        auto it = (*tables_)[j].find(probe);
        if (it == (*tables_)[j].end()) return;
        for (uint32_t pos : it->second) {
          if (seen_[pos]) continue;
          seen_[pos] = true;
          ++seen_count_;
          Verify(pos);
        }
      });
    }
    safe_bound_ = static_cast<int64_t>(m_) * (s_ + 1) - 1;
    ++s_;
  }

  void Verify(size_t pos) {
    if (stats_ != nullptr) ++stats_->candidates;
    if (allowed_ != nullptr && !allowed_->Contains((*ids_)[pos])) return;
    const uint32_t d =
        static_cast<uint32_t>((*codes_)[pos].HammingDistance(query_));
    if (d > max_d_) return;
    pending_.push({(*ids_)[pos], d});
    if (stats_ != nullptr) ++stats_->results;
  }

  const std::vector<Table>* tables_;
  const std::vector<ItemId>* ids_;
  const std::vector<BinaryCode>* codes_;
  const size_t m_;
  const std::vector<std::pair<size_t, size_t>> ranges_;  ///< (begin, len)
  const std::vector<uint64_t> keys_;  ///< query's per-table substring keys
  const BinaryCode query_;
  const uint32_t max_d_;
  const CandidateSet* allowed_;
  SearchStats* const stats_;

  size_t max_len_ = 0;
  std::vector<bool> seen_;
  size_t seen_count_ = 0;
  uint32_t s_ = 0;          ///< next sub-ring depth
  int64_t safe_bound_ = -1; ///< full distances proven complete so far
  bool done_deepening_ = false;
  std::priority_queue<SearchResult, std::vector<SearchResult>, ResultGreater>
      pending_;
};

}  // namespace

std::unique_ptr<HitFrontier> MultiIndexHashing::OpenFrontier(
    const BinaryCode& query, const FrontierOptions& options) const {
  if (codes_.empty()) {
    return std::make_unique<MaterializedFrontier>(std::vector<SearchResult>{});
  }
  const uint32_t max_d =
      options.radius.has_value()
          ? std::min<uint32_t>(*options.radius,
                               static_cast<uint32_t>(code_bits_))
          : static_cast<uint32_t>(code_bits_);
  std::vector<std::pair<size_t, size_t>> ranges(m_);
  std::vector<uint64_t> keys(m_);
  for (size_t j = 0; j < m_; ++j) {
    SubstringRange(j, &ranges[j].first, &ranges[j].second);
    keys[j] = query.Substring(ranges[j].first, ranges[j].second).LowWord();
  }
  return std::make_unique<SubRingFrontier>(&tables_, &ids_, &codes_, m_,
                                           std::move(ranges), std::move(keys),
                                           query, max_d, options.allowed,
                                           options.stats);
}

}  // namespace agoraeo::index
