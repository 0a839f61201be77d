#ifndef AGORAEO_INDEX_HAMMING_TABLE_H_
#define AGORAEO_INDEX_HAMMING_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "index/hamming_index.h"

namespace agoraeo::index {

/// The paper's retrieval structure (Section 2.2): a hash table that
/// "stores all images with the same hash code in the same hash bucket";
/// retrieval probes "all images in the hash buckets that are within a
/// small hamming radius of the query image".
///
/// Lookup walks probe rings outward from the query code (ring r holds
/// the C(bits, r) codes at distance exactly r).  Because that blows up
/// for larger radii, a radius search whose sum of C(bits, i) probes
/// exceeds twice the non-empty bucket count scans the buckets instead,
/// decided up front — the behaviour stays exact, and experiment E3
/// charts the crossover.
class HammingHashTable : public HammingIndex {
 public:
  Status Add(ItemId id, const BinaryCode& code) override;

  /// Lazy ranked access: walks probe rings outward (exact-distance mask
  /// enumeration per ring) and switches to one bucketed scan of the
  /// remaining distances once the next ring would cross the probe-count
  /// crossover; a radius search past the crossover scans from the
  /// start.  Ring r is only enumerated when the consumer drains past
  /// distance r-1.  Restricted walks admit only allowlisted ids.
  std::unique_ptr<HitFrontier> OpenFrontier(
      const BinaryCode& query, const FrontierOptions& options) const override;

  size_t size() const override { return num_items_; }
  std::string Name() const override { return "HammingHashTable"; }

  size_t num_buckets() const { return buckets_.size(); }

  /// Number of hash probes a radius-r lookup would enumerate
  /// (sum_{i<=r} C(bits, i), saturated at SIZE_MAX).
  static size_t ProbeCount(size_t bits, uint32_t radius);

 private:
  std::unordered_map<BinaryCode, std::vector<ItemId>, BinaryCodeHash> buckets_;
  size_t code_bits_ = 0;
  size_t num_items_ = 0;
};

/// Multi-index hashing (Norouzi, Punjani & Fleet): the code is split into
/// m disjoint substrings, each indexed in its own exact-match table.  If
/// two codes differ by at most r bits, some substring differs by at most
/// floor(r/m) bits (pigeonhole), so probing every substring table at that
/// reduced radius finds a complete candidate set, verified against the
/// full code.  This keeps radius search tractable where single-table
/// mask enumeration explodes (experiment E3's crossover).
class MultiIndexHashing : public HammingIndex {
 public:
  /// `num_substrings` must divide typical code lengths reasonably; each
  /// substring must be <= 64 bits.
  explicit MultiIndexHashing(size_t num_substrings = 4)
      : m_(num_substrings) {}

  Status Add(ItemId id, const BinaryCode& code) override;
  /// Lazy ranked access: deepens the per-table substring probe rings one
  /// sub-distance at a time (each candidate verified against the full
  /// code once), releasing hits as soon as the pigeonhole bound proves
  /// them complete — after sub-ring s every code within full distance
  /// m·(s+1)-1 has been seen.  Falls back to one verified scan when the
  /// enumeration would out-probe the stored codes.
  std::unique_ptr<HitFrontier> OpenFrontier(
      const BinaryCode& query, const FrontierOptions& options) const override;
  size_t size() const override { return ids_.size(); }
  std::string Name() const override { return "MultiIndexHashing"; }

  size_t num_substrings() const { return m_; }

 private:
  /// Bit range of substring j (balanced split).
  void SubstringRange(size_t j, size_t* begin, size_t* len) const;

  size_t m_;
  size_t code_bits_ = 0;
  std::vector<ItemId> ids_;
  std::vector<BinaryCode> codes_;
  /// One exact-match table per substring: low word of substring -> item
  /// positions in ids_/codes_.
  std::vector<std::unordered_map<uint64_t, std::vector<uint32_t>>> tables_;
};

}  // namespace agoraeo::index

#endif  // AGORAEO_INDEX_HAMMING_TABLE_H_
