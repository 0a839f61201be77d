/// Tests of the segment-structured index and its durability layer:
/// segmented-vs-flat byte parity across the three index kinds, the
/// lock-free sealed-read protocol under an 8-thread ingest+query hammer
/// (part of the TSan CI job), snapshot round-trips and corruption
/// fallback, index-WAL torn-tail recovery, full service restart parity
/// across shardings, and the single epoch bump on recovery.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "cbir_test_util.h"
#include "bigearthnet/feature_extractor.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "earthqube/earthqube.h"
#include "index/hamming_table.h"
#include "index/index_snapshot.h"
#include "index/index_wal.h"
#include "index/linear_scan.h"
#include "index/segmented_index.h"
#include "index/sharded_index.h"
#include "milan/milan_model.h"
#include "frontier_test_util.h"

namespace agoraeo::index {
namespace {

BinaryCode RandomCode(size_t bits, Rng* rng) {
  BinaryCode code(bits);
  for (size_t i = 0; i < bits; ++i) code.SetBit(i, rng->Bernoulli(0.5));
  return code;
}

enum class Kind { kHashTable, kMultiIndex, kLinearScan };

const Kind kAllKinds[] = {Kind::kHashTable, Kind::kMultiIndex,
                          Kind::kLinearScan};

std::unique_ptr<HammingIndex> MakeKind(Kind kind) {
  switch (kind) {
    case Kind::kHashTable:
      return std::make_unique<HammingHashTable>();
    case Kind::kMultiIndex:
      return std::make_unique<MultiIndexHashing>(4);
    case Kind::kLinearScan:
      return std::make_unique<LinearScanIndex>();
  }
  return nullptr;
}

SegmentedHammingIndex::SegmentFactory FactoryFor(Kind kind) {
  return [kind] { return MakeKind(kind); };
}

// ---------------------------------------------------------------------------
// Segmented-vs-flat parity
// ---------------------------------------------------------------------------

/// Every search flavour — plain, candidate-restricted, batched, batched-
/// restricted — must return byte-identical results from a segmented
/// index and a flat one over the same items.
TEST(SegmentedIndex, ParityAcrossKindsAndThresholds) {
  Rng rng(41);
  const size_t kBits = 64;
  const size_t kItems = 240;
  std::vector<BinaryCode> codes;
  for (size_t i = 0; i < kItems; ++i) codes.push_back(RandomCode(kBits, &rng));
  std::vector<BinaryCode> queries(codes.begin(), codes.begin() + 12);
  std::vector<ItemId> allowed_ids;
  for (ItemId id = 0; id < kItems; id += 3) allowed_ids.push_back(id);
  const CandidateSet allowed(allowed_ids);
  ThreadPool pool(4);

  for (Kind kind : kAllKinds) {
    for (size_t threshold : {size_t{1}, size_t{7}, size_t{64}}) {
      auto plain = MakeKind(kind);
      SegmentedHammingIndex segmented(FactoryFor(kind), threshold);
      for (ItemId id = 0; id < kItems; ++id) {
        ASSERT_TRUE(plain->Add(id, codes[id]).ok());
        ASSERT_TRUE(segmented.Add(id, codes[id]).ok());
      }
      ASSERT_EQ(segmented.size(), plain->size());
      // Threshold 1 seals every item: the structure degenerates to all-
      // sealed segments, the most adversarial layout for the merge.
      if (threshold == 1) {
        EXPECT_GE(segmented.Stats().num_sealed, kItems - 1);
      }
      for (const BinaryCode& q : queries) {
        EXPECT_EQ(DrainRadius(segmented, q, 8), DrainRadius(*plain, q, 8));
        EXPECT_EQ(DrainRadius(segmented, q, 16), DrainRadius(*plain, q, 16));
        EXPECT_EQ(DrainKnn(segmented, q, 10), DrainKnn(*plain, q, 10));
        EXPECT_EQ(DrainRadius(segmented, q, 12, &allowed),
                  DrainRadius(*plain, q, 12, &allowed));
        EXPECT_EQ(DrainKnn(segmented, q, 7, &allowed),
                  DrainKnn(*plain, q, 7, &allowed));
      }
      EXPECT_EQ(DrainRadiusBatch(segmented, queries, 10, &pool),
                DrainRadiusBatch(*plain, queries, 10, nullptr));
      EXPECT_EQ(DrainKnnBatch(segmented, queries, 5, &pool),
                DrainKnnBatch(*plain, queries, 5, nullptr));
      EXPECT_EQ(DrainRadiusBatch(segmented, queries, 12, &pool, &allowed),
                DrainRadiusBatch(*plain, queries, 12, nullptr, &allowed));
      EXPECT_EQ(DrainKnnBatch(segmented, queries, 6, &pool, &allowed),
                DrainKnnBatch(*plain, queries, 6, nullptr, &allowed));
    }
  }
}

/// Compaction bounds the sealed-segment fan-out without changing a
/// single result: the merged segment must answer every search flavour
/// byte-identically to a flat index (and to what the uncompacted
/// layout would have answered).
TEST(SegmentedIndex, CompactionBoundsSegmentsAndKeepsParity) {
  Rng rng(43);
  const size_t kBits = 64;
  const size_t kItems = 300;
  std::vector<BinaryCode> codes;
  for (size_t i = 0; i < kItems; ++i) codes.push_back(RandomCode(kBits, &rng));
  std::vector<BinaryCode> queries(codes.begin(), codes.begin() + 10);
  std::vector<ItemId> allowed_ids;
  for (ItemId id = 0; id < kItems; id += 2) allowed_ids.push_back(id);
  const CandidateSet allowed(allowed_ids);
  ThreadPool pool(4);

  for (Kind kind : kAllKinds) {
    auto plain = MakeKind(kind);
    // Seal every 8 items, merge whenever more than 3 sealed segments
    // accumulate: 300 items force many seal/compact cycles.
    SegmentedHammingIndex segmented(FactoryFor(kind), 8, 3);
    for (ItemId id = 0; id < kItems; ++id) {
      ASSERT_TRUE(plain->Add(id, codes[id]).ok());
      ASSERT_TRUE(segmented.Add(id, codes[id]).ok());
    }
    ASSERT_EQ(segmented.size(), plain->size());

    const SegmentedIndexStats stats = segmented.Stats();
    EXPECT_LE(stats.num_sealed, 3u);
    EXPECT_GT(stats.compactions, 0u);
    EXPECT_GT(stats.compacted_segments, stats.compactions);
    EXPECT_EQ(stats.sealed_items + stats.mutable_items, kItems);

    for (const BinaryCode& q : queries) {
      EXPECT_EQ(DrainRadius(segmented, q, 12), DrainRadius(*plain, q, 12));
      EXPECT_EQ(DrainKnn(segmented, q, 9), DrainKnn(*plain, q, 9));
      EXPECT_EQ(DrainRadius(segmented, q, 12, &allowed),
                DrainRadius(*plain, q, 12, &allowed));
      EXPECT_EQ(DrainKnn(segmented, q, 6, &allowed),
                DrainKnn(*plain, q, 6, &allowed));
    }
    EXPECT_EQ(DrainKnnBatch(segmented, queries, 7, &pool),
              DrainKnnBatch(*plain, queries, 7, nullptr));
    EXPECT_EQ(DrainRadiusBatch(segmented, queries, 10, &pool, &allowed),
              DrainRadiusBatch(*plain, queries, 10, nullptr, &allowed));

    // BatchAdd crosses several seal boundaries in one locked pass; the
    // compactor must keep up there too.
    std::vector<ItemId> more_ids;
    std::vector<BinaryCode> more_codes;
    for (size_t i = 0; i < 100; ++i) {
      more_ids.push_back(static_cast<ItemId>(kItems + i));
      more_codes.push_back(RandomCode(kBits, &rng));
      ASSERT_TRUE(plain->Add(more_ids.back(), more_codes.back()).ok());
    }
    ASSERT_TRUE(segmented.BatchAdd(more_ids, more_codes, &pool).ok());
    ASSERT_EQ(segmented.size(), plain->size());
    EXPECT_LE(segmented.Stats().num_sealed, 3u);
    for (const BinaryCode& q : queries) {
      EXPECT_EQ(DrainKnn(segmented, q, 11), DrainKnn(*plain, q, 11));
      EXPECT_EQ(DrainRadius(segmented, q, 14), DrainRadius(*plain, q, 14));
    }
  }
}

TEST(SegmentedIndex, NameIsTransparentAndStatsTrackSeals) {
  SegmentedHammingIndex segmented(FactoryFor(Kind::kLinearScan), 4);
  EXPECT_EQ(segmented.Name(), "LinearScan");
  Rng rng(7);
  for (ItemId id = 0; id < 10; ++id) {
    ASSERT_TRUE(segmented.Add(id, RandomCode(32, &rng)).ok());
  }
  SegmentedIndexStats stats = segmented.Stats();
  EXPECT_EQ(stats.seals, 2u);  // sealed at 4 and 8
  EXPECT_EQ(stats.num_sealed, 2u);
  EXPECT_EQ(stats.sealed_items, 8u);
  EXPECT_EQ(stats.mutable_items, 2u);
  // Explicit seal rotates the 2-item tail; a second is a no-op.
  ASSERT_TRUE(segmented.Seal().ok());
  ASSERT_TRUE(segmented.Seal().ok());
  stats = segmented.Stats();
  EXPECT_EQ(stats.seals, 3u);
  EXPECT_EQ(stats.mutable_items, 0u);
  EXPECT_EQ(stats.sealed_items, 10u);
}

TEST(SegmentedIndex, ThresholdZeroNeverAutoSeals) {
  SegmentedHammingIndex segmented(FactoryFor(Kind::kHashTable), 0);
  Rng rng(9);
  for (ItemId id = 0; id < 100; ++id) {
    ASSERT_TRUE(segmented.Add(id, RandomCode(32, &rng)).ok());
  }
  EXPECT_EQ(segmented.Stats().num_sealed, 0u);
  EXPECT_EQ(segmented.Stats().mutable_items, 100u);
}

TEST(SegmentedIndex, RejectsMismatchedCodeLengthAcrossSegments) {
  SegmentedHammingIndex segmented(FactoryFor(Kind::kLinearScan), 2);
  Rng rng(3);
  for (ItemId id = 0; id < 4; ++id) {
    ASSERT_TRUE(segmented.Add(id, RandomCode(64, &rng)).ok());
  }
  // A fresh mutable segment is empty, but the cross-segment anchor must
  // still reject a different length.
  EXPECT_FALSE(segmented.Add(99, RandomCode(32, &rng)).ok());
}

// ---------------------------------------------------------------------------
// Concurrency: lock-free sealed reads under ingest (TSan)
// ---------------------------------------------------------------------------

/// 8 threads — 4 writers appending disjoint id ranges with a small seal
/// threshold (so seals rotate constantly under the readers), 4 readers
/// hammering every search flavour.  TSan proves the sealed-segment scan
/// really is safe without the per-shard lock; the final parity check
/// proves no item was lost or duplicated by a racing seal.
TEST(SegmentedIndex, ConcurrentIngestAndQueryHammer) {
  const size_t kBits = 64;
  const size_t kPerWriter = 400;
  const size_t kWriters = 4;
  SegmentedHammingIndex segmented(FactoryFor(Kind::kHashTable), 16);

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&segmented, w] {
      Rng rng(100 + w);
      for (size_t i = 0; i < kPerWriter; ++i) {
        const ItemId id = w * kPerWriter + i;
        ASSERT_TRUE(segmented.Add(id, RandomCode(kBits, &rng)).ok());
      }
    });
  }
  for (size_t r = 0; r < 4; ++r) {
    threads.emplace_back([&segmented, r] {
      Rng rng(200 + r);
      for (size_t i = 0; i < 120; ++i) {
        const BinaryCode q = RandomCode(kBits, &rng);
        auto radius_hits = DrainRadius(segmented, q, 12);
        auto knn_hits = DrainKnn(segmented, q, 5);
        // Results must always be canonically ordered, even mid-seal.
        EXPECT_TRUE(std::is_sorted(radius_hits.begin(), radius_hits.end(),
                                   ResultLess));
        EXPECT_TRUE(
            std::is_sorted(knn_hits.begin(), knn_hits.end(), ResultLess));
        (void)segmented.size();
        (void)segmented.Stats();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(segmented.size(), kWriters * kPerWriter);
  EXPECT_GT(segmented.Stats().num_sealed, 0u);
}

/// The same hammer one layer up: a 4-shard index whose shards seal and
/// rotate while batched queries fan out across them on a pool.
TEST(ShardedIndex, ConcurrentSealRotateAndBatchedQueries) {
  const size_t kBits = 64;
  ShardedHammingIndex sharded(
      4, [] { return MakeKind(Kind::kHashTable); }, /*seal_threshold=*/16);
  ThreadPool pool(4);

  std::vector<std::thread> threads;
  for (size_t w = 0; w < 4; ++w) {
    threads.emplace_back([&sharded, w] {
      Rng rng(300 + w);
      for (size_t i = 0; i < 250; ++i) {
        ASSERT_TRUE(sharded.Add(w * 250 + i, RandomCode(kBits, &rng)).ok());
      }
    });
  }
  for (size_t r = 0; r < 4; ++r) {
    threads.emplace_back([&sharded, &pool, r] {
      Rng rng(400 + r);
      for (size_t i = 0; i < 40; ++i) {
        std::vector<BinaryCode> queries;
        for (size_t q = 0; q < 8; ++q) queries.push_back(RandomCode(kBits, &rng));
        const auto batch = DrainRadiusBatch(sharded, queries, 10, &pool);
        for (const auto& slot : batch) {
          EXPECT_TRUE(std::is_sorted(slot.begin(), slot.end(), ResultLess));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sharded.size(), 1000u);
  EXPECT_GT(sharded.Stats().seals, 0u);
}

// ---------------------------------------------------------------------------
// Snapshot files
// ---------------------------------------------------------------------------

const char* kTestRoot = "/tmp/agoraeo_persistence_test";

std::string FreshDir(const std::string& name) {
  const std::string dir = std::string(kTestRoot) + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

IndexSnapshot SampleSnapshot() {
  IndexSnapshot snap;
  snap.shard_index = 2;
  snap.num_shards = 4;
  snap.watermark = 77;
  snap.code_bits = 96;
  snap.words_per_code = 2;
  Rng rng(5);
  for (ItemId id = 0; id < 30; ++id) {
    snap.ids.push_back(id * 4 + 2);
    snap.names.push_back("patch_" + std::to_string(id));
    for (int w = 0; w < 2; ++w) {
      snap.code_words.push_back(
          (static_cast<uint64_t>(rng.UniformInt(0xFFFFFFFFu)) << 32) |
          rng.UniformInt(0xFFFFFFFFu));
    }
  }
  return snap;
}

TEST(IndexSnapshot, RoundTrip) {
  const std::string dir = FreshDir("snap_roundtrip");
  const std::string path = ShardSnapshotPath(dir, 2);
  const IndexSnapshot snap = SampleSnapshot();
  ASSERT_TRUE(WriteIndexSnapshot(path, snap).ok());

  auto read = ReadIndexSnapshot(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->shard_index, snap.shard_index);
  EXPECT_EQ(read->num_shards, snap.num_shards);
  EXPECT_EQ(read->watermark, snap.watermark);
  EXPECT_EQ(read->code_bits, snap.code_bits);
  EXPECT_EQ(read->words_per_code, snap.words_per_code);
  EXPECT_EQ(read->ids, snap.ids);
  EXPECT_EQ(read->names, snap.names);
  EXPECT_EQ(read->code_words, snap.code_words);
}

TEST(IndexSnapshot, MissingFileIsNotFound) {
  const std::string dir = FreshDir("snap_missing");
  auto read = ReadIndexSnapshot(ShardSnapshotPath(dir, 0));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
}

/// Satellite: a bit flip anywhere in the file must surface as
/// Corruption (never a crash, never silently wrong data).
TEST(IndexSnapshot, BitFlipAnywhereIsCorruption) {
  const std::string dir = FreshDir("snap_bitflip");
  const std::string path = ShardSnapshotPath(dir, 2);
  ASSERT_TRUE(WriteIndexSnapshot(path, SampleSnapshot()).ok());
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);

  for (size_t pos : {size_t{0}, size_t{5}, size_t{12}, size_t{40},
                     bytes.size() / 2, bytes.size() - 1}) {
    std::vector<char> flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    out.close();
    auto read = ReadIndexSnapshot(path);
    ASSERT_FALSE(read.ok()) << "bit flip at byte " << pos << " not caught";
    EXPECT_TRUE(read.status().IsCorruption())
        << "bit flip at byte " << pos << ": " << read.status().message();
  }
}

TEST(IndexSnapshot, TruncationIsCorruption) {
  const std::string dir = FreshDir("snap_trunc");
  const std::string path = ShardSnapshotPath(dir, 2);
  ASSERT_TRUE(WriteIndexSnapshot(path, SampleSnapshot()).ok());
  const auto full = std::filesystem::file_size(path);
  for (uint64_t keep : {full / 2, full - 1, uint64_t{10}}) {
    ASSERT_TRUE(TruncateFile(path, keep).ok());
    auto read = ReadIndexSnapshot(path);
    ASSERT_FALSE(read.ok());
    EXPECT_TRUE(read.status().IsCorruption());
  }
}

// ---------------------------------------------------------------------------
// Index WAL
// ---------------------------------------------------------------------------

TEST(IndexWal, AppendReplayRoundTrip) {
  const std::string dir = FreshDir("wal_roundtrip");
  const std::string path = dir + "/index.wal";
  Rng rng(11);
  IndexWalWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<IndexWalRecord> written;
  uint64_t seq = 0;
  for (size_t batch = 0; batch < 5; ++batch) {
    IndexWalRecord record;
    record.first_seq = seq;
    for (size_t i = 0; i < batch + 1; ++i) {
      record.names.push_back("item_" + std::to_string(seq + i));
      record.codes.push_back(RandomCode(64, &rng));
    }
    seq += record.names.size();
    ASSERT_TRUE(writer.Append(record).ok());
    written.push_back(std::move(record));
  }
  writer.Close();

  std::vector<IndexWalRecord> replayed;
  auto result = ReplayIndexWal(path, [&](const IndexWalRecord& record) {
    replayed.push_back(record);
    return Status::OK();
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->records_applied, written.size());
  EXPECT_EQ(result->items_applied, static_cast<size_t>(seq));
  EXPECT_FALSE(result->tail_discarded);
  ASSERT_EQ(replayed.size(), written.size());
  for (size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(replayed[i].first_seq, written[i].first_seq);
    EXPECT_EQ(replayed[i].names, written[i].names);
    EXPECT_EQ(replayed[i].codes, written[i].codes);
  }
}

/// A crash mid-append leaves a partial frame; replay must keep every
/// intact record, discard the tail, and report where the valid bytes
/// end so the writer can truncate before appending again.
TEST(IndexWal, TornTailIsDiscardedAndTruncatable) {
  const std::string dir = FreshDir("wal_torn");
  const std::string path = dir + "/index.wal";
  Rng rng(13);
  IndexWalWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (uint64_t seq = 0; seq < 3; ++seq) {
    IndexWalRecord record;
    record.first_seq = seq;
    record.names = {"item_" + std::to_string(seq)};
    record.codes = {RandomCode(64, &rng)};
    ASSERT_TRUE(writer.Append(record).ok());
  }
  writer.Close();
  const uint64_t intact_size = std::filesystem::file_size(path);

  // Simulate the crash: a frame header promising more bytes than exist.
  std::ofstream out(path, std::ios::binary | std::ios::app);
  const uint32_t bogus_len = 1000;
  out.write(reinterpret_cast<const char*>(&bogus_len), sizeof(bogus_len));
  out.write("partial", 7);
  out.close();

  size_t records = 0;
  auto result = ReplayIndexWal(path, [&](const IndexWalRecord&) {
    ++records;
    return Status::OK();
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(records, 3u);
  EXPECT_TRUE(result->tail_discarded);
  EXPECT_EQ(result->valid_bytes, intact_size);

  // Truncate + append must produce a clean log again.
  ASSERT_TRUE(TruncateFile(path, result->valid_bytes).ok());
  IndexWalWriter again;
  ASSERT_TRUE(again.Open(path).ok());
  IndexWalRecord record;
  record.first_seq = 3;
  record.names = {"item_3"};
  record.codes = {RandomCode(64, &rng)};
  ASSERT_TRUE(again.Append(record).ok());
  again.Close();
  auto clean = ReplayIndexWal(path, [](const IndexWalRecord&) {
    return Status::OK();
  });
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->records_applied, 4u);
  EXPECT_FALSE(clean->tail_discarded);
}

}  // namespace
}  // namespace agoraeo::index

// ===========================================================================
// Service level: restart, crash recovery, corruption fallback
// ===========================================================================

namespace agoraeo::earthqube {
namespace {

/// Deterministic feature matrix: the same rows whatever the call order.
Tensor MakeFeatures(size_t begin, size_t count) {
  Tensor features({count, bigearthnet::kFeatureDim});
  Rng rng(0xF00D + begin);
  for (size_t i = 0; i < count * bigearthnet::kFeatureDim; ++i) {
    features.data()[i] = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
  }
  return features;
}

std::vector<std::string> MakeNames(size_t begin, size_t count) {
  std::vector<std::string> names;
  for (size_t i = 0; i < count; ++i) {
    names.push_back("patch_" + std::to_string(begin + i));
  }
  return names;
}

/// A service fixture around an UNTRAINED MiLaN model (weights are
/// seeded deterministically, and persistence parity only needs the
/// model to be a pure function of its inputs, which it is).
class ServiceFixture {
 public:
  static std::unique_ptr<CbirService> Make(CbirConfig config) {
    milan::MilanConfig mconfig;
    mconfig.feature_dim = bigearthnet::kFeatureDim;
    mconfig.hidden1 = 32;
    mconfig.hidden2 = 16;
    mconfig.hash_bits = 32;
    mconfig.dropout = 0.0f;
    return std::make_unique<CbirService>(
        std::make_unique<milan::MilanModel>(mconfig), &Extractor(), config);
  }

  static const bigearthnet::FeatureExtractor& Extractor() {
    static bigearthnet::FeatureExtractor extractor;
    return extractor;
  }
};

std::string FreshDir(const std::string& name) {
  const std::string dir =
      std::string("/tmp/agoraeo_persistence_test/") + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Ingests the standard data set: two batches plus a few singles, so
/// the WAL holds a mix of batch and single-item records.
void IngestStandard(CbirService* service) {
  ASSERT_TRUE(service->AddImages(MakeNames(0, 60), MakeFeatures(0, 60)).ok());
  ASSERT_TRUE(
      service->AddImages(MakeNames(60, 45), MakeFeatures(60, 45)).ok());
  const Tensor singles = MakeFeatures(105, 3);
  for (size_t i = 0; i < 3; ++i) {
    Tensor one({size_t{1}, bigearthnet::kFeatureDim});
    for (size_t c = 0; c < bigearthnet::kFeatureDim; ++c) {
      one.data()[c] = singles.at(i, c);
    }
    ASSERT_TRUE(
        service->AddImage("patch_" + std::to_string(105 + i), one).ok());
  }
}

/// Byte-parity audit: every query flavour must match between two
/// services over the same logical archive.
void ExpectServiceParity(const CbirService& recovered,
                         const CbirService& twin) {
  ASSERT_EQ(recovered.num_indexed(), twin.num_indexed());
  for (const std::string& name :
       {std::string("patch_0"), std::string("patch_59"),
        std::string("patch_77"), std::string("patch_107")}) {
    auto code_a = recovered.CodeOf(name);
    auto code_b = twin.CodeOf(name);
    ASSERT_TRUE(code_a.ok()) << name;
    ASSERT_TRUE(code_b.ok()) << name;
    EXPECT_EQ(code_a.value(), code_b.value()) << name;

    auto radius_a = RadiusByName(recovered, name, 10);
    auto radius_b = RadiusByName(twin, name, 10);
    ASSERT_TRUE(radius_a.ok() && radius_b.ok());
    ASSERT_EQ(radius_a->size(), radius_b->size()) << name;
    for (size_t i = 0; i < radius_a->size(); ++i) {
      EXPECT_EQ((*radius_a)[i].patch_name, (*radius_b)[i].patch_name);
      EXPECT_EQ((*radius_a)[i].hamming_distance,
                (*radius_b)[i].hamming_distance);
    }

    auto knn_a = KnnByName(recovered, name, 8);
    auto knn_b = KnnByName(twin, name, 8);
    ASSERT_TRUE(knn_a.ok() && knn_b.ok());
    ASSERT_EQ(knn_a->size(), knn_b->size()) << name;
    for (size_t i = 0; i < knn_a->size(); ++i) {
      EXPECT_EQ((*knn_a)[i].patch_name, (*knn_b)[i].patch_name);
      EXPECT_EQ((*knn_a)[i].hamming_distance, (*knn_b)[i].hamming_distance);
    }
  }
}

/// Restart parity across {1, 4} shards: a snapshot+WAL restore must be
/// indistinguishable from a process that never went down.
TEST(PersistenceService, RestartParityAcrossShardings) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    const std::string tag = std::to_string(shards);
    const std::string dir = FreshDir("restart_" + tag);

    CbirConfig durable;
    durable.query_threads = 2;
    durable.num_shards = shards;
    durable.snapshot_dir = dir;
    durable.seal_threshold = 32;

    CbirConfig memory_only = durable;
    memory_only.snapshot_dir.clear();

    // The never-crashed twin.
    auto twin = ServiceFixture::Make(memory_only);
    IngestStandard(twin.get());

    // Writer: ingest durably, then go down (destructor).
    {
      auto writer = ServiceFixture::Make(durable);
      ASSERT_TRUE(writer->Recover().ok());  // cold start, opens the WAL
      IngestStandard(writer.get());
      EXPECT_TRUE(writer->persistence_stats().enabled);
      EXPECT_GT(writer->persistence_stats().wal_records, 0u);
    }

    // Restart: snapshots + WAL catch-up, no model inference.
    auto recovered = ServiceFixture::Make(durable);
    ASSERT_TRUE(recovered->Recover().ok());
    const CbirPersistenceStats& stats = recovered->persistence_stats();
    EXPECT_TRUE(stats.recovered);
    EXPECT_EQ(stats.restored_items + stats.replayed_items, 108u) << tag;
    EXPECT_EQ(stats.discarded_snapshots, 0u) << tag;
    ExpectServiceParity(*recovered, *twin);
  }
}

/// Satellite: a recovered service is not read-only — it keeps
/// ingesting, stays durable, and survives a SECOND restart.
TEST(PersistenceService, RecoveredServiceContinuesIngesting) {
  const std::string dir = FreshDir("continue");
  CbirConfig config;
  config.num_shards = 4;
  config.snapshot_dir = dir;
  config.seal_threshold = 16;

  {
    auto writer = ServiceFixture::Make(config);
    ASSERT_TRUE(writer->Recover().ok());
    ASSERT_TRUE(
        writer->AddImages(MakeNames(0, 60), MakeFeatures(0, 60)).ok());
  }
  {
    auto mid = ServiceFixture::Make(config);
    ASSERT_TRUE(mid->Recover().ok());
    EXPECT_EQ(mid->num_indexed(), 60u);
    ASSERT_TRUE(mid->AddImages(MakeNames(60, 45), MakeFeatures(60, 45)).ok());
    const Tensor singles = MakeFeatures(105, 3);
    for (size_t i = 0; i < 3; ++i) {
      Tensor one({size_t{1}, bigearthnet::kFeatureDim});
      for (size_t c = 0; c < bigearthnet::kFeatureDim; ++c) {
        one.data()[c] = singles.at(i, c);
      }
      ASSERT_TRUE(mid->AddImage("patch_" + std::to_string(105 + i), one).ok());
    }
  }
  CbirConfig memory_only = config;
  memory_only.snapshot_dir.clear();
  auto twin = ServiceFixture::Make(memory_only);
  IngestStandard(twin.get());

  auto final_service = ServiceFixture::Make(config);
  ASSERT_TRUE(final_service->Recover().ok());
  ExpectServiceParity(*final_service, *twin);
}

/// Satellite: a corrupt snapshot logs a warning, is discarded, and the
/// service falls back to WAL replay — recovery still reaches parity.
TEST(PersistenceService, CorruptSnapshotFallsBackToWalReplay) {
  const std::string dir = FreshDir("corrupt_snap");
  CbirConfig config;
  config.num_shards = 4;
  config.snapshot_dir = dir;
  config.seal_threshold = 16;  // snapshots get written during ingest

  {
    auto writer = ServiceFixture::Make(config);
    ASSERT_TRUE(writer->Recover().ok());
    IngestStandard(writer.get());
    EXPECT_GT(writer->persistence_stats().snapshots_written, 0u);
  }

  // Flip one bit in the middle of shard 1's snapshot.
  const std::string victim = index::ShardSnapshotPath(dir, 1);
  ASSERT_TRUE(std::filesystem::exists(victim));
  {
    std::fstream file(victim,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    file.seekg(size / 2);
    char byte;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x04);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }

  CbirConfig memory_only = config;
  memory_only.snapshot_dir.clear();
  auto twin = ServiceFixture::Make(memory_only);
  IngestStandard(twin.get());

  auto recovered = ServiceFixture::Make(config);
  ASSERT_TRUE(recovered->Recover().ok());
  const CbirPersistenceStats& stats = recovered->persistence_stats();
  EXPECT_EQ(stats.discarded_snapshots, 1u);
  // The WAL retained every record since boot (no on-demand Snapshot ran,
  // so it was never reset): full parity despite the lost file.
  ExpectServiceParity(*recovered, *twin);
  // Lossy recovery re-canonicalises disk: a THIRD boot must be clean.
  auto third = ServiceFixture::Make(config);
  ASSERT_TRUE(third->Recover().ok());
  EXPECT_EQ(third->persistence_stats().discarded_snapshots, 0u);
  ExpectServiceParity(*third, *twin);
}

/// Satellite: crash mid-BatchAdd — the WAL ends in a torn frame.  The
/// restarted service must equal a twin that never received that batch,
/// byte for byte, and keep working.
TEST(PersistenceService, CrashMidBatchRecoversToLastIntactBatch) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    const std::string tag = std::to_string(shards);
    const std::string dir = FreshDir("crash_" + tag);
    CbirConfig config;
    config.num_shards = shards;
    config.snapshot_dir = dir;
    // No auto-snapshots: recovery is pure WAL replay, so the torn
    // frame is guaranteed to matter.
    config.seal_threshold = 0;

    {
      auto writer = ServiceFixture::Make(config);
      ASSERT_TRUE(writer->Recover().ok());
      ASSERT_TRUE(
          writer->AddImages(MakeNames(0, 60), MakeFeatures(0, 60)).ok());
      ASSERT_TRUE(
          writer->AddImages(MakeNames(60, 45), MakeFeatures(60, 45)).ok());
    }
    // The "crash": the last batch's frame is half on disk.
    const std::string wal_path = dir + "/index.wal";
    const uint64_t full = std::filesystem::file_size(wal_path);
    ASSERT_TRUE(TruncateFile(wal_path, full - 13).ok());

    // Twin that never saw the second batch.
    CbirConfig memory_only = config;
    memory_only.snapshot_dir.clear();
    auto twin = ServiceFixture::Make(memory_only);
    ASSERT_TRUE(
        twin->AddImages(MakeNames(0, 60), MakeFeatures(0, 60)).ok());

    auto recovered = ServiceFixture::Make(config);
    ASSERT_TRUE(recovered->Recover().ok());
    EXPECT_TRUE(recovered->persistence_stats().wal_tail_discarded) << tag;
    ASSERT_EQ(recovered->num_indexed(), 60u) << tag;
    ASSERT_EQ(twin->num_indexed(), 60u);
    for (size_t i : {size_t{0}, size_t{17}, size_t{59}}) {
      const std::string name = "patch_" + std::to_string(i);
      auto knn_a = KnnByName(*recovered, name, 10);
      auto knn_b = KnnByName(*twin, name, 10);
      ASSERT_TRUE(knn_a.ok() && knn_b.ok());
      ASSERT_EQ(knn_a->size(), knn_b->size());
      for (size_t j = 0; j < knn_a->size(); ++j) {
        EXPECT_EQ((*knn_a)[j].patch_name, (*knn_b)[j].patch_name);
        EXPECT_EQ((*knn_a)[j].hamming_distance,
                  (*knn_b)[j].hamming_distance);
      }
    }
    // The torn batch's ids must be reusable (the tail was cut).
    ASSERT_TRUE(
        recovered->AddImages(MakeNames(60, 45), MakeFeatures(60, 45)).ok());
    EXPECT_EQ(recovered->num_indexed(), 105u);
  }
}

/// On-demand Snapshot() seals, writes every shard, and resets the WAL.
TEST(PersistenceService, OnDemandSnapshotResetsWal) {
  const std::string dir = FreshDir("on_demand");
  CbirConfig config;
  config.num_shards = 4;
  config.snapshot_dir = dir;
  config.seal_threshold = 1000;  // cadence never fires on its own

  auto writer = ServiceFixture::Make(config);
  ASSERT_TRUE(writer->Recover().ok());
  IngestStandard(writer.get());
  const uint64_t wal_before = std::filesystem::file_size(dir + "/index.wal");
  EXPECT_GT(wal_before, 0u);
  ASSERT_TRUE(writer->Snapshot().ok());
  EXPECT_EQ(std::filesystem::file_size(dir + "/index.wal"), 0u);
  EXPECT_EQ(writer->persistence_stats().snapshots_written, 4u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(std::filesystem::exists(index::ShardSnapshotPath(dir, s)));
  }
  // Everything snapshotted was also sealed.
  ASSERT_NE(writer->sharded_index(), nullptr);
  EXPECT_EQ(writer->sharded_index()->Stats().mutable_items, 0u);

  // Restore from snapshots alone (empty WAL) and compare.
  CbirConfig memory_only = config;
  memory_only.snapshot_dir.clear();
  auto twin = ServiceFixture::Make(memory_only);
  IngestStandard(twin.get());
  auto recovered = ServiceFixture::Make(config);
  ASSERT_TRUE(recovered->Recover().ok());
  EXPECT_EQ(recovered->persistence_stats().restored_items, 108u);
  EXPECT_EQ(recovered->persistence_stats().replayed_items, 0u);
  ExpectServiceParity(*recovered, *twin);
}

/// All three WAL sync modes recover to parity (they differ only in how
/// much a power loss may cost, not in crash-recovery semantics).
TEST(PersistenceService, AllWalSyncModesRecover) {
  for (WalSyncMode sync :
       {WalSyncMode::kFlush, WalSyncMode::kFsync, WalSyncMode::kNone}) {
    const std::string dir =
        FreshDir("sync_" + std::to_string(static_cast<int>(sync)));
    CbirConfig config;
      config.snapshot_dir = dir;
    config.wal_sync = sync;

    {
      auto writer = ServiceFixture::Make(config);
      ASSERT_TRUE(writer->Recover().ok());
      IngestStandard(writer.get());
    }
    CbirConfig memory_only = config;
    memory_only.snapshot_dir.clear();
    auto twin = ServiceFixture::Make(memory_only);
    IngestStandard(twin.get());
    auto recovered = ServiceFixture::Make(config);
    ASSERT_TRUE(recovered->Recover().ok());
    ExpectServiceParity(*recovered, *twin);
  }
}

TEST(PersistenceService, RecoverRefusesNonEmptyService) {
  const std::string dir = FreshDir("refuse");
  CbirConfig config;
  config.snapshot_dir = dir;
  auto service = ServiceFixture::Make(config);
  ASSERT_TRUE(service->Recover().ok());
  ASSERT_TRUE(service->AddImages(MakeNames(0, 4), MakeFeatures(0, 4)).ok());
  EXPECT_TRUE(service->Recover().IsFailedPrecondition());
}

TEST(PersistenceService, NoSnapshotDirMeansInMemoryOnly) {
  auto service = ServiceFixture::Make(CbirConfig{});
  ASSERT_TRUE(service->Recover().ok());  // no-op
  ASSERT_TRUE(service->AddImages(MakeNames(0, 4), MakeFeatures(0, 4)).ok());
  EXPECT_FALSE(service->persistence_stats().enabled);
  EXPECT_TRUE(service->Snapshot().IsFailedPrecondition());
}

/// Satellite: recovery bumps the query-cache epoch exactly ONCE —
/// attaching the recovered service — not once per restored batch.
TEST(PersistenceService, RecoveryBumpsCacheEpochExactlyOnce) {
  const std::string dir = FreshDir("epoch");
  CbirConfig config;
  config.num_shards = 4;
  config.snapshot_dir = dir;
  config.seal_threshold = 16;
  {
    auto writer = ServiceFixture::Make(config);
    ASSERT_TRUE(writer->Recover().ok());
    IngestStandard(writer.get());
  }

  EarthQube system;
  const uint64_t epoch_before = system.query_cache().epoch();
  ASSERT_TRUE(system.RecoverAndAttachCbir(ServiceFixture::Make(config)).ok());
  EXPECT_EQ(system.query_cache().epoch(), epoch_before + 1);
  ASSERT_NE(system.cbir(), nullptr);
  EXPECT_EQ(system.cbir()->num_indexed(), 108u);
}

}  // namespace
}  // namespace agoraeo::earthqube
