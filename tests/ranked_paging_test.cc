#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "index/frontier.h"
#include "index/hamming_table.h"
#include "index/linear_scan.h"
#include "index/segmented_index.h"
#include "index/sharded_index.h"
#include "frontier_test_util.h"

namespace agoraeo::index {
namespace {

BinaryCode RandomCode(size_t bits, Rng* rng) {
  BinaryCode code(bits);
  for (size_t i = 0; i < bits; ++i) code.SetBit(i, rng->Bernoulli(0.5));
  return code;
}

/// Drains a frontier completely, pulling in chunks of `chunk`.
std::vector<SearchResult> DrainInChunks(HitFrontier* frontier, size_t chunk) {
  std::vector<SearchResult> out;
  while (true) {
    const size_t got = frontier->Next(chunk, &out);
    if (got == 0) break;
  }
  // Exhaustion is sticky.
  std::vector<SearchResult> extra;
  EXPECT_EQ(frontier->Next(chunk, &extra), 0u);
  EXPECT_TRUE(extra.empty());
  return out;
}

struct IndexVariant {
  std::string name;
  std::function<std::unique_ptr<HammingIndex>()> make;
};

/// Every index shape the frontier contract must hold on: the three leaf
/// kinds, a segment-structured wrapper (sealing every 64 items), and a
/// 4-shard partition of each kind.
std::vector<IndexVariant> AllVariants() {
  std::vector<IndexVariant> out;
  const std::vector<
      std::pair<std::string, std::function<std::unique_ptr<HammingIndex>()>>>
      kinds = {
          {"LinearScan", [] { return std::make_unique<LinearScanIndex>(); }},
          {"HashTable", [] { return std::make_unique<HammingHashTable>(); }},
          {"MultiIndex",
           [] { return std::make_unique<MultiIndexHashing>(4); }},
      };
  for (const auto& [name, make] : kinds) {
    out.push_back({name, make});
    out.push_back({"Segmented(" + name + ")", [make = make] {
                     return std::make_unique<SegmentedHammingIndex>(make, 64);
                   }});
    out.push_back({"Sharded4(" + name + ")", [make = make] {
                     return std::make_unique<ShardedHammingIndex>(4, make, 64);
                   }});
  }
  return out;
}

class FrontierExactnessTest : public ::testing::Test {
 protected:
  static constexpr size_t kBits = 64;
  static constexpr size_t kItems = 400;

  void Populate(HammingIndex* index, Rng* rng) {
    query_ = RandomCode(kBits, rng);
    items_.clear();
    for (size_t i = 0; i < kItems; ++i) {
      // Mix of near and far codes (plus exact duplicates of the query)
      // so every distance bucket from 0 outward is exercised.
      BinaryCode code = rng->Bernoulli(0.05) ? query_ : RandomCode(kBits, rng);
      ASSERT_TRUE(index->Add(i, code).ok());
      items_.emplace_back(i, code);
    }
  }

  BinaryCode query_;
  /// What was added, for the brute-force reference ranking.
  std::vector<std::pair<ItemId, BinaryCode>> items_;
};

TEST_F(FrontierExactnessTest, FullRankedMatchesBruteForce) {
  for (const IndexVariant& variant : AllVariants()) {
    SCOPED_TRACE(variant.name);
    Rng rng(7);
    auto index = variant.make();
    Populate(index.get(), &rng);
    const std::vector<SearchResult> expected =
        BruteForce(items_, query_, std::nullopt);
    for (size_t chunk : {1u, 7u, 50u, 1000u}) {
      auto frontier = index->OpenFrontier(query_, FrontierOptions{});
      EXPECT_EQ(DrainInChunks(frontier.get(), chunk), expected)
          << "chunk=" << chunk;
    }
  }
}

TEST_F(FrontierExactnessTest, BoundedMatchesBruteForceTopK) {
  for (const IndexVariant& variant : AllVariants()) {
    SCOPED_TRACE(variant.name);
    Rng rng(5);
    auto index = variant.make();
    Populate(index.get(), &rng);
    for (size_t k : {1u, 7u, 50u, 1000u}) {
      FrontierOptions options;
      options.limit = k;
      auto frontier = index->OpenFrontier(query_, options);
      EXPECT_EQ(Drain(*frontier, k),
                BruteForce(items_, query_, std::nullopt, nullptr, k))
          << "k=" << k;
      options.radius = 28;
      frontier = index->OpenFrontier(query_, options);
      EXPECT_EQ(Drain(*frontier, k),
                BruteForce(items_, query_, 28u, nullptr, k))
          << "radius 28, k=" << k;
    }
  }
}

TEST_F(FrontierExactnessTest, RadiusBoundedMatchesBruteForce) {
  for (const IndexVariant& variant : AllVariants()) {
    SCOPED_TRACE(variant.name);
    Rng rng(11);
    auto index = variant.make();
    Populate(index.get(), &rng);
    for (uint32_t radius : {0u, 3u, 12u, 28u, 64u}) {
      FrontierOptions options;
      options.radius = radius;
      auto frontier = index->OpenFrontier(query_, options);
      EXPECT_EQ(DrainInChunks(frontier.get(), 13),
                BruteForce(items_, query_, radius))
          << "radius=" << radius;
    }
  }
}

TEST_F(FrontierExactnessTest, RestrictedMatchesBruteForce) {
  for (const IndexVariant& variant : AllVariants()) {
    SCOPED_TRACE(variant.name);
    Rng rng(13);
    auto index = variant.make();
    Populate(index.get(), &rng);
    // A sparse and a dense allowlist straddle the restricted-scan
    // crossovers; both include some ids the index does not hold.
    for (size_t allow_count : {kItems / 10, (kItems * 9) / 10}) {
      std::vector<ItemId> ids;
      for (size_t i = 0; i < allow_count; ++i) {
        ids.push_back(static_cast<ItemId>(
            rng.UniformInt(static_cast<uint32_t>(kItems + 50))));
      }
      const CandidateSet allowed(std::move(ids));
      {
        FrontierOptions options;
        options.radius = 20;
        options.allowed = &allowed;
        auto frontier = index->OpenFrontier(query_, options);
        EXPECT_EQ(DrainInChunks(frontier.get(), 9),
                  BruteForce(items_, query_, 20u, &allowed))
            << "allow=" << allow_count;
      }
      {
        FrontierOptions options;
        options.allowed = &allowed;
        auto frontier = index->OpenFrontier(query_, options);
        EXPECT_EQ(DrainInChunks(frontier.get(), 9),
                  BruteForce(items_, query_, std::nullopt, &allowed))
            << "allow=" << allow_count;
      }
    }
  }
}

TEST_F(FrontierExactnessTest, EmptyIndexYieldsEmptyFrontier) {
  for (const IndexVariant& variant : AllVariants()) {
    SCOPED_TRACE(variant.name);
    auto index = variant.make();
    auto frontier =
        index->OpenFrontier(BinaryCode(kBits), FrontierOptions{});
    std::vector<SearchResult> out;
    EXPECT_EQ(frontier->Next(10, &out), 0u);
    EXPECT_TRUE(out.empty());
  }
}

// An open frontier is a snapshot: ingest, seals, and compactions after
// the open must not change what it streams — this is what lets a paging
// handle live across concurrent writes.
TEST(FrontierSnapshotTest, SegmentedFrontierIgnoresLaterIngest) {
  Rng rng(17);
  SegmentedHammingIndex index(
      [] { return std::make_unique<LinearScanIndex>(); },
      /*seal_threshold=*/32, /*compact_threshold=*/2);
  const BinaryCode query = RandomCode(64, &rng);
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(index.Add(i, RandomCode(64, &rng)).ok());
  }
  const std::vector<SearchResult> before = DrainKnn(index, query, 100);

  auto frontier = index.OpenFrontier(query, FrontierOptions{});
  std::vector<SearchResult> streamed;
  frontier->Next(10, &streamed);  // partially drained before the writes

  // Enough ingest to force seals AND a compaction of the very segments
  // the frontier is pinned to.
  for (size_t i = 100; i < 400; ++i) {
    ASSERT_TRUE(index.Add(i, RandomCode(64, &rng)).ok());
  }
  ASSERT_TRUE(index.Seal().ok());

  while (frontier->Next(64, &streamed) > 0) {
  }
  EXPECT_EQ(streamed, before);
  EXPECT_EQ(index.size(), 400u);
}

TEST(FrontierSnapshotTest, ShardedFrontierIgnoresLaterIngest) {
  Rng rng(19);
  ShardedHammingIndex index(
      4, [] { return std::make_unique<HammingHashTable>(); },
      /*seal_threshold=*/16);
  const BinaryCode query = RandomCode(64, &rng);
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(index.Add(i, RandomCode(64, &rng)).ok());
  }
  const std::vector<SearchResult> before = DrainKnn(index, query, 120);

  auto frontier = index.OpenFrontier(query, FrontierOptions{});
  std::vector<SearchResult> streamed;
  frontier->Next(7, &streamed);
  for (size_t i = 120; i < 240; ++i) {
    ASSERT_TRUE(index.Add(i, RandomCode(64, &rng)).ok());
  }
  while (frontier->Next(33, &streamed) > 0) {
  }
  // The sealed portion is pinned; only what was still in mutable
  // segments at open time is snapshotted at open — either way the
  // stream must equal the pre-ingest ranking.
  EXPECT_EQ(streamed, before);
}

// ---------------------------------------------------------------------------
// Frontier building blocks
// ---------------------------------------------------------------------------

TEST(MergingFrontierTest, MergesDisjointChildrenInCanonicalOrder) {
  MergingFrontier merge;
  merge.AddChild(std::make_unique<MaterializedFrontier>(
      std::vector<SearchResult>{{1, 0}, {5, 2}, {7, 2}, {9, 9}}));
  merge.AddChild(std::make_unique<MaterializedFrontier>(
      std::vector<SearchResult>{{2, 1}, {6, 2}, {8, 3}}));
  merge.AddChild(
      std::make_unique<MaterializedFrontier>(std::vector<SearchResult>{}));
  const std::vector<SearchResult> expected = {
      {1, 0}, {2, 1}, {5, 2}, {6, 2}, {7, 2}, {8, 3}, {9, 9}};
  EXPECT_EQ(DrainInChunks(&merge, 2), expected);
}

TEST(DistanceBucketFrontierTest, SortsBucketsLazilyById) {
  // Deliberately unsorted, distances interleaved, an empty group at 2.
  DistanceBucketFrontier frontier(
      {{2, 3}, {9, 1}, {3, 1}, {1, 3}, {7, 1}}, /*max_distance=*/3);
  const std::vector<SearchResult> expected = {
      {3, 1}, {7, 1}, {9, 1}, {1, 3}, {2, 3}};
  EXPECT_EQ(DrainInChunks(&frontier, 1), expected);
}

}  // namespace
}  // namespace agoraeo::index

// ===========================================================================
// Part 2: ranked direct access at the EarthQube layer — resumable cursors,
// the handle registry, and fallback discipline.
// ===========================================================================

#include <chrono>
#include <set>
#include <thread>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "earthqube/earthqube.h"
#include "earthqube/ranked_access.h"
#include "milan/milan_model.h"
#include "netsvc/earthqube_service.h"

namespace agoraeo::earthqube {

/// Test-only access to a handle's buffered state (friend of RankedHandle).
struct RankedAccessTestPeer {
  static std::vector<CbirResult>& survivors(RankedHandle* handle) {
    return handle->survivors_;
  }
};

namespace {

// ---------------------------------------------------------------------------
// RankedAccess registry unit tests (injectable clock, no EarthQube)
// ---------------------------------------------------------------------------

class RankedAccessTest : public ::testing::Test {
 protected:
  RankedAccessConfig Config() {
    RankedAccessConfig config;
    config.clock = [this] { return now_; };
    return config;
  }

  std::shared_ptr<RankedHandle> Handle(const std::string& id, uint64_t epoch) {
    return std::make_shared<RankedHandle>(id, "fp:" + id, epoch,
                                          RankedHandle::Kind::kPlain);
  }

  std::chrono::steady_clock::time_point now_{std::chrono::steady_clock::now()};
};

TEST_F(RankedAccessTest, HandleIdsAreDeterministicFnv) {
  // FNV-1a 64 offset basis: the id of the empty fingerprint is pinned so
  // cursors stay portable across builds and processes.
  EXPECT_EQ(RankedAccess::HandleIdFor(""), "cbf29ce484222325");
  EXPECT_EQ(RankedAccess::HandleIdFor("abc"), RankedAccess::HandleIdFor("abc"));
  EXPECT_NE(RankedAccess::HandleIdFor("abc"), RankedAccess::HandleIdFor("abd"));
  EXPECT_EQ(RankedAccess::HandleIdFor("x").size(), 16u);
}

TEST_F(RankedAccessTest, TtlExpiresHandles) {
  auto config = Config();
  config.handle_ttl = std::chrono::milliseconds(1000);
  RankedAccess access(config);
  access.Register(Handle("a", 7));
  EXPECT_NE(access.Get("a", "fp:a", 7), nullptr);
  now_ += std::chrono::milliseconds(1001);
  EXPECT_EQ(access.Get("a", "fp:a", 7), nullptr);
  const RankedAccessStats stats = access.Stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.handles, 0u);
}

TEST_F(RankedAccessTest, EpochBumpDropsHandles) {
  RankedAccess access(Config());
  access.Register(Handle("a", 7));
  EXPECT_EQ(access.Get("a", "fp:a", 8), nullptr);
  const RankedAccessStats stats = access.Stats();
  EXPECT_EQ(stats.epoch_drops, 1u);
  // The stale handle was erased, not just skipped: the next lookup under
  // ANY epoch is a plain miss.
  EXPECT_EQ(access.Get("a", "fp:a", 8), nullptr);
  EXPECT_EQ(access.Stats().misses, 1u);
}

TEST_F(RankedAccessTest, CapacityEvictsLeastRecentlyTouched) {
  auto config = Config();
  config.handle_capacity = 2;
  RankedAccess access(config);
  access.Register(Handle("a", 1));
  access.Register(Handle("b", 1));
  // Refresh a; b is now coldest.
  EXPECT_NE(access.Get("a", "fp:a", 1), nullptr);
  access.Register(Handle("c", 1));
  EXPECT_EQ(access.Get("b", "fp:b", 1), nullptr);
  EXPECT_NE(access.Get("a", "fp:a", 1), nullptr);
  EXPECT_NE(access.Get("c", "fp:c", 1), nullptr);
  EXPECT_EQ(access.Stats().evicted, 1u);
}

TEST_F(RankedAccessTest, ByteBudgetEvictsColderHandles) {
  auto config = Config();
  config.handle_max_bytes = 8192;
  RankedAccess access(config);
  const auto fat = [this](const std::string& id) {
    auto handle = Handle(id, 1);
    auto& survivors = RankedAccessTestPeer::survivors(handle.get());
    for (int i = 0; i < 100; ++i) {
      survivors.push_back({"patch_name_padding_padding_" + std::to_string(i),
                           static_cast<uint32_t>(i)});
    }
    return handle;
  };
  access.Register(fat("a"));
  EXPECT_NE(access.Get("a", "fp:a", 1), nullptr);
  access.Register(fat("b"));  // over budget together: a (colder) goes
  EXPECT_EQ(access.Get("a", "fp:a", 1), nullptr);
  EXPECT_NE(access.Get("b", "fp:b", 1), nullptr);
  EXPECT_GE(access.Stats().evicted, 1u);
  // The survivor alone may exceed the budget (the hottest handle is
  // never evicted on its own behalf), but it must be the ONLY resident.
  EXPECT_EQ(access.Stats().handles, 1u);
}

TEST_F(RankedAccessTest, RegisterIsFirstWinsWithinAnEpoch) {
  RankedAccess access(Config());
  auto first = Handle("a", 3);
  auto second = Handle("a", 3);
  EXPECT_EQ(access.Register(first), first);
  // A racing second registration converges on the resident handle.
  EXPECT_EQ(access.Register(second), first);
  // A FRESH epoch replaces the now-stale resident.
  auto fresh = Handle("a", 4);
  EXPECT_EQ(access.Register(fresh), fresh);
  EXPECT_EQ(access.Get("a", "fp:a", 4), fresh);
}

TEST_F(RankedAccessTest, FingerprintCollisionIsAMissNotACrossServe) {
  // Two queries whose fingerprints collide under the 64-bit FNV id
  // must never serve each other's pinned ranking: a lookup with the
  // other query's fingerprint is a plain miss and the resident stays.
  RankedAccess access(Config());
  access.Register(std::make_shared<RankedHandle>(
      "a", "fp:victim", 1, RankedHandle::Kind::kPlain));
  EXPECT_EQ(access.Get("a", "fp:attacker", 1), nullptr);
  EXPECT_EQ(access.Stats().misses, 1u);
  EXPECT_NE(access.Get("a", "fp:victim", 1), nullptr);
  EXPECT_EQ(access.Stats().epoch_drops, 0u);
}

TEST_F(RankedAccessTest, FingerprintCollisionRegistersEphemerally) {
  // A colliding registration neither evicts the resident ranking nor
  // converges on it: the new handle comes back unregistered.
  RankedAccess access(Config());
  auto resident = std::make_shared<RankedHandle>(
      "a", "fp:victim", 1, RankedHandle::Kind::kPlain);
  EXPECT_EQ(access.Register(resident), resident);
  auto collider = std::make_shared<RankedHandle>(
      "a", "fp:attacker", 1, RankedHandle::Kind::kPlain);
  EXPECT_EQ(access.Register(collider), collider);
  EXPECT_EQ(access.Stats().handles, 1u);
  EXPECT_EQ(access.Get("a", "fp:victim", 1), resident);
}

// ---------------------------------------------------------------------------
// EarthQube-level cursor walks: byte parity, fallback, concurrency
// ---------------------------------------------------------------------------

/// A 400-patch system with an attached CBIR index of the given shard
/// count.  The response cache is disabled so every page walks the
/// ranked-access path (replay flags would otherwise differ between the
/// warm and cold serialisations).
class PagingFixture {
 public:
  explicit PagingFixture(size_t num_shards = 1) {
    bigearthnet::ArchiveConfig config;
    config.num_patches = 400;
    config.seed = 17;
    generator_ = std::make_unique<bigearthnet::ArchiveGenerator>(config);
    auto archive = generator_->Generate();
    if (!archive.ok()) std::abort();
    archive_ = std::move(archive).value();

    features_ = extractor_.ExtractArchive(archive_, *generator_, 2);
    EarthQubeConfig system_config;
    system_config.cache.enable_response_cache = false;
    system_ = std::make_unique<EarthQube>(system_config);
    if (!system_->IngestArchive(archive_).ok()) std::abort();

    milan::MilanConfig mconfig;
    mconfig.feature_dim = bigearthnet::kFeatureDim;
    mconfig.hidden1 = 32;
    mconfig.hidden2 = 16;
    mconfig.hash_bits = 32;
    mconfig.dropout = 0.0f;
    CbirConfig cbir_config;
    cbir_config.num_shards = num_shards;
    auto cbir = std::make_unique<CbirService>(
        std::make_unique<milan::MilanModel>(mconfig), &extractor_,
        cbir_config);
    std::vector<std::string> names;
    for (const auto& p : archive_.patches) names.push_back(p.name);
    if (!cbir->AddImages(names, features_).ok()) std::abort();
    system_->AttachCbir(std::move(cbir));
  }

  EarthQube& system() { return *system_; }
  const bigearthnet::Archive& archive() const { return archive_; }
  const Tensor& features() const { return features_; }

 private:
  std::unique_ptr<bigearthnet::ArchiveGenerator> generator_;
  bigearthnet::Archive archive_;
  bigearthnet::FeatureExtractor extractor_;
  Tensor features_;
  std::unique_ptr<EarthQube> system_;
};

std::string Serialize(const QueryResponse& response) {
  return netsvc::EarthQubeService::QueryResponseToJson(response);
}

/// Walks every page of `base` twice per page: once resuming the pinned
/// handle (warm) and once from scratch (handles cleared), asserting the
/// serialised wire bytes are identical.  Then runs `base` unpaged
/// (page_size 0) and asserts it returns exactly the concatenated walk,
/// with no cursor and no handle registered.  Returns the concatenated
/// hit names of the whole walk.
std::vector<std::string> AuditWalk(EarthQube& system, QueryRequest base) {
  std::vector<std::string> names;
  const uint64_t hits_before = system.ranked_access().Stats().hits;
  size_t pages = 0;
  for (size_t page = 0; page < 64; ++page) {
    QueryRequest paged = base;
    paged.page = page;
    auto warm = system.Execute(paged);
    EXPECT_TRUE(warm.ok()) << warm.status().message();
    if (!warm.ok()) break;
    EXPECT_TRUE(warm->windowed);
    // Cold re-execution of exactly this page: drop every handle first.
    system.ranked_access().Clear();
    auto cold = system.Execute(paged);
    EXPECT_TRUE(cold.ok()) << cold.status().message();
    if (!cold.ok()) break;
    EXPECT_EQ(Serialize(*warm), Serialize(*cold))
        << "page " << page << " resumed != re-executed";
    for (const CbirResult& hit : warm->hits) names.push_back(hit.patch_name);
    ++pages;
    if (warm->cursor.empty()) break;
  }
  EXPECT_GT(pages, 2u) << "walk too shallow to exercise resumption";
  // Pages 1.. of the warm walk resumed the handle registered by the
  // previous page's cold execution.
  EXPECT_GE(system.ranked_access().Stats().hits - hits_before, pages - 1);

  QueryRequest unpaged = base;
  unpaged.page = 0;
  unpaged.page_size = 0;
  const uint64_t registered_before = system.ranked_access().Stats().registered;
  auto whole = system.Execute(unpaged);
  EXPECT_TRUE(whole.ok()) << whole.status().message();
  if (whole.ok()) {
    std::vector<std::string> whole_names;
    for (const CbirResult& hit : whole->hits) {
      whole_names.push_back(hit.patch_name);
    }
    EXPECT_EQ(whole_names, names) << "unpaged != concatenated paged walk";
    EXPECT_TRUE(whole->cursor.empty());
    EXPECT_FALSE(whole->windowed);
  }
  EXPECT_EQ(system.ranked_access().Stats().registered, registered_before)
      << "an unpaged request must not pin a handle";
  return names;
}

TEST(RankedPagingAuditTest, ResumedPagesMatchReExecutionAcrossVariants) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    PagingFixture fixture(shards);
    EarthQube& system = fixture.system();
    const std::string& subject = fixture.archive().patches[0].name;

    // Plain CBIR, radius mode (limit 0 = unlimited, so the restricted
    // walk below is provably a subset of this one).
    QueryRequest plain;
    plain.similarity = SimilaritySpec::NameRadius(subject, 9);
    plain.page_size = 7;
    const std::vector<std::string> radius_walk = AuditWalk(system, plain);

    // Plain CBIR, k-NN mode, hits-only projection.
    QueryRequest knn;
    knn.similarity = SimilaritySpec::NameKnn(subject, 33);
    knn.projection = Projection::kHitsOnly;
    knn.page_size = 6;
    AuditWalk(system, knn);

    // Restricted (pre-filter) hybrid.
    EarthQubeQuery panel;
    panel.satellites = {"S2A"};
    QueryRequest restricted;
    restricted.panel = panel;
    restricted.similarity = SimilaritySpec::NameRadius(subject, 9);
    restricted.planner = PlannerMode::kForcePreFilter;
    restricted.page_size = 5;
    const std::vector<std::string> restricted_walk =
        AuditWalk(system, restricted);

    // Post-filter hybrid over the same shape: same rows must survive,
    // discovered by joining the raw ranking instead.
    QueryRequest post = restricted;
    post.planner = PlannerMode::kForcePostFilter;
    const std::vector<std::string> post_walk = AuditWalk(system, post);
    EXPECT_EQ(restricted_walk, post_walk)
        << "pre- and post-filter walks disagree on the ranking";

    // The restricted walk is a subsequence of the plain walk's names.
    const std::set<std::string> plain_names(radius_walk.begin(),
                                            radius_walk.end());
    for (const std::string& name : restricted_walk) {
      EXPECT_TRUE(plain_names.count(name)) << name;
    }
  }
}

TEST(RankedPagingAuditTest, UnpagedPostFilterKnnCountsRawRankOfKthSurvivor) {
  // docs_examined of an unpaged post-filter k-NN is the raw rank of the
  // k-th filter survivor: the join cost of exactly the rows returned,
  // as on the paged walk.
  PagingFixture fixture;
  EarthQube& system = fixture.system();
  const std::string& subject = fixture.archive().patches[0].name;
  EarthQubeQuery panel;
  panel.satellites = {"S2A"};
  constexpr size_t kK = 20;

  // The filter's members and the unrestricted ranking, independently.
  QueryRequest members;
  members.panel = panel;
  members.page_size = 0;
  auto matched = system.Execute(members);
  ASSERT_TRUE(matched.ok());
  std::set<std::string> survivors;
  for (const ResultEntry& entry : matched->panel.entries()) {
    survivors.insert(entry.name);
  }
  QueryRequest ranking;
  ranking.similarity = SimilaritySpec::NameKnn(subject, 1000);
  ranking.projection = Projection::kHitsOnly;
  ranking.page_size = 0;
  auto ranked = system.Execute(ranking);
  ASSERT_TRUE(ranked.ok());
  size_t raw_rank = 0;
  size_t found = 0;
  for (const CbirResult& hit : ranked->hits) {
    ++raw_rank;
    if (survivors.count(hit.patch_name) != 0 && ++found == kK) break;
  }
  ASSERT_EQ(found, kK);
  ASSERT_GT(raw_rank, 2 * kK) << "filter too loose to need over-fetching";

  QueryRequest post;
  post.panel = panel;
  post.similarity = SimilaritySpec::NameKnn(subject, kK);
  post.planner = PlannerMode::kForcePostFilter;
  post.projection = Projection::kHitsOnly;
  post.page_size = 0;
  auto response = system.Execute(post);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->hits.size(), kK);
  EXPECT_EQ(response->query_stats.docs_examined, raw_rank);
}

TEST(RankedPagingAuditTest, IngestMidPaginationFallsBackToReExecution) {
  PagingFixture fixture;
  EarthQube& system = fixture.system();
  const auto& patch0 = fixture.archive().patches[0];

  QueryRequest base;
  base.similarity = SimilaritySpec::NameRadius(patch0.name, 8);
  base.page_size = 7;

  QueryRequest paged = base;
  auto page0 = system.Execute(paged);
  ASSERT_TRUE(page0.ok());
  paged.page = 1;
  auto page1 = system.Execute(paged);
  ASSERT_TRUE(page1.ok());
  ASSERT_FALSE(page1->cursor.empty());

  // A twin of patch 0 lands mid-pagination: distance 0 to the query, so
  // the pinned pre-ingest ranking MUST NOT serve the next page.
  bigearthnet::Archive extra;
  bigearthnet::PatchMetadata twin = patch0;
  twin.name = "twin_of_patch_0";
  extra.patches.push_back(twin);
  ASSERT_TRUE(
      system.cbir()->AddImage(twin.name, fixture.features().Row(0)).ok());
  ASSERT_TRUE(system.IngestArchive(extra).ok());

  const uint64_t drops_before = system.ranked_access().Stats().epoch_drops;
  paged.page = 2;
  auto resumed = system.Execute(paged);
  ASSERT_TRUE(resumed.ok());
  EXPECT_GE(system.ranked_access().Stats().epoch_drops, drops_before + 1)
      << "stale handle should have been dropped on the epoch bump";

  // The fallen-back page equals a from-scratch execution of the
  // post-ingest ranking, and the full walk now contains the twin.
  system.ranked_access().Clear();
  auto cold = system.Execute(paged);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Serialize(*resumed), Serialize(*cold));
  std::set<std::string> all_names;
  QueryRequest walk = base;
  for (size_t page = 0; page < 64; ++page) {
    walk.page = page;
    auto response = system.Execute(walk);
    ASSERT_TRUE(response.ok());
    for (const CbirResult& hit : response->hits) {
      all_names.insert(hit.patch_name);
    }
    if (response->cursor.empty()) break;
  }
  EXPECT_TRUE(all_names.count("twin_of_patch_0"));
}

TEST(RankedPagingAuditTest, ParallelPaginationConverges) {
  PagingFixture fixture(4);
  EarthQube& system = fixture.system();

  QueryRequest base;
  base.similarity =
      SimilaritySpec::NameKnn(fixture.archive().patches[3].name, 40);
  base.projection = Projection::kHitsOnly;
  base.page_size = 6;

  const auto walk = [&system, &base]() {
    std::vector<std::string> names;
    QueryRequest paged = base;
    for (size_t page = 0; page < 16; ++page) {
      paged.page = page;
      auto response = system.Execute(paged);
      if (!response.ok()) return names;
      for (const CbirResult& hit : response->hits) {
        names.push_back(hit.patch_name);
      }
      if (response->cursor.empty()) break;
    }
    return names;
  };

  const std::vector<std::string> reference = walk();
  ASSERT_EQ(reference.size(), 40u);

  // Eight threads hammer the same cursor chain concurrently; the
  // per-handle mutex serialises extension, and everyone must observe
  // exactly the reference sequence.
  std::vector<std::vector<std::string>> results(8);
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < results.size(); ++t) {
      threads.emplace_back([&results, &walk, t] { results[t] = walk(); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const auto& result : results) EXPECT_EQ(result, reference);
}

}  // namespace
}  // namespace agoraeo::earthqube
