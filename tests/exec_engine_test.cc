/// Tests for the staged execution engine: miss coalescing
/// (singleflight), micro-batched index passes, negative caching,
/// deferred completion, admission control, and byte-parity between
/// shared (coalesced, micro-batched) executions and the same requests
/// executed one at a time.  The concurrency tests here are part of the
/// TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "bigearthnet/archive_generator.h"
#include "bigearthnet/feature_extractor.h"
#include "earthqube/earthqube.h"
#include "earthqube/exec/execution_engine.h"
#include "milan/trainer.h"

namespace agoraeo::earthqube {
namespace {

/// A small archive + CBIR stack behind one EarthQube.  Shared setup
/// with the facade tests, parameterised on the engine/cache config.
class EngineFixture {
 public:
  explicit EngineFixture(EarthQubeConfig system_config = {}) {
    bigearthnet::ArchiveConfig config;
    config.num_patches = 300;
    config.seed = 29;
    generator_ = std::make_unique<bigearthnet::ArchiveGenerator>(config);
    auto archive = generator_->Generate();
    if (!archive.ok()) std::abort();
    archive_ = std::move(archive).value();

    features_ = extractor_.ExtractArchive(archive_, *generator_, 2);
    system_ = std::make_unique<EarthQube>(system_config);
    if (!system_->IngestArchive(archive_).ok()) std::abort();

    milan::MilanConfig mconfig;
    mconfig.feature_dim = bigearthnet::kFeatureDim;
    mconfig.hidden1 = 32;
    mconfig.hidden2 = 16;
    mconfig.hash_bits = 32;
    mconfig.dropout = 0.0f;
    auto cbir = std::make_unique<CbirService>(
        std::make_unique<milan::MilanModel>(mconfig), &extractor_);
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

void ExpectSameResponse(const QueryResponse& a, const QueryResponse& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].patch_name, b.hits[i].patch_name);
    EXPECT_EQ(a.hits[i].hamming_distance, b.hits[i].hamming_distance);
  }
  ASSERT_EQ(a.panel.total(), b.panel.total());
  for (size_t i = 0; i < a.panel.entries().size(); ++i) {
    EXPECT_EQ(a.panel.entries()[i].name, b.panel.entries()[i].name);
  }
  EXPECT_EQ(a.plan.strategy, b.plan.strategy);
  EXPECT_EQ(a.plan.description, b.plan.description);
  EXPECT_EQ(a.query_stats.plan, b.query_stats.plan);
  EXPECT_EQ(a.query_stats.docs_examined, b.query_stats.docs_examined);
  EXPECT_EQ(a.page, b.page);
  EXPECT_EQ(a.page_size, b.page_size);
  EXPECT_EQ(a.cursor, b.cursor);
}

QueryRequest NameRadiusRequest(const std::string& name, uint32_t radius) {
  QueryRequest request;
  request.similarity = SimilaritySpec::NameRadius(name, radius);
  request.projection = Projection::kHitsOnly;
  request.page_size = 0;
  return request;
}

/// Collects the callback completions of engine submissions in
/// submission order; Wait() blocks until every one has arrived.  The
/// callbacks share the state, so a test that fails before Wait() leaves
/// them nothing dangling to write to.
class Submissions {
 public:
  void Submit(ExecutionEngine& engine, const QueryRequest& request) {
    size_t slot;
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      slot = state_->results.size();
      state_->results.emplace_back(Status::Internal("pending"));
      ++state_->pending;
    }
    engine.SubmitAsync(request, [state = state_,
                                 slot](StatusOr<QueryResponse> result) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->results[slot] = std::move(result);
      if (--state->pending == 0) state->cv.notify_all();
    });
  }

  std::vector<StatusOr<QueryResponse>> Wait() {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->pending == 0; });
    return state_->results;
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<StatusOr<QueryResponse>> results;
    size_t pending = 0;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

// --- coalescer ---------------------------------------------------------------

TEST(ExecEngineTest, IdenticalConcurrentMissesExecuteOnce) {
  EngineFixture fixture;
  EarthQube& system = fixture.system();
  ExecutionEngine& engine = system.exec_engine();
  const QueryRequest request =
      NameRadiusRequest(fixture.archive().patches[5].name, 8);

  // Pause the workers so every submission is admitted before any
  // executes: the N identical misses MUST collapse onto one flight.
  constexpr size_t kWaiters = 16;
  engine.Pause();
  Submissions submissions;
  for (size_t i = 0; i < kWaiters; ++i) submissions.Submit(engine, request);
  const ExecStats admitted = engine.Stats();
  engine.Resume();

  std::vector<QueryResponse> responses;
  for (StatusOr<QueryResponse>& response : submissions.Wait()) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    responses.push_back(std::move(response).value());
  }

  // Exactly one underlying execution, N-1 coalesced waiters, one
  // response-cache miss and one put.
  EXPECT_EQ(admitted.flights, 1u);
  EXPECT_EQ(admitted.coalesced, kWaiters - 1);
  const cache::CacheStats cache_stats = system.query_cache().ResponseStats();
  EXPECT_EQ(cache_stats.misses, 1u);
  EXPECT_EQ(cache_stats.hits, 0u);
  EXPECT_EQ(cache_stats.puts, 1u);
  EXPECT_EQ(engine.Stats().completed, kWaiters);

  // All waiters share the leader's fresh response.
  for (const QueryResponse& response : responses) {
    EXPECT_FALSE(response.served_from_cache);
    ExpectSameResponse(response, responses.front());
  }
}

TEST(ExecEngineTest, ConcurrentSubmittersFromManyThreads) {
  EngineFixture fixture;
  EarthQube& system = fixture.system();
  // A hot Zipfian-ish mix from many threads; validates thread safety
  // (TSan job) and parity with the same requests executed one at a time
  // on a second system.
  EngineFixture reference_fixture;

  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 24;
  std::vector<QueryRequest> requests;
  std::vector<QueryResponse> references;
  for (size_t i = 0; i < 6; ++i) {
    requests.push_back(
        NameRadiusRequest(fixture.archive().patches[i * 31].name, 8));
    auto reference = reference_fixture.system().Execute(requests.back());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    references.push_back(std::move(reference).value());
  }
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t which = (t + i) % requests.size();
        auto response = system.Execute(requests[which]);
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        ExpectSameResponse(*response, references[which]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  const ExecStats stats = system.exec_engine().Stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
}

// --- micro-batcher -----------------------------------------------------------

TEST(ExecEngineTest, DistinctMissesShareOneBatchedIndexPass) {
  EngineFixture fixture;
  EarthQube& system = fixture.system();
  ExecutionEngine& engine = system.exec_engine();
  EngineFixture reference_fixture;

  constexpr size_t kDistinct = 12;
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < kDistinct; ++i) {
    requests.push_back(
        NameRadiusRequest(fixture.archive().patches[i * 7].name, 8));
  }

  engine.Pause();
  Submissions submissions;
  for (const QueryRequest& request : requests) {
    submissions.Submit(engine, request);
  }
  engine.Resume();

  std::vector<QueryResponse> responses;
  for (StatusOr<QueryResponse>& response : submissions.Wait()) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    responses.push_back(std::move(response).value());
  }

  // All distinct in-flight misses were fused into one batched pass.
  const ExecStats stats = engine.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_flights, kDistinct);
  EXPECT_EQ(stats.direct, 0u);

  // Byte-parity with each request executed alone, slot by slot.
  for (size_t i = 0; i < kDistinct; ++i) {
    auto alone = reference_fixture.system().Execute(requests[i]);
    ASSERT_TRUE(alone.ok());
    ExpectSameResponse(responses[i], *alone);
  }
}

TEST(ExecEngineTest, MicroBatchedPagesOfOneRankingShareOneHandle) {
  // Pages of one ranking in one micro-batch are distinct flights (their
  // fingerprints differ by page) but one ranking: they share one ranked
  // handle, opened once, and each page matches a lone execution.
  EngineFixture fixture;
  EarthQube& system = fixture.system();
  ExecutionEngine& engine = system.exec_engine();
  EngineFixture reference_fixture;

  QueryRequest base =
      NameRadiusRequest(fixture.archive().patches[5].name, /*radius=*/12);
  base.page_size = 4;
  std::vector<QueryRequest> requests;
  for (size_t page : {0u, 1u, 2u}) {
    QueryRequest paged = base;
    paged.page = page;
    requests.push_back(paged);
  }
  QueryRequest unpaged = base;
  unpaged.page_size = 0;
  requests.push_back(unpaged);

  const uint64_t registered_before =
      system.ranked_access().Stats().registered;
  engine.Pause();
  Submissions submissions;
  for (const QueryRequest& request : requests) {
    submissions.Submit(engine, request);
  }
  engine.Resume();
  const std::vector<StatusOr<QueryResponse>> responses = submissions.Wait();
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << responses[i].status().ToString();
    auto alone = reference_fixture.system().Execute(requests[i]);
    ASSERT_TRUE(alone.ok());
    ExpectSameResponse(*responses[i], *alone);
  }
  EXPECT_EQ(engine.Stats().batches, 1u);
  EXPECT_EQ(system.ranked_access().Stats().registered, registered_before + 1);
}

TEST(ExecEngineTest, HybridPreFilterMissesShareOneRestrictedPass) {
  EngineFixture fixture;
  ExecutionEngine& engine = fixture.system().exec_engine();
  EngineFixture reference_fixture;

  // Same panel filter (the shared allowlist), distinct subjects, pinned
  // pre-filter so the planner choice is uniform.
  EarthQubeQuery panel;
  panel.seasons = {fixture.archive().patches[0].season};
  constexpr size_t kDistinct = 6;
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < kDistinct; ++i) {
    QueryRequest request;
    request.panel = panel;
    request.similarity =
        SimilaritySpec::NameRadius(fixture.archive().patches[i * 13].name, 10);
    request.planner = PlannerMode::kForcePreFilter;
    request.page_size = 0;
    requests.push_back(std::move(request));
  }

  engine.Pause();
  Submissions submissions;
  for (const QueryRequest& request : requests) {
    submissions.Submit(engine, request);
  }
  engine.Resume();

  std::vector<QueryResponse> responses;
  for (StatusOr<QueryResponse>& response : submissions.Wait()) {
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    responses.push_back(std::move(response).value());
  }

  const ExecStats stats = engine.Stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_flights, kDistinct);
  // One shared docstore filter pass: the allowlist cache saw at most
  // one miss for the shared panel fingerprint.
  EXPECT_LE(fixture.system().query_cache().AllowlistStats().misses, 1u);

  for (size_t i = 0; i < kDistinct; ++i) {
    auto alone = reference_fixture.system().Execute(requests[i]);
    ASSERT_TRUE(alone.ok());
    ExpectSameResponse(responses[i], *alone);
  }
}

TEST(ExecEngineTest, MaxBatchBoundsOnePass) {
  EarthQubeConfig config;
  config.exec.max_batch = 4;
  EngineFixture fixture(config);
  ExecutionEngine& engine = fixture.system().exec_engine();

  constexpr size_t kDistinct = 10;
  engine.Pause();
  Submissions submissions;
  for (size_t i = 0; i < kDistinct; ++i) {
    submissions.Submit(
        engine, NameRadiusRequest(fixture.archive().patches[i * 11].name, 8));
  }
  engine.Resume();
  for (const StatusOr<QueryResponse>& response : submissions.Wait()) {
    ASSERT_TRUE(response.ok());
  }
  const ExecStats stats = engine.Stats();
  // 10 flights at max_batch 4 -> at least 3 groups, none larger than 4.
  EXPECT_GE(stats.batches + stats.direct, 3u);
  EXPECT_EQ(stats.batched_flights + stats.direct, kDistinct);
}

TEST(ExecEngineTest, IngestPreventsCoalescingOntoStaleFlight) {
  EngineFixture fixture;
  EarthQube& system = fixture.system();
  ExecutionEngine& engine = system.exec_engine();
  const QueryRequest request =
      NameRadiusRequest(fixture.archive().patches[4].name, 8);

  engine.Pause();
  Submissions submissions;
  submissions.Submit(engine, request);
  // The epoch bumps while the first flight is still queued: the second
  // submission must NOT share its (pre-ingest) execution.
  bigearthnet::Archive extra;
  bigearthnet::PatchMetadata twin = fixture.archive().patches[0];
  twin.name = "twin_for_epoch_guard";
  extra.patches.push_back(twin);
  ASSERT_TRUE(system.IngestArchive(extra).ok());
  submissions.Submit(engine, request);
  const ExecStats admitted = engine.Stats();
  engine.Resume();

  for (const StatusOr<QueryResponse>& response : submissions.Wait()) {
    ASSERT_TRUE(response.ok());
  }
  EXPECT_EQ(admitted.flights, 2u);
  EXPECT_EQ(admitted.coalesced, 0u);
}

// --- negative cache ----------------------------------------------------------

TEST(ExecEngineTest, NotFoundSubjectsAreNegativeCached) {
  EngineFixture fixture;
  EarthQube& system = fixture.system();
  const QueryRequest request = NameRadiusRequest("no_such_patch", 8);

  auto first = system.Execute(request);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsNotFound());
  EXPECT_EQ(system.query_cache().NegativeStats().puts, 1u);

  auto second = system.Execute(request);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsNotFound());
  EXPECT_EQ(second.status().message(), first.status().message());
  // Served from the negative cache: no second execution.
  EXPECT_EQ(system.query_cache().NegativeStats().hits, 1u);
  EXPECT_EQ(system.exec_engine().Stats().negative_hits, 1u);

  // An ingest bumps the epoch: the remembered NotFound is dropped and
  // the (still unknown) name is re-resolved fresh.
  bigearthnet::Archive extra;
  bigearthnet::PatchMetadata twin = fixture.archive().patches[0];
  twin.name = "twin_of_patch_0";
  extra.patches.push_back(twin);
  ASSERT_TRUE(system.IngestArchive(extra).ok());

  auto third = system.Execute(request);
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsNotFound());
  EXPECT_GE(system.query_cache().NegativeStats().stale_drops, 1u);
}

TEST(ExecEngineTest, NegativeEntriesExpireByTtl) {
  // Injected clock: no sleeping.
  auto now = std::make_shared<std::chrono::steady_clock::time_point>(
      std::chrono::steady_clock::now());
  EarthQubeConfig config;
  config.cache.negative_ttl = std::chrono::milliseconds(50);
  config.cache.clock = [now] { return *now; };
  EngineFixture fixture(config);
  EarthQube& system = fixture.system();
  const QueryRequest request = NameRadiusRequest("still_missing", 8);

  ASSERT_FALSE(system.Execute(request).ok());
  ASSERT_FALSE(system.Execute(request).ok());
  EXPECT_EQ(system.query_cache().NegativeStats().hits, 1u);

  *now += std::chrono::milliseconds(60);
  ASSERT_FALSE(system.Execute(request).ok());
  EXPECT_EQ(system.query_cache().NegativeStats().hits, 1u);
  EXPECT_GE(system.query_cache().NegativeStats().expired_drops, 1u);
}

// --- async + admission control ----------------------------------------------

TEST(ExecEngineTest, AsyncCallbackDeliversResponse) {
  EngineFixture fixture;
  EarthQube& system = fixture.system();
  const QueryRequest request =
      NameRadiusRequest(fixture.archive().patches[2].name, 8);

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  StatusOr<QueryResponse> delivered = Status::Internal("pending");
  system.ExecuteAsync(request, [&](StatusOr<QueryResponse> response) {
    std::lock_guard<std::mutex> lock(mu);
    delivered = std::move(response);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();

  auto direct = system.Execute(request);
  ASSERT_TRUE(direct.ok());
  // The replay comes from the cache; normalise the flag for parity.
  QueryResponse normalised = *direct;
  normalised.served_from_cache = false;
  ExpectSameResponse(*delivered, normalised);
}

TEST(ExecEngineTest, AdmissionQueueOverflowRejects) {
  EarthQubeConfig config;
  config.exec.max_queue = 2;
  config.exec.coalesce = false;  // force distinct flights per submit
  config.exec.micro_batch = false;
  EngineFixture fixture(config);
  ExecutionEngine& engine = fixture.system().exec_engine();

  engine.Pause();
  Submissions submissions;
  for (size_t i = 0; i < 4; ++i) {
    submissions.Submit(engine,
                       NameRadiusRequest(fixture.archive().patches[i].name, 8));
  }
  engine.Resume();

  size_t rejected = 0;
  for (const StatusOr<QueryResponse>& response : submissions.Wait()) {
    if (!response.ok()) {
      EXPECT_TRUE(response.status().IsOverloaded())
          << response.status().ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(engine.Stats().rejected, 2u);
}

TEST(ExecEngineTest, InvalidRequestFailsAtAdmission) {
  EngineFixture fixture;
  QueryRequest bad;  // neither panel nor similarity
  auto response = fixture.system().Execute(bad);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsInvalidArgument());
}

// --- flight -> response-cache pre-warm ---------------------------------------

TEST(ExecEngineTest, FlightCompletionPreWarmsResponseCache) {
  EngineFixture fixture;
  EarthQube& system = fixture.system();
  ExecutionEngine& engine = system.exec_engine();
  const QueryRequest request =
      NameRadiusRequest(fixture.archive().patches[9].name, 8);

  // A coalesced flight: N identical concurrent misses, one execution.
  constexpr size_t kWaiters = 6;
  engine.Pause();
  Submissions submissions;
  for (size_t i = 0; i < kWaiters; ++i) submissions.Submit(engine, request);
  engine.Resume();
  for (const StatusOr<QueryResponse>& response : submissions.Wait()) {
    ASSERT_TRUE(response.ok());
  }

  // The leader's completion drained the shared response into the
  // response cache before waking its waiters.
  const ExecStats after_flight = engine.Stats();
  EXPECT_EQ(after_flight.flight_warms, 1u);
  EXPECT_EQ(after_flight.warm_from_flight_hits, 0u);

  // The next identical submission is an admission-time cache hit,
  // attributed to the flight's pre-warm.
  auto warm = system.Execute(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->served_from_cache);
  const ExecStats after_hit = engine.Stats();
  EXPECT_EQ(after_hit.cache_hits, after_flight.cache_hits + 1);
  EXPECT_EQ(after_hit.warm_from_flight_hits, 1u);
  EXPECT_EQ(after_hit.flight_warms, 1u);  // a cache hit warms nothing new
}

TEST(ExecEngineTest, MicroBatchedFlightsPreWarmResponseCache) {
  EngineFixture fixture;
  EarthQube& system = fixture.system();
  ExecutionEngine& engine = system.exec_engine();

  // Distinct compatible misses fuse into one batched pass; every flight
  // of the pass drains its own response into the cache.
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < 4; ++i) {
    requests.push_back(
        NameRadiusRequest(fixture.archive().patches[20 + i].name, 8));
  }
  auto batch = system.ExecuteBatch(requests);
  ASSERT_TRUE(batch.ok());
  const ExecStats after_batch = engine.Stats();
  EXPECT_GE(after_batch.batches, 1u);
  EXPECT_EQ(after_batch.flight_warms, requests.size());

  // Replaying any member of the batch hits warm-from-flight.
  auto warm = system.Execute(requests[2]);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->served_from_cache);
  EXPECT_EQ(engine.Stats().warm_from_flight_hits, 1u);
}

}  // namespace
}  // namespace agoraeo::earthqube
