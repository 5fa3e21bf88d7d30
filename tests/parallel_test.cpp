// The parallel analysis engine (DESIGN.md §9): ThreadPool semantics, the
// byte-determinism guarantee of the parallel pipeline stages at 1/2/8
// threads, the VP-partitioned feature extractor against the single-cursor
// merge-walk it replaced, the GILL_ANALYSIS_SERIAL escape hatch, the
// cross-refresh score cache, and the Platform's asynchronous filter refresh
// (generation counter, stale-result discard, sessions served while a job is
// in flight).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anchor/event_inference.hpp"
#include "anchor/event_selection.hpp"
#include "anchor/scoring.hpp"
#include "collector/platform.hpp"
#include "features/vp_graph.hpp"
#include "parallel/thread_pool.hpp"
#include "redundancy/component1.hpp"
#include "sampling/gill_pipeline.hpp"
#include "simulator/workload.hpp"
#include "topology/generator.hpp"

namespace gill {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool unit semantics.
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  par::ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> touched(kN);
  pool.parallel_for(kN, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
  EXPECT_GT(pool.shards_executed(), 1u);
}

TEST(ThreadPool, SubmitReturnsTheJobsValue) {
  par::ThreadPool pool(2);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, NestedParallelForInsideSubmitDoesNotDeadlock) {
  // A refresh job occupies the (only) worker and then fans out its stages
  // with parallel_for: the caller participates, so this must complete even
  // on a 1-thread pool.
  par::ThreadPool pool(1);
  auto future = pool.submit([&pool] {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(1000, [&sum](std::size_t begin, std::size_t end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
    return sum.load();
  });
  EXPECT_EQ(future.get(), 1000u);
}

TEST(ThreadPool, DestructorRunsEveryQueuedJob) {
  std::atomic<int> ran{0};
  {
    par::ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // drain-and-join
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, SerialEscapeHatchReadsTheEnvironment) {
  ::unsetenv("GILL_ANALYSIS_SERIAL");
  EXPECT_FALSE(par::serial_forced());
  ::setenv("GILL_ANALYSIS_SERIAL", "1", 1);
  EXPECT_TRUE(par::serial_forced());
  ::setenv("GILL_ANALYSIS_SERIAL", "0", 1);
  EXPECT_FALSE(par::serial_forced()) << "\"0\" means off, like a bool flag";
  ::unsetenv("GILL_ANALYSIS_SERIAL");
}

TEST(ThreadPool, AutoThreadCountIsClamped) {
  EXPECT_GE(par::auto_thread_count(), 1u);
  EXPECT_LE(par::auto_thread_count(4), 4u);
  EXPECT_EQ(par::auto_thread_count(0), 1u);
}

// ---------------------------------------------------------------------------
// Determinism: the parallel stages produce byte-identical results at any
// thread count (the ISSUE's 1/2/8 guarantee). The simulator provides a
// realistic mid-size stream.
// ---------------------------------------------------------------------------

struct PipelineWorld {
  topo::AsTopology topology;
  sim::InternetConfig config;
  std::unique_ptr<sim::Internet> internet;
  bgp::UpdateStream ribs;
  bgp::UpdateStream training;

  explicit PipelineWorld(std::uint64_t seed = 7)
      : topology(topo::generate_artificial({.as_count = 120, .seed = seed})) {
    for (bgp::AsNumber as = 0; as < 120; as += 5) {
      config.vp_hosts.push_back(as);
    }
    config.rng_seed = seed + 1;
    config.path_exploration_probability = 0.3;
    internet = std::make_unique<sim::Internet>(topology, config);
    ribs = internet->rib_dump(0);
    sim::WorkloadConfig workload;
    workload.seed = seed + 2;
    training = sim::generate_workload(*internet, 8, workload);
  }
};

const PipelineWorld& pipeline_world() {
  static PipelineWorld world;
  return world;
}

void expect_identical(const sample::GillPipelineResult& serial,
                      const sample::GillPipelineResult& parallel,
                      const char* what) {
  EXPECT_EQ(serial.component1.redundant, parallel.component1.redundant)
      << what;
  EXPECT_EQ(serial.component1.nonredundant, parallel.component1.nonredundant)
      << what;
  EXPECT_EQ(serial.component1.total_updates, parallel.component1.total_updates)
      << what;
  EXPECT_EQ(serial.component1.nonredundant_updates,
            parallel.component1.nonredundant_updates)
      << what;
  // Byte determinism, not approximation: the parallel stages preserve the
  // serial floating-point accumulation order.
  EXPECT_EQ(serial.component1.mean_rp, parallel.component1.mean_rp) << what;
  EXPECT_EQ(serial.anchors, parallel.anchors) << what;
  EXPECT_EQ(serial.scored_vps, parallel.scored_vps) << what;
  ASSERT_EQ(serial.scores.size(), parallel.scores.size()) << what;
  for (std::size_t n = 0; n < serial.scores.size(); ++n) {
    ASSERT_EQ(serial.scores[n], parallel.scores[n]) << what << " row " << n;
  }
  EXPECT_EQ(serial.filters.describe(), parallel.filters.describe()) << what;
}

TEST(Determinism, PipelineIsByteIdenticalAtOneTwoAndEightThreads) {
  const PipelineWorld& world = pipeline_world();
  const sample::GillConfig config;
  const auto serial = sample::run_gill_pipeline(world.ribs, world.training,
                                                {}, config);
  ASSERT_GT(serial.component1.total_updates, 0u);
  ASSERT_FALSE(serial.anchors.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    sample::PipelineRuntime runtime;
    runtime.pool = &pool;
    const auto parallel = sample::run_gill_pipeline(world.ribs,
                                                    world.training, {},
                                                    config, runtime);
    expect_identical(serial, parallel,
                     threads == 1 ? "1 thread"
                                  : (threads == 2 ? "2 threads" : "8 threads"));
    EXPECT_GT(pool.shards_executed(), 0u) << "the pool actually ran shards";
  }
}

TEST(Determinism, Component1MatchesSerialAtEveryThreadCount) {
  const PipelineWorld& world = pipeline_world();
  const auto serial = red::find_redundant_updates(world.training);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    const auto parallel =
        red::find_redundant_updates(world.training, {}, &pool);
    EXPECT_EQ(serial.redundant, parallel.redundant);
    EXPECT_EQ(serial.nonredundant, parallel.nonredundant);
    EXPECT_EQ(serial.mean_rp, parallel.mean_rp);
  }
}

TEST(Determinism, SerialEnvDisablesThePoolPath) {
  const PipelineWorld& world = pipeline_world();
  par::ThreadPool pool(4);
  ::setenv("GILL_ANALYSIS_SERIAL", "1", 1);
  const auto forced = red::find_redundant_updates(world.training, {}, &pool);
  const std::uint64_t shards_after_forced = pool.shards_executed();
  ::unsetenv("GILL_ANALYSIS_SERIAL");
  const auto serial = red::find_redundant_updates(world.training);
  EXPECT_EQ(shards_after_forced, 0u) << "the hatch bypasses the pool";
  EXPECT_EQ(forced.redundant, serial.redundant);
  EXPECT_EQ(forced.mean_rp, serial.mean_rp);
}

// ---------------------------------------------------------------------------
// Feature extraction: the VP-partitioned extractor against the algorithm it
// replaced — one cursor over the merged stream, every VP's features
// recomputed at each event boundary. Kept here as the oracle.
// ---------------------------------------------------------------------------

std::vector<anchor::EventFeatureMatrix> merge_walk_extract(
    const std::vector<bgp::VpId>& vps, const bgp::UpdateStream& rib_dump,
    const bgp::UpdateStream& updates,
    const std::vector<anchor::AnchorEvent>& events) {
  const std::size_t v = vps.size();
  std::unordered_map<bgp::VpId, std::size_t> vp_index;
  for (std::size_t i = 0; i < v; ++i) vp_index[vps[i]] = i;
  std::vector<feat::VpGraph> graphs(v);
  std::vector<bgp::Rib> ribs(v);
  const auto apply = [&](const bgp::Update& update) {
    const auto it = vp_index.find(update.vp);
    if (it == vp_index.end()) return;
    const bgp::Route* old_route = ribs[it->second].find(update.prefix);
    graphs[it->second].replace_route(
        old_route ? old_route->path : bgp::AsPath{},
        update.withdrawal ? bgp::AsPath{} : update.path);
    ribs[it->second].apply(update);
  };
  for (const auto& update : rib_dump) apply(update);

  struct Boundary {
    bgp::Timestamp time;
    std::size_t event_index;
    bool is_start;
  };
  std::vector<Boundary> boundaries;
  for (std::size_t i = 0; i < events.size(); ++i) {
    boundaries.push_back({events[i].start, i, true});
    boundaries.push_back({events[i].end, i, false});
  }
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& a, const Boundary& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.is_start > b.is_start;
            });

  std::vector<std::vector<feat::EventVector>> starts(
      events.size(), std::vector<feat::EventVector>(v));
  std::vector<anchor::EventFeatureMatrix> matrices(events.size());
  std::size_t cursor = 0;
  const auto& stream = updates.updates();
  for (const Boundary& boundary : boundaries) {
    const bgp::Timestamp limit =
        boundary.is_start ? boundary.time : boundary.time + 1;
    while (cursor < stream.size() && stream[cursor].time < limit) {
      apply(stream[cursor++]);
    }
    const anchor::AnchorEvent& event = events[boundary.event_index];
    auto& matrix = matrices[boundary.event_index];
    matrix.rows.resize(v);
    for (std::size_t i = 0; i < v; ++i) {
      const feat::FeatureComputer computer(graphs[i]);
      const auto n1 = computer.node_features(event.as1);
      const auto n2 = computer.node_features(event.as2);
      const auto p = computer.pair_features(event.as1, event.as2);
      // Start snapshot packed as (n1, n2, pair); the end writes deltas.
      feat::EventVector& start = starts[boundary.event_index][i];
      for (std::size_t f = 0; f < feat::kNodeFeatureCount; ++f) {
        if (boundary.is_start) {
          start[f] = n1[f];
          start[feat::kNodeFeatureCount + f] = n2[f];
        } else {
          matrix.rows[i][2 * f] = start[f] - n1[f];
          matrix.rows[i][2 * f + 1] = start[feat::kNodeFeatureCount + f] -
                                      n2[f];
        }
      }
      for (std::size_t f = 0; f < feat::kPairFeatureCount; ++f) {
        const std::size_t slot = 2 * feat::kNodeFeatureCount + f;
        if (boundary.is_start) {
          start[slot] = p[f];
        } else {
          matrix.rows[i][slot] = start[slot] - p[f];
        }
      }
    }
  }
  return matrices;
}

void expect_matrices_identical(
    const std::vector<anchor::EventFeatureMatrix>& expected,
    const std::vector<anchor::EventFeatureMatrix>& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t e = 0; e < expected.size(); ++e) {
    ASSERT_EQ(expected[e].rows.size(), actual[e].rows.size()) << what;
    EXPECT_EQ(0, std::memcmp(expected[e].rows.data(), actual[e].rows.data(),
                             expected[e].rows.size() *
                                 sizeof(feat::EventVector)))
        << what << ": event " << e << " differs";
  }
}

TEST(Determinism, ExtractorMatchesTheMergeWalkAtEveryThreadCount) {
  // The pipeline's own VP list and event set over the shared world.
  const PipelineWorld& world = pipeline_world();
  const sample::GillConfig config;
  std::set<bgp::VpId> vp_set;
  for (const auto& update : world.training) vp_set.insert(update.vp);
  for (const auto& entry : world.ribs) vp_set.insert(entry.vp);
  const std::vector<bgp::VpId> vps(vp_set.begin(), vp_set.end());
  const auto events = anchor::select_events(
      anchor::filter_non_global(
          anchor::infer_events(world.ribs, world.training,
                               config.event_inference),
          vps.size(), config.event_selection.max_visibility),
      {}, config.event_selection);
  ASSERT_GE(vps.size(), 2u);
  ASSERT_FALSE(events.empty());

  const auto oracle =
      merge_walk_extract(vps, world.ribs, world.training, events);
  const bool any_delta = std::any_of(
      oracle.begin(), oracle.end(), [](const anchor::EventFeatureMatrix& m) {
        return std::any_of(m.rows.begin(), m.rows.end(),
                           [](const feat::EventVector& row) {
                             return std::any_of(row.begin(), row.end(),
                                                [](double x) { return x != 0; });
                           });
      });
  ASSERT_TRUE(any_delta) << "the events must move some feature";

  anchor::EventFeatureExtractor extractor(vps);
  expect_matrices_identical(
      oracle, extractor.extract(world.ribs, world.training, events),
      "no pool");
  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    const auto matrices =
        extractor.extract(world.ribs, world.training, events, &pool);
    expect_matrices_identical(oracle, matrices,
                              threads == 1 ? "1 thread"
                                           : (threads == 2 ? "2 threads"
                                                           : "8 threads"));
    EXPECT_GT(pool.shards_executed(), 0u) << "the pool actually ran shards";
  }

  par::ThreadPool pool(4);
  ::setenv("GILL_ANALYSIS_SERIAL", "1", 1);
  const auto forced =
      extractor.extract(world.ribs, world.training, events, &pool);
  ::unsetenv("GILL_ANALYSIS_SERIAL");
  EXPECT_EQ(pool.shards_executed(), 0u) << "the hatch bypasses the pool";
  expect_matrices_identical(oracle, forced, "GILL_ANALYSIS_SERIAL");

  // The replay is defined by one cursor over the stream as given: an update
  // out of time order is applied only once the cursor reaches it. Swapping
  // every adjacent pair makes that contract visible.
  bgp::UpdateStream swapped = world.training;
  auto& updates = swapped.updates();
  for (std::size_t k = 0; k + 1 < updates.size(); k += 2) {
    std::swap(updates[k], updates[k + 1]);
  }
  expect_matrices_identical(
      merge_walk_extract(vps, world.ribs, swapped, events),
      extractor.extract(world.ribs, swapped, events, &pool), "unsorted stream");
}

// ---------------------------------------------------------------------------
// Score cache: a pair whose feature epochs did not change is served from
// the cache, bit-identically.
// ---------------------------------------------------------------------------

std::vector<anchor::EventFeatureMatrix> synthetic_matrices(std::size_t vps,
                                                           std::size_t events) {
  std::vector<anchor::EventFeatureMatrix> matrices(events);
  std::uint64_t state = 0x243F6A8885A308D3ull;
  for (auto& matrix : matrices) {
    matrix.rows.resize(vps);
    for (auto& row : matrix.rows) {
      for (auto& cell : row) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        cell = static_cast<double>(state >> 40) / 1024.0;
      }
    }
  }
  return matrices;
}

TEST(ScoreCache, SecondIdenticalRefreshHitsEveryPair) {
  const std::vector<bgp::VpId> vps = {3, 7, 11, 19};
  const auto matrices = synthetic_matrices(vps.size(), 5);
  anchor::ScoreCache cache;
  const auto first =
      anchor::redundancy_scores(matrices, vps, nullptr, &cache);
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 6u);  // C(4,2) pairs all rescored
  const auto second =
      anchor::redundancy_scores(matrices, vps, nullptr, &cache);
  EXPECT_EQ(cache.hits, 6u) << "unchanged features: every pair cached";
  EXPECT_EQ(cache.misses, 6u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t n = 0; n < first.size(); ++n) {
    EXPECT_EQ(first[n], second[n]) << "cache hits are bit-identical";
  }
}

TEST(ScoreCache, ChangedFeaturesInvalidateOnlyTouchedPairs) {
  const std::vector<bgp::VpId> vps = {1, 2, 3, 4};
  auto matrices = synthetic_matrices(vps.size(), 4);
  anchor::ScoreCache cache;
  (void)anchor::redundancy_scores(matrices, vps, nullptr, &cache);
  ASSERT_EQ(cache.misses, 6u);
  // Swap VP 0's and VP 1's value in one feature column. The column's
  // mean/stddev are unchanged, so VP 2's and VP 3's z-scored rows stay
  // bit-identical and their pair keeps its cache entry, while every pair
  // touching VP 0 or VP 1 rescores. (An additive perturbation would shift
  // the column statistics and legitimately invalidate everyone.)
  for (auto& matrix : matrices) {
    ASSERT_NE(matrix.rows[0][0], matrix.rows[1][0]);
    std::swap(matrix.rows[0][0], matrix.rows[1][0]);
  }
  (void)anchor::redundancy_scores(matrices, vps, nullptr, &cache);
  EXPECT_EQ(cache.hits, 1u) << "the untouched (2,3) pair stays cached";
  EXPECT_EQ(cache.misses, 11u);
}

TEST(ScoreCache, PoolAndSerialAgreeWithCaching) {
  const std::vector<bgp::VpId> vps = {2, 4, 6, 8, 10, 12};
  const auto matrices = synthetic_matrices(vps.size(), 6);
  anchor::ScoreCache serial_cache;
  anchor::ScoreCache pool_cache;
  const auto serial =
      anchor::redundancy_scores(matrices, vps, nullptr, &serial_cache);
  par::ThreadPool pool(4);
  const auto parallel =
      anchor::redundancy_scores(matrices, vps, &pool, &pool_cache);
  for (std::size_t n = 0; n < serial.size(); ++n) {
    EXPECT_EQ(serial[n], parallel[n]);
  }
  EXPECT_EQ(serial_cache.misses, pool_cache.misses);
}

// ---------------------------------------------------------------------------
// Platform: asynchronous refresh off the event loop.
// ---------------------------------------------------------------------------

net::Prefix pfx(const char* text) { return net::Prefix::parse(text).value(); }

/// Feeds both platforms the same redundant two-VP workload.
void feed_redundant_updates(collect::Platform& platform, bgp::VpId vp0,
                            bgp::VpId vp1, bgp::Timestamp base) {
  for (int round = 0; round < 6; ++round) {
    const auto t = static_cast<bgp::Timestamp>(base + round * 1000);
    for (const char* prefix : {"10.0.0.0/24", "10.0.1.0/24"}) {
      bgp::Update update;
      update.prefix = pfx(prefix);
      update.path = round % 2 == 0 ? bgp::AsPath{65010, 65020}
                                   : bgp::AsPath{65010, 65021, 65020};
      platform.remote(vp0).send_update(update);
      platform.remote(vp1).send_update(update);
      platform.step(t);
    }
  }
}

TEST(AsyncRefresh, ProducesTheSameFiltersAsTheSynchronousPath) {
  collect::PlatformConfig sync_config;  // analysis_threads = 0
  collect::Platform sync(sync_config);
  collect::PlatformConfig async_config;
  async_config.analysis_threads = 2;
  collect::Platform async(async_config);
  ASSERT_EQ(async.analysis_thread_count(), 2u);

  for (collect::Platform* platform : {&sync, &async}) {
    const auto vp0 = platform->add_peer(65010, 0);
    const auto vp1 = platform->add_peer(65011, 0);
    platform->step(1);
    feed_redundant_updates(*platform, vp0, vp1, 2);
  }

  sync.refresh_filters(10'000);
  EXPECT_EQ(sync.filter_generation(), 1u);

  async.refresh_filters(10'000);
  EXPECT_TRUE(async.mirror().empty()) << "mirror snapshot moved into the job";
  async.wait_for_refresh();
  EXPECT_FALSE(async.refresh_in_flight());
  EXPECT_EQ(async.filter_generation(), 1u);

  EXPECT_GT(async.filters().drop_rule_count(), 0u);
  EXPECT_EQ(sync.published_filter_document(),
            async.published_filter_document());
  EXPECT_EQ(sync.published_anchor_document(),
            async.published_anchor_document());
}

TEST(AsyncRefresh, SessionsKeepFlowingWhileAJobIsInFlight) {
  std::promise<void> job_started;
  auto started = job_started.get_future();
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> armed{true};

  collect::PlatformConfig config;
  config.analysis_threads = 1;
  config.refresh_job_hook = [&, release] {
    if (armed.exchange(false)) {
      job_started.set_value();
      release.wait();
    }
  };
  collect::Platform platform(config);
  const auto vp0 = platform.add_peer(65010, 0);
  const auto vp1 = platform.add_peer(65011, 0);
  platform.step(1);
  feed_redundant_updates(platform, vp0, vp1, 2);
  const std::size_t stored_before = platform.store().stored();

  platform.refresh_filters(10'000);
  started.wait();  // the worker is now inside the pipeline job
  ASSERT_TRUE(platform.refresh_in_flight());
  EXPECT_EQ(platform.filter_generation(), 0u) << "nothing installed yet";

  // The event loop keeps serving sessions: new updates land in the store
  // and in the next window's mirror while the job computes.
  for (int i = 0; i < 4; ++i) {
    bgp::Update update;
    update.prefix = pfx("10.9.0.0/24");
    update.path = bgp::AsPath{65010, 65030};
    platform.remote(vp0).send_update(update);
    platform.step(static_cast<bgp::Timestamp>(10'001 + i));
  }
  EXPECT_GT(platform.store().stored(), stored_before);
  EXPECT_EQ(platform.mirror().size(), 4u) << "next window accumulates";
  EXPECT_TRUE(platform.refresh_in_flight());

  release_promise.set_value();
  platform.wait_for_refresh();
  EXPECT_FALSE(platform.refresh_in_flight());
  EXPECT_EQ(platform.filter_generation(), 1u);
  EXPECT_GT(platform.filters().drop_rule_count(), 0u);
  EXPECT_EQ(platform.mirror().size(), 4u)
      << "the in-flight window's mirror survives the install";
}

TEST(AsyncRefresh, StaleResultIsDiscardedWhenANewerGenerationLands) {
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  collect::PlatformConfig config;
  config.analysis_threads = 1;
  config.refresh_job_hook = [release] { release.wait(); };
  collect::Platform platform(config);
  const auto vp0 = platform.add_peer(65010, 0);
  const auto vp1 = platform.add_peer(65011, 0);
  platform.step(1);

  feed_redundant_updates(platform, vp0, vp1, 2);
  platform.refresh_filters(10'000);  // generation 1, blocked in the hook
  feed_redundant_updates(platform, vp0, vp1, 20'000);
  platform.refresh_filters(30'000);  // generation 2, queued behind it
  ASSERT_TRUE(platform.refresh_in_flight());

  release_promise.set_value();
  platform.wait_for_refresh();
  // Both jobs completed by harvest time: only the newest generation
  // installs; the older result is discarded, not rolled back to.
  EXPECT_EQ(platform.filter_generation(), 2u);
  EXPECT_EQ(platform.metrics().counter_total(
                "gill_collector_filter_refresh_stale_total"),
            1u);
  EXPECT_EQ(platform.metrics().counter_total(
                "gill_collector_filter_refreshes_total"),
            1u)
      << "the stale job never counts as an installed refresh";
}

TEST(AsyncRefresh, StepInstallsACompletedJobAndRearmsTheTrigger) {
  collect::PlatformConfig config;
  config.analysis_threads = 1;
  // Seconds-scale period: every step below stays inside the 90 s hold
  // timer, so the sessions survive and keep mirroring between windows.
  config.component1_refresh = 100;
  collect::Platform platform(config);
  const auto vp0 = platform.add_peer(65010, 0);
  const auto vp1 = platform.add_peer(65011, 0);
  platform.step(1);
  const auto feed_window = [&](bgp::Timestamp base) {
    for (int round = 0; round < 6; ++round) {
      const auto t = static_cast<bgp::Timestamp>(base + round * 10);
      for (const char* prefix : {"10.0.0.0/24", "10.0.1.0/24"}) {
        bgp::Update update;
        update.prefix = pfx(prefix);
        update.path = round % 2 == 0 ? bgp::AsPath{65010, 65020}
                                     : bgp::AsPath{65010, 65021, 65020};
        platform.remote(vp0).send_update(update);
        platform.remote(vp1).send_update(update);
        platform.step(t);
      }
    }
  };
  feed_window(2);  // ends at t=52, inside the first refresh period
  ASSERT_GT(platform.mirror().size(), 0u);
  platform.step(140);  // the periodic trigger submits the job
  ASSERT_TRUE(platform.refresh_in_flight());
  platform.wait_for_refresh();
  EXPECT_EQ(platform.filter_generation(), 1u);

  // A second window triggers a second generation through step() alone.
  feed_window(150);
  ASSERT_GT(platform.mirror().size(), 0u);
  platform.step(245);
  platform.wait_for_refresh();
  EXPECT_EQ(platform.filter_generation(), 2u);
  EXPECT_EQ(platform.metrics().counter_total(
                "gill_collector_filter_refreshes_total"),
            2u);
}

TEST(AsyncRefresh, SerialEnvFallsBackToTheSynchronousPath) {
  ::setenv("GILL_ANALYSIS_SERIAL", "1", 1);
  collect::PlatformConfig config;
  config.analysis_threads = 4;
  collect::Platform platform(config);
  EXPECT_EQ(platform.analysis_thread_count(), 0u) << "no pool spawned";
  const auto vp0 = platform.add_peer(65010, 0);
  const auto vp1 = platform.add_peer(65011, 0);
  platform.step(1);
  feed_redundant_updates(platform, vp0, vp1, 2);
  platform.refresh_filters(10'000);  // runs inline
  EXPECT_FALSE(platform.refresh_in_flight());
  EXPECT_EQ(platform.filter_generation(), 1u);
  EXPECT_GT(platform.filters().drop_rule_count(), 0u);
  ::unsetenv("GILL_ANALYSIS_SERIAL");
}

}  // namespace
}  // namespace gill
