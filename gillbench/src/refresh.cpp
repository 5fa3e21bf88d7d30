// The refresh workload: the merge-plane refresh the orchestrator runs every
// period. One world the size of bench_parallel_refresh; a cold refresh
// (no score cache) and a low-churn refresh (the cache carried across
// refreshes, as ShardedPlatform carries it) alternate on windows in which a
// few VPs received new updates.
#include <algorithm>
#include <cstdio>
#include <set>

#include "bench.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"

namespace gb {
namespace {

constexpr bgp::Timestamp kWindowStart = 10;
constexpr bgp::Timestamp kWindowSecs = 6 * 3600;
constexpr std::uint64_t kWorldSeed = 93;
constexpr std::size_t kDistinctWindows = 4;
constexpr double kDirtyShare = 0.03;  // VPs with new updates per window
constexpr std::size_t kNewUpdatesPerDirtyVp = 200;

/// The base window plus, for a seeded few VPs, re-announcements of their
/// own routes with a changed community set a few seconds later (paths
/// unchanged): the community churn that dominates quiet periods.
bgp::UpdateStream low_churn_window(const bgp::UpdateStream& base,
                                   std::mt19937_64& rng) {
  std::set<bgp::VpId> vp_set;
  for (const auto& update : base) vp_set.insert(update.vp);
  std::vector<bgp::VpId> vps(vp_set.begin(), vp_set.end());
  std::shuffle(vps.begin(), vps.end(), rng);
  const std::size_t dirty = std::max<std::size_t>(
      1, static_cast<std::size_t>(kDirtyShare * static_cast<double>(vps.size()) +
                                  0.5));
  std::vector<bgp::Update> updates = base.updates();
  for (std::size_t d = 0; d < dirty; ++d) {
    std::vector<const bgp::Update*> own;
    for (const auto& update : base) {
      if (update.vp == vps[d] && !update.withdrawal) own.push_back(&update);
    }
    if (own.empty()) continue;
    for (std::size_t k = 0; k < kNewUpdatesPerDirtyVp; ++k) {
      bgp::Update fresh = *own[rng() % own.size()];
      fresh.time += 1 + static_cast<bgp::Timestamp>(rng() % 30);
      bgp::insert_community(
          fresh.communities,
          bgp::Community{65000, static_cast<std::uint16_t>(rng() % 1000)});
      updates.push_back(std::move(fresh));
    }
  }
  bgp::UpdateStream window(std::move(updates));
  window.sort();
  return window;
}

}  // namespace

void workload_refresh(const Options& options, Result& out) {
  // --- set-up: world, windows, a warm-up refresh that fills the cache -------
  World world = make_refresh_world();
  const bgp::UpdateStream base =
      churn_window(world, kWindowStart, kWindowSecs, kWorldSeed);
  std::mt19937_64 rng(options.seed);
  std::vector<bgp::UpdateStream> windows;
  for (std::size_t i = 0; i < kDistinctWindows; ++i) {
    windows.push_back(low_churn_window(base, rng));
  }
  const unsigned threads = hardware_threads();
  par::ThreadPool pool(threads);
  const sample::GillConfig config;
  anchor::ScoreCache cache;
  sample::PipelineRuntime warm_runtime;
  warm_runtime.pool = &pool;
  warm_runtime.score_cache = &cache;
  sample::PipelineRuntime cold_runtime;
  cold_runtime.pool = &pool;
  sample::run_gill_pipeline(bgp::UpdateStream{}, base, {}, config,
                            warm_runtime);
  const double setup_s =
      static_cast<double>(now_ns() - options.start_ns) / 1e9;

  // --- timed: whole rounds of (cold, low-churn) refreshes ---------------------
  std::vector<double> cold_ms, warm_ms;
  std::vector<double> updates_per_s;  // per timed refresh
  std::vector<std::string> cold_digest(kDistinctWindows);
  std::vector<StageTimes> stage_times;
  StageTimes warm_cache_totals;
  sample::GillPipelineResult last_warm;
  std::size_t last_window = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::size_t round = 0;
  do {
    const std::size_t j = round % kDistinctWindows;
    const bgp::UpdateStream& window = windows[j];
    sample::GillPipelineResult cold, warm;
    std::int64_t start = now_ns();
    if (options.trace) {
      StageTimes times;
      cold = compose_refresh(window, config, &pool, nullptr, times);
      stage_times.push_back(times);
    } else {
      trace::Scope span("refresh.cold");
      cold = sample::run_gill_pipeline(bgp::UpdateStream{}, window, {}, config,
                                       cold_runtime);
    }
    const double cold_s = static_cast<double>(now_ns() - start) / 1e9;
    start = now_ns();
    if (options.trace) {
      StageTimes times;
      warm = compose_refresh(window, config, &pool, &cache, times);
      stage_times.push_back(times);
      warm_cache_totals.cache_hits += times.cache_hits;
      warm_cache_totals.cache_misses += times.cache_misses;
    } else {
      warm = sample::run_gill_pipeline(bgp::UpdateStream{}, window, {}, config,
                                       warm_runtime);
    }
    const double warm_s = static_cast<double>(now_ns() - start) / 1e9;
    cold_ms.push_back(cold_s * 1e3);
    warm_ms.push_back(warm_s * 1e3);
    updates_per_s.push_back(static_cast<double>(window.size()) / cold_s);
    updates_per_s.push_back(static_cast<double>(window.size()) / warm_s);
    out.attempted += 2;

    // Checks (outside the timed calls): warm == cold byte for byte, and
    // the properties every result must have.
    const std::string cold_bytes = digest(cold);
    if (cold_bytes != digest(warm)) {
      out.fail("warm-cache refresh differs from the cold refresh");
    }
    if (cold_digest[j].empty()) {
      cold_digest[j] = cold_bytes;
    } else if (cold_digest[j] != cold_bytes) {
      out.fail("two cold refreshes of one window differ");
    }
    check_refresh(warm, window, out);
    if (warm.anchors.empty()) out.fail("a refresh selected no anchor");
    if (warm.filters.drop_rule_count() == 0) {
      out.fail("a refresh generated no drop rule");
    }

    // The third operation of the round: a low-churn refresh of the base
    // window, whose input does not depend on the seed. Its filter table is
    // also checked for drop rules that name an anchor VP; the pipeline
    // emits those today (see README), so this operation fails every round
    // and is counted in `failed`.
    {
      trace::Scope span("refresh.base_window");
      StageTimes ignored;
      const auto published =
          options.trace
              ? compose_refresh(base, config, &pool, &cache, ignored)
              : sample::run_gill_pipeline(bgp::UpdateStream{}, base, {},
                                          config, warm_runtime);
      check_refresh(published, base, out);
      const std::size_t anchor_rules = anchor_drop_rules(published);
      ++out.attempted;
      if (anchor_rules != 0) {
        if (out.failed == 0) {
          std::fprintf(stderr,
                       "%zu drop rules name an anchor VP (base window)\n",
                       anchor_rules);
        }
        ++out.failed;
      }
    }
    last_warm = std::move(warm);
    last_window = j;
    ++round;
  } while (now_ns() < deadline);

  // --- after timing: the serial path must give the same bytes ----------------
  {
    trace::Scope span("refresh.serial_check");
    const auto serial = sample::run_gill_pipeline(bgp::UpdateStream{},
                                                  windows[0], {}, config);
    if (digest(serial) != cold_digest[0]) {
      out.fail("the pool and the serial path give different refreshes");
    }
    if (options.trace) {
      // The composed stages must equal the library's own pipeline.
      StageTimes ignored;
      const auto composed =
          compose_refresh(windows[0], config, nullptr, nullptr, ignored);
      if (digest(composed) != digest(serial)) {
        out.fail("the composed stages differ from run_gill_pipeline");
      }
    }
  }

  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("work_per_s", median(updates_per_s), "1/s");
  out.metric("latency_p50_ms", median(warm_ms), "ms");
  out.metric("latency_tail_ms", median(cold_ms), "ms");
  out.note("refresh_cold_s", median(cold_ms) / 1e3);
  out.note("refresh_low_churn_s", median(warm_ms) / 1e3);
  out.note("refreshes", static_cast<double>(cold_ms.size() + warm_ms.size()));
  out.note("window_updates", static_cast<double>(windows[0].size()));

  if (options.trace) {
    // Refresh stages: medians over every composed refresh of the run.
    StageTimes medians;
    const auto stage = [&](double StageTimes::*field) {
      std::vector<double> values;
      for (const auto& times : stage_times) values.push_back(times.*field);
      return median(values);
    };
    medians.component1_s = stage(&StageTimes::component1_s);
    medians.events_s = stage(&StageTimes::events_s);
    medians.extract_s = stage(&StageTimes::extract_s);
    medians.scores_s = stage(&StageTimes::scores_s);
    medians.select_s = stage(&StageTimes::select_s);
    medians.generate_s = stage(&StageTimes::generate_s);
    medians.cache_hits = warm_cache_totals.cache_hits;
    medians.cache_misses = warm_cache_totals.cache_misses;
    medians.shards_executed = stage_times.back().shards_executed;
    out.metrics.clear();
    report_refresh_layers(medians, last_warm, windows[last_window], out);

    // Ingest and query layers on this workload's window: replay it through
    // the ingest layers with the generated filters, then query the archive
    // the replay wrote.
    ReplayInput replay;
    replay.updates = windows[last_window].updates();
    replay.filters = &last_warm.filters;
    replay.archive_dir = options.workdir + "/replay";
    ReplayFigures figures;
    ArchiveCopy copy;
    copy.records = replay_ingest_layers(replay, out, figures);
    out.metric("archive.store_ns", figures.store_ns, "ns");
    out.metric("filters.discard_ratio", figures.discard_ratio, "ratio");
    out.metric("archive.bytes_per_record", figures.bytes_per_record, "B");
    probe_query_layers(replay.archive_dir, copy, 128, options.seed, out);
    report_idle_collector_layers(out);
  }
}

}  // namespace gb
