// The query workload: the /v1/data retrieval path. Set-up writes half a day
// of simulated churn through a compressed SegmentWriter (15-minute windows,
// 50 sealed segments) whose decompressed size is larger than the
// SegmentCache budget; then closed-loop clients share one QueryEngine with a
// scan pool and run a seeded mix of prefix, VP, time-range and scan-all
// queries to the last chunk.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string_view>
#include <thread>

#include "archive/archive_writer.hpp"
#include "archive/segment_cache.hpp"
#include "bench.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"

namespace gb {
namespace {

constexpr bgp::Timestamp kRotateSecs = 900;
constexpr bgp::Timestamp kArchiveSecs = 12 * 3600;
constexpr std::uint64_t kWorldSeed = 93;
constexpr std::size_t kDistinctQueries = 512;
/// Cache budget as a share of the archive's decompressed bytes.
constexpr double kCacheShare = 0.25;

/// What the brute force says one distinct query must return: the record
/// count and a hash of the framed MRT bytes (the whole answer would cost
/// the archive's size per query to keep).
struct Expected {
  std::uint64_t records = 0;
  std::size_t hash = 0;
};

std::size_t hash_bytes(const std::string& bytes) {
  return std::hash<std::string_view>{}(std::string_view(bytes));
}

void log_phase(const char* phase, std::int64_t start_ns) {
  std::fprintf(stderr, "[query] %s at %.2f s\n", phase,
               static_cast<double>(now_ns() - start_ns) / 1e9);
}

}  // namespace

void workload_query(const Options& options, Result& out) {
  // --- set-up: the archive and the benchmark's own copy of it ---------------
  World world = make_refresh_world();
  ArchiveCopy copy;
  // Half a day: six simulated hours, then the same churn again six hours
  // later with the VPs relabelled, so the second half answers VP and prefix
  // queries differently from the first.
  const bgp::UpdateStream quarter =
      churn_window(world, 0, kArchiveSecs / 2, kWorldSeed);
  const bgp::VpId vp_count = static_cast<bgp::VpId>(world.internet->vp_count());
  bgp::UpdateStream day = quarter;
  for (bgp::Update update : quarter) {
    update.time += kArchiveSecs / 2;
    update.vp = (update.vp + 17) % vp_count;
    day.push(std::move(update));
  }
  day.sort();
  copy.records = day.updates();
  log_phase("churn simulated", options.start_ns);

  const std::string directory = options.workdir + "/archive";
  std::filesystem::create_directories(directory);
  metrics::Registry registry;
  {
    par::ThreadPool io_pool(1);
    archive::SegmentWriterConfig writer_config;
    writer_config.directory = directory;
    writer_config.rotate_secs = kRotateSecs;
    writer_config.compress = true;
    writer_config.pool = &io_pool;
    writer_config.registry = &registry;
    archive::SegmentWriter writer(writer_config);
    if (!writer.open()) {
      out.fail("cannot open the archive directory");
      return;
    }
    for (const auto& record : copy.records) writer.store(record);
    writer.close();
  }
  log_phase("archive generated", options.start_ns);

  const unsigned threads = hardware_threads();
  const std::size_t scan_threads = std::max(1u, threads / 2);
  const std::size_t clients = std::max<std::size_t>(1, threads - scan_threads);
  par::ThreadPool scan_pool(scan_threads);
  std::uint64_t raw_bytes = 0;
  std::size_t segments = 0;
  {
    archive::QueryEngineConfig config;
    config.directory = directory;
    config.registry = &registry;
    archive::QueryEngine probe(config);
    if (!probe.open()) {
      out.fail("cannot open the archive for queries");
      return;
    }
    for (const auto& meta : *probe.snapshot()) raw_bytes += meta.raw_bytes;
    segments = probe.snapshot()->size();
  }
  archive::SegmentCacheConfig cache_config;
  cache_config.max_bytes =
      static_cast<std::size_t>(kCacheShare * static_cast<double>(raw_bytes));
  cache_config.registry = &registry;
  archive::SegmentCache cache(cache_config);
  archive::SegmentPins pins;
  archive::QueryEngineConfig engine_config;
  engine_config.directory = directory;
  engine_config.pool = &scan_pool;
  engine_config.cache = &cache;
  engine_config.pins = &pins;
  engine_config.registry = &registry;
  archive::QueryEngine engine(engine_config);
  if (!engine.open()) {
    out.fail("cannot open the query engine");
    return;
  }

  std::mt19937_64 rng(options.seed);
  const auto specs = make_query_mix(copy, kDistinctQueries, rng);
  log_phase("archive written", options.start_ns);
  std::vector<Expected> expected(specs.size());
  std::optional<Expected> scan_all;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == QueryClass::kScanAll && scan_all.has_value()) {
      expected[i] = *scan_all;  // every scan-all asks the same question
      continue;
    }
    const auto records = brute_force(copy, specs[i]);
    expected[i].records = records.size();
    expected[i].hash = hash_bytes(encode_records(copy, records));
    if (specs[i].kind == QueryClass::kScanAll) scan_all = expected[i];
  }
  log_phase("expectations computed", options.start_ns);
  const double setup_s =
      static_cast<double>(now_ns() - options.start_ns) / 1e9;

  // --- timed: closed-loop clients on the shared engine -----------------------
  struct ClientLog {
    std::vector<std::size_t> spec;
    std::vector<QueryTiming> timing;
    std::uint64_t mismatches = 0;
  };
  std::vector<ClientLog> logs(clients);
  const std::uint64_t pruned_before = engine.segments_pruned();
  const std::uint64_t scanned_before = engine.segments_scanned();
  const std::uint64_t hits_before = cache.hits();
  const std::uint64_t misses_before = cache.misses();
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      // Each client walks the seeded mix in order from its own offset, so
      // a run asks whole rounds of the same questions.
      std::size_t i = c * specs.size() / clients;
      ClientLog& log = logs[c];
      std::string bytes;
      do {
        i = (i + 1) % specs.size();
        bytes.clear();
        const QueryTiming timing = run_query(engine, specs[i], bytes);
        if (timing.records != expected[i].records ||
            hash_bytes(bytes) != expected[i].hash) {
          ++log.mismatches;
        }
        log.spec.push_back(i);
        log.timing.push_back(timing);
      } while (now_ns() < deadline);
    });
  }
  for (auto& worker : workers) worker.join();
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;

  std::vector<double> latency_ms;
  std::vector<QuerySpec> run_specs;
  std::vector<QueryTiming> run_timings;
  std::uint64_t mismatches = 0;
  for (const auto& log : logs) {
    mismatches += log.mismatches;
    for (std::size_t k = 0; k < log.spec.size(); ++k) {
      latency_ms.push_back(log.timing[k].total_ms);
      run_specs.push_back(specs[log.spec[k]]);
      run_timings.push_back(log.timing[k]);
    }
  }
  out.attempted = latency_ms.size();
  if (mismatches != 0) {
    out.fail(std::to_string(mismatches) +
             " answers differ from the brute force over the archived stream");
  }

  // --- after timing: every distinct query once more on a cold engine (no
  // cache, no pool), decoded record by record ------------------------------
  {
    trace::Scope span("query.cold_check");
    archive::QueryEngineConfig cold_config;
    cold_config.directory = directory;
    cold_config.registry = &registry;
    archive::QueryEngine cold(cold_config);
    if (!cold.open()) out.fail("cannot open the cold engine");
    std::uint64_t cold_mismatches = 0;
    bool scan_all_checked = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].kind == QueryClass::kScanAll) {
        if (scan_all_checked) continue;  // every scan-all is the same query
        scan_all_checked = true;
      }
      std::string bytes;
      const QueryTiming timing = run_query(cold, specs[i], bytes);
      const auto records = brute_force(copy, specs[i]);
      if (timing.records != records.size() ||
          hash_bytes(bytes) != expected[i].hash ||
          !same_records(bytes, copy, records)) {
        ++cold_mismatches;
      }
    }
    if (cold_mismatches != 0) {
      out.fail(std::to_string(cold_mismatches) +
               " cold-engine answers differ from the brute force");
    }
  }

  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("work_per_s", static_cast<double>(latency_ms.size()) / elapsed_s,
             "1/s");
  out.metric("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  // The tail is p90, not p99: over ten runs, 8% CPU steal raised p99 by
  // 60% but p50 by 12%, so p99 measured the host more than the engine.
  out.metric("latency_tail_ms", quantile(latency_ms, 0.9), "ms");
  out.note("query_p99_ms",
           quantile(latency_ms, tail_quantile(latency_ms.size())));
  out.note("queries", static_cast<double>(latency_ms.size()));
  out.note("clients", static_cast<double>(clients));
  out.note("scan_threads", static_cast<double>(scan_threads));
  out.note("archive_records", static_cast<double>(copy.records.size()));
  out.note("archive_segments", static_cast<double>(segments));
  out.note("archive_raw_mb", static_cast<double>(raw_bytes) / 1048576.0);
  out.note("cache_budget_mb",
           static_cast<double>(cache_config.max_bytes) / 1048576.0);

  if (options.trace) {
    out.metrics.clear();
    report_query_layers(run_specs, run_timings,
                        engine.segments_pruned() - pruned_before,
                        engine.segments_scanned() - scanned_before,
                        cache.hits() - hits_before,
                        cache.misses() - misses_before, out);
    // Refresh and ingest layers on this workload's stream: one refresh over
    // the first six hours, then the whole archive replayed through the ingest
    // layers with the filters it generated.
    par::ThreadPool pool(threads);
    StageTimes times;
    const sample::GillConfig config;
    const auto refresh = compose_refresh(quarter, config, &pool, nullptr, times);
    check_refresh(refresh, quarter, out);
    report_refresh_layers(times, refresh, quarter, out);
    ReplayInput replay;
    replay.updates = copy.records;
    replay.filters = &refresh.filters;
    replay.archive_dir = options.workdir + "/replay";
    ReplayFigures figures;
    replay_ingest_layers(replay, out, figures);
    out.metric("archive.store_ns", figures.store_ns, "ns");
    out.metric("filters.discard_ratio", figures.discard_ratio, "ratio");
    out.metric("archive.bytes_per_record", figures.bytes_per_record, "B");
    report_idle_collector_layers(out);
  }
}

}  // namespace gb
