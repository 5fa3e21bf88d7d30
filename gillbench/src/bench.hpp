// Shared pieces of the gillbench binary: the run's options and result, host
// facts printed next to the metrics, the simulated worlds the workloads draw
// their inputs from, and the per-layer probes every traced run executes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "anchor/scoring.hpp"
#include "archive/query_engine.hpp"
#include "bgp/update.hpp"
#include "filters/filters.hpp"
#include "sampling/gill_pipeline.hpp"
#include "simulator/internet.hpp"
#include "topology/topology.hpp"

namespace gb {

using namespace gill;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    // scratch for archives, removed by the caller
  std::string trace_dir;  // where the traced run writes its spans
  std::int64_t start_ns = 0;  // process start, for setup_s
};

/// What one run reports. Metrics keep insertion order.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Named figures printed before the JSON line (not part of the result).
  std::vector<std::pair<std::string, double>> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& name, double value) {
    notes.push_back({name, value});
  }
  /// Records a failed correctness check (printed to stderr).
  void fail(const std::string& what);
};

// --- host --------------------------------------------------------------------
unsigned hardware_threads();
/// Aggregate CPU jiffies from /proc/stat: {steal, total}.
std::pair<std::uint64_t, std::uint64_t> cpu_steal_jiffies();
double peak_rss_mb();
std::string filesystem_type(const std::string& path);

// --- statistics ----------------------------------------------------------------
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// The tail a sample supports: p99 from 1000 samples up, below that the
/// highest quantile with ten samples beyond it.
inline double tail_quantile(std::size_t samples) {
  if (samples >= 1000) return 0.99;
  if (samples <= 20) return 0.5;
  return 1.0 - 10.0 / static_cast<double>(samples);
}

// --- worlds -------------------------------------------------------------------
/// A simulated Internet (topology + routing state) that workloads draw
/// update streams from. The topology is owned here because sim::Internet
/// refers to it.
struct World {
  std::unique_ptr<topo::AsTopology> topology;
  std::unique_ptr<sim::Internet> internet;
};

/// The bench_parallel_refresh world: 400 ASes, one VP on every fifth AS
/// below 340 (68 VPs).
World make_refresh_world();
/// A world with `vps` VPs spread over the same 400-AS topology, each AS
/// originating `prefixes_per_as` /24s.
World make_small_world(std::size_t vps, std::size_t prefixes_per_as);
/// One window of simulator churn (generate_workload), time-sorted.
bgp::UpdateStream churn_window(World& world, bgp::Timestamp start,
                               bgp::Timestamp duration, std::uint64_t seed,
                               double link_failures_per_hour = 50);

// --- refresh stages (composed in pipeline order) -----------------------------
struct StageTimes {
  double component1_s = 0;
  double events_s = 0;
  double extract_s = 0;
  double scores_s = 0;
  double select_s = 0;
  double generate_s = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t shards_executed = 0;
};

/// Runs the stages of sample::run_gill_pipeline one by one (empty RIB, as
/// the merge plane calls it), each inside a span.
sample::GillPipelineResult compose_refresh(const bgp::UpdateStream& window,
                                           const sample::GillConfig& config,
                                           par::ThreadPool* pool,
                                           anchor::ScoreCache* cache,
                                           StageTimes& times);

/// A deterministic byte serialization of a pipeline result (sets sorted),
/// for byte-identity checks between two ways of computing it.
std::string digest(const sample::GillPipelineResult& result);

/// The properties every refresh result must have (see README), except the
/// anchor-rule property (anchor_drop_rules). Each holds whether or not
/// generate_filters also emits rules for anchor VPs.
void check_refresh(const sample::GillPipelineResult& result,
                   const bgp::UpdateStream& window, Result& out);

/// Drop rules beyond the redundant pairs of non-anchor VPs: rules that name
/// an anchor VP (0 when every drop rule is a redundant pair of a non-anchor
/// VP).
std::size_t anchor_drop_rules(const sample::GillPipelineResult& result);

/// Emits the refresh-stage per-layer metrics.
void report_refresh_layers(const StageTimes& times,
                           const sample::GillPipelineResult& result,
                           const bgp::UpdateStream& window, Result& out);

// --- ingest layers, replayed single-threaded ---------------------------------
struct ReplayInput {
  std::vector<bgp::Update> updates;  // vp and time set
  const filt::FilterTable* filters = nullptr;
  std::string archive_dir;  // a fresh directory for the replay's segments
  bgp::Timestamp rotate_secs = 900;
};

/// Replay figures the caller reports under the names the live ingest run
/// also measures.
struct ReplayFigures {
  double store_ns = 0;          // SegmentWriter::store per record
  double discard_ratio = 0;     // updates the filter table discards
  double bytes_per_record = 0;  // sealed payload bytes per record
};

/// Replays `input` through wire encode/decode, the filter table, a RIB, a
/// LockedSink around a compressed SegmentWriter, the live-feed encoder and
/// the bloom builder, timing each layer per item; emits the ingest-layer
/// per-layer metrics that a replay can measure. Returns the records the
/// replay archived (accepted updates, in order).
std::vector<bgp::Update> replay_ingest_layers(const ReplayInput& input,
                                              Result& out,
                                              ReplayFigures& figures);

// --- the query path ------------------------------------------------------------
enum class QueryClass { kPrefix, kVp, kRange, kScanAll };
const char* to_string(QueryClass kind);

struct QuerySpec {
  QueryClass kind = QueryClass::kScanAll;
  archive::QueryOptions options;
};

/// The archived stream as the benchmark keeps it: records in archive
/// (segment) order.
struct ArchiveCopy {
  std::vector<bgp::Update> records;
};

/// A seeded query mix over `copy`: an equal share of prefix, VP,
/// time-range and scan-all queries.
std::vector<QuerySpec> make_query_mix(const ArchiveCopy& copy,
                                      std::size_t count, std::mt19937_64& rng);

/// Brute force over the benchmark's copy: the positions of the records
/// `spec` selects, in archive order.
std::vector<std::uint32_t> brute_force(const ArchiveCopy& copy,
                                       const QuerySpec& spec);
/// Those records framed as MRT, exactly as the archive stores them.
std::string encode_records(const ArchiveCopy& copy,
                           const std::vector<std::uint32_t>& positions);

struct QueryTiming {
  double plan_us = 0;
  double first_chunk_ms = 0;
  double scan_ms = 0;   // every next_chunk call
  double total_ms = 0;  // query() to last chunk
  std::uint64_t records = 0;
};

/// Runs one query to its last chunk, appending the bytes to `bytes`.
QueryTiming run_query(archive::QueryEngine& engine, const QuerySpec& spec,
                      std::string& bytes);

/// Decodes `bytes` and compares it, record by record, with the records of
/// `copy` at `expected`.
bool same_records(const std::string& bytes, const ArchiveCopy& copy,
                  const std::vector<std::uint32_t>& expected);

/// Runs `specs` once each through a fresh engine with a scan pool and a
/// cache over `directory`, checks every answer against the brute force
/// (decoded and byte-wise, hot and cold) and emits the query-layer
/// per-layer metrics. Used by the traced runs of ingest and refresh.
void probe_query_layers(const std::string& directory, const ArchiveCopy& copy,
                        std::size_t queries, std::uint64_t seed,
                        Result& out);

/// Emits the query-layer per-layer metrics from per-query timings.
void report_query_layers(const std::vector<QuerySpec>& specs,
                         const std::vector<QueryTiming>& timings,
                         std::uint64_t pruned, std::uint64_t scanned,
                         std::uint64_t hits, std::uint64_t misses,
                         Result& out);

/// The live-collector per-layer metrics for workloads without live
/// sessions, so that every traced run carries every metric. Measured: the
/// control tick of a one-shard ShardedPlatform with no peers, and the cost
/// of taking the LockedSink's lock with no other shard to wait for.
/// Placeholders, not measurements: the shard spread (1) and the read
/// pauses (0) of a platform that has no sessions.
void report_idle_collector_layers(Result& out);

// --- workloads -----------------------------------------------------------------
void workload_ingest(const Options& options, Result& out);
void workload_refresh(const Options& options, Result& out);
void workload_query(const Options& options, Result& out);

}  // namespace gb
