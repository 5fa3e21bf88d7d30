// Worlds, the refresh-stage composition, the single-threaded ingest-layer
// replay and the query path shared by the three workloads.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <unordered_map>

#include "anchor/component2.hpp"
#include "anchor/event_inference.hpp"
#include "anchor/event_selection.hpp"
#include "archive/archive_writer.hpp"
#include "archive/bloom.hpp"
#include "archive/segment_cache.hpp"
#include "bench.hpp"
#include "bgp/rib.hpp"
#include "collector/sharded.hpp"
#include "feed/live_feed.hpp"
#include "mrt/mrt.hpp"
#include "parallel/thread_pool.hpp"
#include "redundancy/component1.hpp"
#include "simulator/workload.hpp"
#include "topology/generator.hpp"
#include "trace.hpp"
#include "wire/messages.hpp"

namespace gb {

// --- worlds --------------------------------------------------------------------

namespace {

constexpr std::uint32_t kWorldAses = 400;

World make_world(std::vector<bgp::AsNumber> vp_hosts,
                 std::size_t prefixes_per_as) {
  World world;
  world.topology = std::make_unique<topo::AsTopology>(
      topo::generate_artificial({.as_count = kWorldAses, .seed = 91}));
  sim::InternetConfig config;
  config.vp_hosts = std::move(vp_hosts);
  if (prefixes_per_as > 1) {
    // 10.0.0.0/8 carved into per-AS blocks of /24s.
    config.prefixes.resize(kWorldAses);
    for (std::uint32_t as = 0; as < kWorldAses; ++as) {
      for (std::uint32_t k = 0; k < prefixes_per_as; ++k) {
        config.prefixes[as].push_back(net::Prefix(
            net::IpAddress::v4(0x0A000000u | (as << 12) | (k << 8)), 24));
      }
    }
  }
  config.rng_seed = 92;
  config.path_exploration_probability = 0.35;
  world.internet = std::make_unique<sim::Internet>(*world.topology, config);
  return world;
}

}  // namespace

World make_refresh_world() {
  std::vector<bgp::AsNumber> hosts;
  for (bgp::AsNumber as = 0; as < 340; as += 5) hosts.push_back(as);
  return make_world(std::move(hosts), 1);
}

World make_small_world(std::size_t vps, std::size_t prefixes_per_as) {
  std::vector<bgp::AsNumber> hosts;
  for (std::size_t i = 0; i < vps; ++i) {
    hosts.push_back(static_cast<bgp::AsNumber>((i * 337 / vps) + 5 * (i % 2)));
  }
  return make_world(std::move(hosts), prefixes_per_as);
}

bgp::UpdateStream churn_window(World& world, bgp::Timestamp start,
                               bgp::Timestamp duration, std::uint64_t seed,
                               double link_failures_per_hour) {
  sim::WorkloadConfig workload;
  workload.seed = seed;
  workload.duration = duration;
  workload.link_failures_per_hour = link_failures_per_hour;
  workload.hotspot_fraction = 0.2;
  auto stream = sim::generate_workload(*world.internet, start, workload);
  stream.sort();
  return stream;
}

// --- refresh stages ------------------------------------------------------------

namespace {

double seconds_since(std::int64_t start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

}  // namespace

sample::GillPipelineResult compose_refresh(const bgp::UpdateStream& window,
                                           const sample::GillConfig& config,
                                           par::ThreadPool* pool,
                                           anchor::ScoreCache* cache,
                                           StageTimes& times) {
  trace::Scope whole("sampling.refresh_composed");
  const std::uint64_t shards_before = pool ? pool->shards_executed() : 0;
  const std::uint64_t hits_before = cache ? cache->hits : 0;
  const std::uint64_t misses_before = cache ? cache->misses : 0;
  const bgp::UpdateStream rib;  // the merge plane passes no RIB dump
  sample::GillPipelineResult result;

  std::int64_t start = now_ns();
  {
    trace::Scope span("redundancy.component1", window.size());
    result.component1 =
        red::find_redundant_updates(window, config.component1, pool);
  }
  times.component1_s = seconds_since(start);

  std::set<bgp::VpId> vp_set;
  for (const auto& update : window) vp_set.insert(update.vp);
  const std::vector<bgp::VpId> vps(vp_set.begin(), vp_set.end());

  start = now_ns();
  std::vector<anchor::AnchorEvent> events;
  {
    trace::Scope span("anchor.events");
    const auto inferred =
        anchor::infer_events(rib, window, config.event_inference);
    const auto candidates = anchor::filter_non_global(
        inferred, vps.size(), config.event_selection.max_visibility);
    events = anchor::select_events(candidates, {}, config.event_selection);
  }
  times.events_s = seconds_since(start);
  result.events_used = events.size();

  if (!events.empty() && vps.size() >= 2) {
    start = now_ns();
    std::vector<anchor::EventFeatureMatrix> matrices;
    {
      trace::Scope span("anchor.extract", events.size());
      anchor::EventFeatureExtractor extractor(vps);
      matrices = extractor.extract(rib, window, events, pool);
    }
    times.extract_s = seconds_since(start);

    start = now_ns();
    {
      trace::Scope span("anchor.scores", vps.size());
      result.scores =
          anchor::redundancy_scores(std::move(matrices), vps, pool, cache);
    }
    times.scores_s = seconds_since(start);
    result.scored_vps = vps;

    start = now_ns();
    {
      trace::Scope span("anchor.select");
      std::map<bgp::VpId, double> volume_by_vp;
      for (const auto& update : window) volume_by_vp[update.vp] += 1.0;
      std::vector<double> volumes;
      for (const bgp::VpId vp : vps) volumes.push_back(volume_by_vp[vp]);
      anchor::Component2Config component2 = config.component2;
      component2.max_anchors = std::min<std::size_t>(
          component2.max_anchors,
          std::max<std::size_t>(
              1, static_cast<std::size_t>(config.max_anchor_fraction *
                                          static_cast<double>(vps.size()))));
      result.anchors =
          anchor::select_anchors(result.scores, vps, volumes, component2)
              .anchors;
    }
    times.select_s = seconds_since(start);
  }

  start = now_ns();
  {
    trace::Scope span("filters.generate");
    result.filters = filt::generate_filters(result.component1, result.anchors,
                                            config.granularity, &window);
  }
  times.generate_s = seconds_since(start);
  times.cache_hits = cache ? cache->hits - hits_before : 0;
  times.cache_misses = cache ? cache->misses - misses_before : 0;
  times.shards_executed = pool ? pool->shards_executed() - shards_before : 0;
  return result;
}

namespace {

std::vector<std::string> sorted_pairs(const red::VpPrefixSet& set) {
  std::vector<std::string> out;
  out.reserve(set.size());
  for (const auto& pair : set) {
    out.push_back(std::to_string(pair.vp) + " " + pair.prefix.str());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string digest(const sample::GillPipelineResult& result) {
  std::string out;
  const auto append_raw = [&out](const void* data, std::size_t size) {
    out.append(static_cast<const char*>(data), size);
  };
  for (const auto& pair : sorted_pairs(result.component1.redundant)) {
    out += "R " + pair + "\n";
  }
  for (const auto& pair : sorted_pairs(result.component1.nonredundant)) {
    out += "N " + pair + "\n";
  }
  out += "total " + std::to_string(result.component1.total_updates) + " " +
         std::to_string(result.component1.nonredundant_updates) + "\n";
  append_raw(&result.component1.mean_rp, sizeof(double));
  out += "\nanchors";
  for (const auto vp : result.anchors) out += " " + std::to_string(vp);
  out += "\nvps";
  for (const auto vp : result.scored_vps) out += " " + std::to_string(vp);
  out += "\nscores\n";
  for (const auto& row : result.scores) {
    append_raw(row.data(), row.size() * sizeof(double));
  }
  out += "\nevents " + std::to_string(result.events_used) + "\n";
  out += result.filters.describe();
  return out;
}

void check_refresh(const sample::GillPipelineResult& result,
                   const bgp::UpdateStream& window, Result& out) {
  const filt::FilterTable& filters = result.filters;
  // The score matrix: symmetric, diagonal 1, values in [0, 1].
  const auto& scores = result.scores;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i].size() != scores.size()) {
      out.fail("score matrix is not square");
      return;
    }
    if (scores[i][i] != 1.0) out.fail("score diagonal is not 1");
    for (std::size_t j = 0; j < scores.size(); ++j) {
      const double value = scores[i][j];
      if (!(value >= 0.0 && value <= 1.0)) out.fail("score outside [0, 1]");
      if (value != scores[j][i]) out.fail("score matrix is not symmetric");
    }
  }
  // Component #1: the two sets are disjoint and cover the window's pairs.
  const auto& c1 = result.component1;
  red::VpPrefixSet pairs;
  for (const auto& update : window) pairs.insert({update.vp, update.prefix});
  for (const auto& pair : c1.redundant) {
    if (c1.nonredundant.count(pair) != 0) {
      out.fail("a (VP, prefix) pair is both redundant and nonredundant");
      break;
    }
  }
  if (c1.redundant.size() + c1.nonredundant.size() != pairs.size()) {
    out.fail("Component #1 does not classify every (VP, prefix) pair once");
  }
  for (const auto& pair : pairs) {
    if (c1.redundant.count(pair) == 0 && c1.nonredundant.count(pair) == 0) {
      out.fail("a (VP, prefix) pair of the window is unclassified");
      break;
    }
  }
  if (c1.total_updates != window.size()) {
    out.fail("total_updates " + std::to_string(c1.total_updates) +
             " != window size " + std::to_string(window.size()));
  }
  // Anchors: at most max(1, 0.1 V).
  std::set<bgp::VpId> vps;
  for (const auto& update : window) vps.insert(update.vp);
  const std::size_t cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(0.1 * static_cast<double>(vps.size())));
  if (result.anchors.size() > cap) out.fail("more anchors than max(1, 0.1 V)");
  // Drop rules: a non-anchor pair of the window is dropped exactly when it
  // is redundant (probed below), and no rule lies beyond the redundant
  // pairs. These hold whether or not rules also name anchor VPs; that
  // property is anchor_drop_rules'.
  const std::set<bgp::VpId> anchors(result.anchors.begin(),
                                    result.anchors.end());
  if (filters.drop_rule_count() > c1.redundant.size()) {
    out.fail("filter table has " + std::to_string(filters.drop_rule_count()) +
             " drop rules for " + std::to_string(c1.redundant.size()) +
             " redundant (VP, prefix) pairs");
  }
  for (const auto& pair : pairs) {
    bgp::Update probe;
    probe.vp = pair.vp;
    probe.prefix = pair.prefix;
    const bool dropped = !filters.accept(probe);
    const bool should_drop =
        c1.redundant.count(pair) != 0 && anchors.count(pair.vp) == 0;
    if (dropped != should_drop) {
      out.fail("filter decision differs from Component #1 and the anchors");
      break;
    }
  }
}

std::size_t anchor_drop_rules(const sample::GillPipelineResult& result) {
  const filt::FilterTable& filters = result.filters;
  const std::set<bgp::VpId> anchors(result.anchors.begin(),
                                    result.anchors.end());
  std::size_t non_anchor = 0;
  for (const auto& pair : result.component1.redundant) {
    if (anchors.count(pair.vp) == 0) ++non_anchor;
  }
  return filters.drop_rule_count() > non_anchor
             ? filters.drop_rule_count() - non_anchor
             : 0;
}

void report_refresh_layers(const StageTimes& times,
                           const sample::GillPipelineResult& result,
                           const bgp::UpdateStream& window, Result& out) {
  out.metric("redundancy.component1_s", times.component1_s, "s");
  out.metric("anchor.events_s", times.events_s, "s");
  out.metric("anchor.extract_s", times.extract_s, "s");
  out.metric("anchor.scores_s", times.scores_s, "s");
  const double lookups =
      static_cast<double>(times.cache_hits + times.cache_misses);
  out.metric("anchor.score_cache_hit_ratio",
             lookups > 0 ? static_cast<double>(times.cache_hits) / lookups : 0,
             "ratio");
  out.metric("anchor.select_s", times.select_s, "s");
  out.metric("filters.generate_s", times.generate_s, "s");
  std::set<bgp::VpId> vps;
  for (const auto& update : window) vps.insert(update.vp);
  out.metric("sampling.training_updates", static_cast<double>(window.size()),
             "count");
  out.metric("anchor.vps", static_cast<double>(vps.size()), "count");
  out.metric("anchor.events_used", static_cast<double>(result.events_used),
             "count");
  out.metric("filters.drop_rules",
             static_cast<double>(result.filters.drop_rule_count()), "count");
  out.metric("parallel.shards_executed",
             static_cast<double>(times.shards_executed), "count");
}

// --- ingest-layer replay ---------------------------------------------------------

namespace {

wire::UpdateMessage to_message(const bgp::Update& update) {
  wire::UpdateMessage message;
  const bool v4 = update.prefix.family() == net::Family::v4;
  if (update.withdrawal) {
    (v4 ? message.withdrawn : message.withdrawn_v6).push_back(update.prefix);
  } else {
    (v4 ? message.nlri : message.nlri_v6).push_back(update.prefix);
    message.path = update.path;
    message.communities = update.communities;
    message.next_hop = 0x0A000002;
  }
  return message;
}

constexpr std::size_t kReplayBatch = 4096;

/// Runs `body(i)` for every index in batches of kReplayBatch, each batch in
/// one span; returns the mean nanoseconds per item.
template <typename Body>
double timed_batches(const char* name, std::size_t count, Body&& body) {
  std::int64_t total = 0;
  for (std::size_t begin = 0; begin < count; begin += kReplayBatch) {
    const std::size_t end = std::min(count, begin + kReplayBatch);
    trace::Scope span(name, end - begin);
    const std::int64_t start = now_ns();
    for (std::size_t i = begin; i < end; ++i) body(i);
    total += now_ns() - start;
  }
  return count == 0 ? 0 : static_cast<double>(total) / static_cast<double>(count);
}

}  // namespace

std::vector<bgp::Update> replay_ingest_layers(const ReplayInput& input,
                                              Result& out,
                                              ReplayFigures& figures) {
  trace::Scope whole("replay.ingest_layers", input.updates.size());
  const auto& updates = input.updates;
  const std::size_t n = updates.size();

  // wire: the byte stream a session would carry, then decode it.
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;
  for (const auto& update : updates) {
    offsets.push_back(bytes.size());
    const auto encoded = wire::encode(wire::Message{to_message(update)});
    bytes.insert(bytes.end(), encoded.begin(), encoded.end());
  }
  offsets.push_back(bytes.size());
  std::size_t decoded = 0;
  const double decode_ns = timed_batches("wire.decode", n, [&](std::size_t i) {
    std::size_t consumed = 0;
    const auto message = wire::decode(
        std::span<const std::uint8_t>(bytes.data() + offsets[i],
                                      offsets[i + 1] - offsets[i]),
        consumed);
    if (message.has_value() && consumed == offsets[i + 1] - offsets[i]) {
      ++decoded;
    }
  });
  if (decoded != n) out.fail("replay: wire decode lost messages");

  // filters: the installed table's decision per update.
  std::vector<char> accepted(n, 1);
  const filt::FilterTable empty;
  const filt::FilterTable& table = input.filters ? *input.filters : empty;
  const double accept_ns =
      timed_batches("filters.accept", n, [&](std::size_t i) {
        accepted[i] = table.accept(updates[i]) ? 1 : 0;
      });
  std::size_t discarded = 0;
  for (const char keep : accepted) discarded += keep ? 0 : 1;

  // bgp: one RIB per VP, as each session keeps one.
  std::unordered_map<bgp::VpId, bgp::Rib> ribs;
  for (const auto& update : updates) ribs[update.vp];
  const double rib_ns = timed_batches("bgp.rib_apply", n, [&](std::size_t i) {
    ribs[updates[i].vp].apply(updates[i]);
  });

  // archive: a compressed SegmentWriter on a one-worker I/O pool, sealing
  // at each window boundary (timed per segment, I/O included).
  std::vector<bgp::Update> archived;
  for (std::size_t i = 0; i < n; ++i) {
    if (accepted[i]) archived.push_back(updates[i]);
  }
  std::filesystem::create_directories(input.archive_dir);
  par::ThreadPool io_pool(1);
  archive::SegmentWriterConfig writer_config;
  writer_config.directory = input.archive_dir;
  writer_config.rotate_secs = input.rotate_secs;
  writer_config.compress = true;
  writer_config.pool = &io_pool;
  metrics::Registry registry;
  writer_config.registry = &registry;
  archive::SegmentWriter writer(writer_config);
  if (!writer.open()) out.fail("replay: cannot open the archive directory");
  std::int64_t store_total = 0;
  std::vector<double> seal_ms;
  bgp::Timestamp window_end = 0;
  bool window_open = false;
  const auto seal = [&] {
    trace::Scope span("archive.seal");
    const std::int64_t start = now_ns();
    writer.rotate_now();
    writer.wait_idle();
    seal_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  };
  for (std::size_t begin = 0; begin < archived.size();) {
    // Seal before a record that opens the next window, as the writer
    // itself would, so the seal is timed on its own.
    if (window_open && archived[begin].time >= window_end) {
      seal();
      window_open = false;
    }
    if (!window_open) {
      window_end = (archived[begin].time / input.rotate_secs + 1) *
                   input.rotate_secs;
      window_open = true;
    }
    std::size_t end = begin;
    while (end < archived.size() && end - begin < kReplayBatch &&
           archived[end].time < window_end) {
      ++end;
    }
    trace::Scope span("archive.store", end - begin);
    const std::int64_t start = now_ns();
    for (std::size_t i = begin; i < end; ++i) writer.store(archived[i]);
    store_total += now_ns() - start;
    begin = end;
  }
  if (window_open) seal();
  writer.close();
  std::uint64_t payload = 0, records = 0;
  for (const auto& meta : writer.manifest()) {
    payload += meta.payload_bytes;
    records += meta.records();
  }
  if (records != archived.size()) out.fail("replay: archive lost records");

  // The bloom builder the writer runs per record, on its own.
  const double bloom_ns = [&] {
    archive::PrefixBloom bloom;
    return timed_batches("archive.bloom_observe", archived.size(),
                         [&](std::size_t i) { bloom.observe(archived[i].prefix); });
  }();

  // feed: the NDJSON line /v1/stream sends per accepted update.
  std::size_t feed_bytes = 0;
  const double feed_ns =
      timed_batches("feed.encode_live", archived.size(), [&](std::size_t i) {
        feed_bytes += feed::encode_live_update(archived[i]).size();
      });
  if (!archived.empty() && feed_bytes == 0) out.fail("replay: empty feed");

  out.metric("wire.decode_ns", decode_ns, "ns");
  out.metric("filters.accept_ns", accept_ns, "ns");
  out.metric("bgp.rib_apply_ns", rib_ns, "ns");
  figures.store_ns = archived.empty()
                         ? 0
                         : static_cast<double>(store_total) /
                               static_cast<double>(archived.size());
  out.metric("archive.store_replay_ns", figures.store_ns, "ns");
  out.metric("archive.bloom_observe_ns", bloom_ns, "ns");
  out.metric("archive.seal_ms", median(seal_ms), "ms");
  out.metric("archive.segments_sealed", static_cast<double>(seal_ms.size()),
             "count");
  out.metric("feed.encode_live_ns", feed_ns, "ns");
  figures.discard_ratio =
      n == 0 ? 0 : static_cast<double>(discarded) / static_cast<double>(n);
  figures.bytes_per_record =
      records == 0 ? 0
                   : static_cast<double>(payload) / static_cast<double>(records);
  return archived;
}

// --- the query path --------------------------------------------------------------

const char* to_string(QueryClass kind) {
  switch (kind) {
    case QueryClass::kPrefix: return "prefix";
    case QueryClass::kVp: return "vp";
    case QueryClass::kRange: return "range";
    case QueryClass::kScanAll: return "scan_all";
  }
  return "?";
}

std::vector<QuerySpec> make_query_mix(const ArchiveCopy& copy,
                                      std::size_t count, std::mt19937_64& rng) {
  std::vector<QuerySpec> specs;
  if (copy.records.empty()) return specs;
  bgp::Timestamp first = copy.records.front().time;
  bgp::Timestamp last = first;
  std::set<bgp::VpId> vp_set;
  for (const auto& record : copy.records) {
    first = std::min(first, record.time);
    last = std::max(last, record.time);
    vp_set.insert(record.vp);
  }
  const std::vector<bgp::VpId> vps(vp_set.begin(), vp_set.end());
  const bgp::Timestamp span = last - first + 1;
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng() % size);
  };
  std::vector<QueryClass> kinds;
  for (std::size_t i = 0; i < count; ++i) {
    kinds.push_back(static_cast<QueryClass>(i % 4));
  }
  std::shuffle(kinds.begin(), kinds.end(), rng);
  for (const QueryClass kind : kinds) {
    QuerySpec spec;
    spec.kind = kind;
    switch (kind) {
      case QueryClass::kPrefix: {
        // A record's prefix, half the time widened to its covering /16:
        // the equal-or-more-specific slice an operator asks for.
        net::Prefix prefix = copy.records[pick(copy.records.size())].prefix;
        if (rng() % 2 == 0 && prefix.length() > 16) {
          prefix = net::Prefix(prefix.address(), 16);
        }
        spec.options.prefix = prefix;
        break;
      }
      case QueryClass::kVp: {
        spec.options.vp = vps[pick(vps.size())];
        spec.options.start = first + static_cast<bgp::Timestamp>(
                                         pick(static_cast<std::size_t>(
                                             span - span / 4 + 1)));
        spec.options.end = spec.options.start + span / 4;
        break;
      }
      case QueryClass::kRange: {
        spec.options.start = first + static_cast<bgp::Timestamp>(
                                         pick(static_cast<std::size_t>(
                                             span - span / 10 + 1)));
        spec.options.end = spec.options.start + span / 10;
        break;
      }
      case QueryClass::kScanAll:
        break;
    }
    specs.push_back(spec);
  }
  return specs;
}

std::vector<std::uint32_t> brute_force(const ArchiveCopy& copy,
                                       const QuerySpec& spec) {
  std::vector<std::uint32_t> out;
  const auto& options = spec.options;
  for (std::uint32_t i = 0; i < copy.records.size(); ++i) {
    const bgp::Update& record = copy.records[i];
    if (record.time < options.start || record.time >= options.end) continue;
    if (options.vp.has_value() && record.vp != *options.vp) continue;
    if (options.prefix.has_value()) {
      const net::Prefix& query = *options.prefix;
      const net::Prefix& prefix = record.prefix;
      // Equal or more specific: same family, at least as long, and the
      // record's network address inside the query prefix.
      if (prefix.family() != query.family() ||
          prefix.length() < query.length() ||
          !query.contains(prefix.address())) {
        continue;
      }
    }
    out.push_back(i);
  }
  return out;
}

std::string encode_records(const ArchiveCopy& copy,
                           const std::vector<std::uint32_t>& positions) {
  mrt::Writer writer;
  for (const auto i : positions) writer.write_update(copy.records[i]);
  const auto& buffer = writer.buffer();
  return std::string(buffer.begin(), buffer.end());
}

QueryTiming run_query(archive::QueryEngine& engine, const QuerySpec& spec,
                      std::string& bytes) {
  QueryTiming timing;
  trace::Scope whole("archive.query");
  const std::int64_t start = now_ns();
  std::shared_ptr<archive::EngineCursor> cursor;
  {
    trace::Scope span("archive.plan");
    cursor = engine.query(spec.options);
  }
  const std::int64_t planned = now_ns();
  timing.plan_us = static_cast<double>(planned - start) / 1e3;
  bool first = true;
  for (;;) {
    trace::Scope span("archive.next_chunk");
    const bool more = cursor->next_chunk(bytes);
    if (first) {
      timing.first_chunk_ms = static_cast<double>(now_ns() - planned) / 1e6;
      first = false;
    }
    if (!more) break;
  }
  const std::int64_t done = now_ns();
  timing.scan_ms = static_cast<double>(done - planned) / 1e6;
  timing.total_ms = static_cast<double>(done - start) / 1e6;
  timing.records = cursor->records_streamed();
  return timing;
}

bool same_records(const std::string& bytes, const ArchiveCopy& copy,
                  const std::vector<std::uint32_t>& expected) {
  mrt::Reader reader(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  std::size_t index = 0;
  while (auto record = reader.next()) {
    if (index >= expected.size() ||
        !(record->update == copy.records[expected[index]])) {
      return false;
    }
    ++index;
  }
  return reader.ok() && index == expected.size();
}

void report_query_layers(const std::vector<QuerySpec>& specs,
                         const std::vector<QueryTiming>& timings,
                         std::uint64_t pruned, std::uint64_t scanned,
                         std::uint64_t hits, std::uint64_t misses,
                         Result& out) {
  std::vector<double> plan, first, scan;
  std::map<QueryClass, std::vector<double>> by_class;
  for (std::size_t i = 0; i < timings.size(); ++i) {
    plan.push_back(timings[i].plan_us);
    first.push_back(timings[i].first_chunk_ms);
    scan.push_back(timings[i].scan_ms);
    by_class[specs[i].kind].push_back(timings[i].total_ms);
  }
  out.metric("archive.plan_us", median(plan), "us");
  out.metric("archive.first_chunk_ms", median(first), "ms");
  out.metric("archive.scan_ms", median(scan), "ms");
  out.metric("archive.prune_ratio",
             pruned + scanned == 0
                 ? 0
                 : static_cast<double>(pruned) /
                       static_cast<double>(pruned + scanned),
             "ratio");
  out.metric("archive.cache_hit_ratio",
             hits + misses == 0 ? 0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses),
             "ratio");
  out.metric("archive.prefix_query_p50_ms",
             median(by_class[QueryClass::kPrefix]), "ms");
  out.metric("archive.vp_query_p50_ms", median(by_class[QueryClass::kVp]),
             "ms");
  out.metric("archive.range_query_p50_ms",
             median(by_class[QueryClass::kRange]), "ms");
  out.metric("archive.scan_all_p50_ms",
             median(by_class[QueryClass::kScanAll]), "ms");
}

void probe_query_layers(const std::string& directory, const ArchiveCopy& copy,
                        std::size_t queries, std::uint64_t seed,
                        Result& out) {
  trace::Scope whole("probe.query_layers", queries);
  std::uint64_t raw_bytes = 0;
  par::ThreadPool pool(2);
  metrics::Registry registry;
  archive::SegmentCacheConfig cache_config;
  cache_config.registry = &registry;
  {
    archive::QueryEngineConfig config;
    config.directory = directory;
    config.registry = &registry;
    archive::QueryEngine probe(config);
    if (probe.open()) {
      for (const auto& meta : *probe.snapshot()) raw_bytes += meta.raw_bytes;
    }
  }
  // A budget of a third of the archive: some windows stay hot, some not.
  cache_config.max_bytes = std::max<std::uint64_t>(1, raw_bytes / 3);
  archive::SegmentCache cache(cache_config);
  archive::SegmentPins pins;
  archive::QueryEngineConfig config;
  config.directory = directory;
  config.pool = &pool;
  config.cache = &cache;
  config.pins = &pins;
  config.registry = &registry;
  archive::QueryEngine engine(config);
  if (!engine.open()) {
    out.fail("query probe: cannot open the archive");
    return;
  }
  std::mt19937_64 rng(seed);
  const auto specs = make_query_mix(copy, queries, rng);
  std::vector<QueryTiming> timings;
  for (const auto& spec : specs) {
    const auto expected = brute_force(copy, spec);
    const std::string expected_bytes = encode_records(copy, expected);
    std::string first, second;
    timings.push_back(run_query(engine, spec, first));
    run_query(engine, spec, second);  // the same query again, hotter
    if (!same_records(first, copy, expected) || first != expected_bytes ||
        second != first || timings.back().records != expected.size()) {
      out.fail(std::string("query probe: a ") + to_string(spec.kind) +
               " query differs from the brute force");
    }
  }
  report_query_layers(specs, timings, engine.segments_pruned(),
                      engine.segments_scanned(), cache.hits(), cache.misses(),
                      out);
}

void report_idle_collector_layers(Result& out) {
  // The archive tee's lock with no second shard to wait for.
  collect::LockedSink sink(nullptr);
  constexpr int kLocks = 1 << 16;
  double lock_wait_ns = 0;
  {
    trace::Scope span("collector.sink_lock", kLocks);
    const std::int64_t start = now_ns();
    for (int i = 0; i < kLocks; ++i) sink.with_lock([] {});
    lock_wait_ns = static_cast<double>(now_ns() - start) / kLocks;
  }
  metrics::Registry registry;
  collect::ShardedPlatformConfig config;
  config.shards = 1;
  config.platform.registry = &registry;
  collect::ShardedPlatform platform(config);
  std::uint64_t published = 0;
  platform.set_stream_publisher([&published](const bgp::Update&) {
    ++published;
  });
  std::vector<double> tick_ms;
  for (int i = 0; i < 64; ++i) {
    trace::Scope span("collector.control_tick");
    const std::int64_t start = now_ns();
    platform.control_tick(1000 + i);
    tick_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }
  out.metric("collector.sink_lock_wait_ns", lock_wait_ns, "ns");
  out.metric("collector.control_tick_ms", median(tick_ms), "ms");
  // Placeholders: with no sessions there is nothing to spread or pause.
  out.metric("net.shard_updates_spread", 1.0, "ratio");
  out.metric("net.read_pauses", 0, "count");
}

}  // namespace gb
