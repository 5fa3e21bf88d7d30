// The ingest workload: UPDATEs from socket bytes to the archive. Loopback
// BGP sessions feed a collect::ShardedPlatform wired as gill-collectord
// wires it (default --tick-ms and --queue-watermark, a compressed
// SegmentWriter on a one-worker I/O pool behind LockedSink, a stream
// publisher drained at the control-tick cadence). A training window goes
// through the sessions first and one merged refresh installs real filters;
// then phase 1 sends replayed churn open-loop at a fixed rate (latency from
// each update's due time to its archive append) and phase 2 writes a
// full-table transfer plus churn as fast as the sockets take it
// (throughput).
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_set>

#include "archive/archive_writer.hpp"
#include "archive/segment_cache.hpp"
#include "bench.hpp"
#include "collector/sharded.hpp"
#include "daemon/daemon.hpp"
#include "mrt/mrt.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "parallel/thread_pool.hpp"
#include "trace.hpp"
#include "wire/messages.hpp"

namespace gb {
namespace {

constexpr std::uint64_t kTickMs = 200;                  // --tick-ms default
constexpr std::size_t kQueueWatermark = 1024 * 1024;    // --queue-watermark
constexpr bgp::Timestamp kRotateSecs = 900;             // --rotate-secs
constexpr bgp::Timestamp kClockBase = 1'700'000'100;    // logical start
constexpr bgp::Timestamp kStepSecs = 60;  // logical seconds per training step
constexpr std::size_t kTrainingSteps = 20;
constexpr std::size_t kTableSize = 10000;       // distinct prefixes / session
constexpr std::size_t kChurnPerSession = 15000;  // phase-2 churn / session
constexpr double kPacedRate = 20000;            // phase-1 updates/s, all peers
constexpr double kPacedShare = 0.5;             // of --seconds
constexpr std::size_t kWriteChunk = 16 * 1024;
constexpr bgp::AsNumber kFirstPeerAs = 65010;
constexpr std::uint64_t kWorldSeed = 93;
constexpr std::size_t kPrefixesPerAs = 8;
constexpr double kLinkFailuresPerHour = 300;
constexpr bgp::Timestamp kChurnWindowSecs = 3600;

using Bytes = std::vector<std::uint8_t>;

Bytes encode_update(const bgp::Update& update) {
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
  return wire::encode(wire::Message{message});
}

void append(Bytes& to, const Bytes& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Same content as the collector stores (time is stamped by its clock).
bool same_content(const bgp::Update& a, const bgp::Update& b) {
  return a.vp == b.vp && a.prefix == b.prefix && a.path == b.path &&
         a.communities == b.communities && a.withdrawal == b.withdrawal;
}

/// The inner archive sink: under LockedSink's lock, around the writer.
/// Records the append time of each VP's records while phase 1 runs, and in
/// the traced run the time spent in SegmentWriter::store.
class ArchiveProbe : public mrt::Sink {
 public:
  ArchiveProbe(mrt::Sink* inner, bool timed) : inner_(inner), timed_(timed) {}

  void store(const bgp::Update& update) override {
    const std::int64_t start = timed_ ? now_ns() : 0;
    inner_->store(update);
    const std::int64_t end = (timed_ || recording_) ? now_ns() : 0;
    if (timed_) {
      store_ns_ += end - start;
      ++stores_;
    }
    if (recording_) {
      if (update.vp >= appended_ns_.size()) appended_ns_.resize(update.vp + 1);
      appended_ns_[update.vp].push_back(end);
    }
  }
  void store_rib_entry(const bgp::Update& entry) override {
    inner_->store_rib_entry(entry);
  }

  // Called under the LockedSink's lock (with_lock).
  void set_recording(bool on) { recording_ = on; }
  const std::vector<std::vector<std::int64_t>>& appended_ns() const {
    return appended_ns_;
  }
  std::int64_t store_ns() const { return store_ns_; }
  std::uint64_t stores() const { return stores_; }

 private:
  mrt::Sink* inner_;
  bool timed_;
  bool recording_ = false;
  std::vector<std::vector<std::int64_t>> appended_ns_;
  std::int64_t store_ns_ = 0;
  std::uint64_t stores_ = 0;
};

/// The outer archive sink (traced run): the time each shard thread spends
/// in LockedSink::store, lock wait included.
class LockProbe : public mrt::Sink {
 public:
  explicit LockProbe(mrt::Sink* inner) : inner_(inner) {}
  void store(const bgp::Update& update) override {
    const std::int64_t start = now_ns();
    inner_->store(update);
    total_ns_.fetch_add(now_ns() - start, std::memory_order_relaxed);
  }
  void store_rib_entry(const bgp::Update& entry) override {
    inner_->store_rib_entry(entry);
  }
  std::int64_t total_ns() const { return total_ns_.load(); }

 private:
  mrt::Sink* inner_;
  std::atomic<std::int64_t> total_ns_{0};
};

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// One message the paced generator owes a session at a due time.
struct Paced {
  std::size_t session = 0;
  std::int64_t due_ns = 0;
  const Bytes* bytes = nullptr;
};

}  // namespace

void workload_ingest(const Options& options, Result& out) {
  const unsigned threads = hardware_threads();
  const std::size_t sessions = std::clamp<std::size_t>(threads, 2, 8);
  // Shards leave one core to the generator (this thread) and one to the
  // archive's I/O worker.
  const std::size_t shards = threads > 3 ? threads - 2 : 1;

  // --- inputs ----------------------------------------------------------------
  World world = make_small_world(sessions, kPrefixesPerAs);
  const bgp::UpdateStream training_sim = churn_window(
      world, 0, static_cast<bgp::Timestamp>(kTrainingSteps) * kStepSecs,
      kWorldSeed, kLinkFailuresPerHour);
  const bgp::UpdateStream paced_sim = churn_window(
      world, 3600, kChurnWindowSecs, kWorldSeed + 1, kLinkFailuresPerHour);
  const bgp::UpdateStream bulk_sim = churn_window(
      world, 3600 + kChurnWindowSecs, kChurnWindowSecs, kWorldSeed + 2,
      kLinkFailuresPerHour);
  std::fprintf(stderr, "[ingest] churn: training %zu, paced %zu, bulk %zu at %.2f s\n",
               training_sim.size(), paced_sim.size(), bulk_sim.size(),
               static_cast<double>(now_ns() - options.start_ns) / 1e9);
  const auto rib = world.internet->rib_dump(0);
  std::mt19937_64 rng(options.seed);

  // Per session (sim VP index): the full table of distinct prefixes, each
  // with a path this VP really uses, then its replayed churn.
  std::vector<std::vector<const bgp::Update*>> rib_by_vp(sessions);
  for (const auto& entry : rib) {
    if (entry.vp < sessions && !entry.withdrawal) {
      rib_by_vp[entry.vp].push_back(&entry);
    }
  }
  std::vector<std::vector<const bgp::Update*>> bulk_by_vp(sessions);
  for (const auto& update : bulk_sim) bulk_by_vp[update.vp].push_back(&update);
  std::vector<std::vector<bgp::Update>> bulk(sessions);  // vp = sim index
  {
    std::unordered_set<std::uint32_t> used;
    for (std::size_t s = 0; s < sessions; ++s) {
      if (rib_by_vp[s].empty() || bulk_by_vp[s].empty()) {
        out.fail("a VP of the ingest world sees no routes");
        return;
      }
      for (std::size_t k = 0; k < kTableSize; ++k) {
        std::uint32_t network = 0;
        do {
          network = static_cast<std::uint32_t>(0x400000 + rng() % 0x400000);
        } while (!used.insert(network).second);
        bgp::Update entry = *rib_by_vp[s][rng() % rib_by_vp[s].size()];
        entry.prefix = net::Prefix(net::IpAddress::v4(network << 8), 24);
        entry.communities.clear();
        bulk[s].push_back(std::move(entry));
      }
      const std::size_t offset = rng() % bulk_by_vp[s].size();
      for (std::size_t k = 0; k < kChurnPerSession; ++k) {
        bulk[s].push_back(
            *bulk_by_vp[s][(offset + k) % bulk_by_vp[s].size()]);
      }
    }
  }
  // Phase 1: whole rounds of the merged churn order, cycled from a seeded
  // offset.
  const std::size_t paced_count =
      std::max<std::size_t>(
          1, static_cast<std::size_t>(kPacedRate * options.seconds *
                                      kPacedShare) /
                 sessions) *
      sessions;
  std::vector<bgp::Update> paced;
  {
    const std::size_t offset = rng() % paced_sim.size();
    for (std::size_t k = 0; k < paced_count; ++k) {
      paced.push_back(paced_sim.updates()[(offset + k) % paced_sim.size()]);
    }
  }
  // Training: by logical step.
  std::vector<std::vector<std::vector<bgp::Update>>> training(
      kTrainingSteps, std::vector<std::vector<bgp::Update>>(sessions));
  for (const auto& update : training_sim) {
    const auto step = std::min<std::size_t>(
        kTrainingSteps - 1, static_cast<std::size_t>(update.time / kStepSecs));
    training[step][update.vp].push_back(update);
  }

  // Wire bytes, encoded before anything is timed.
  const Bytes keepalive = wire::encode(wire::Message{wire::KeepaliveMessage{}});
  std::vector<std::vector<Bytes>> training_bytes(
      kTrainingSteps, std::vector<Bytes>(sessions));
  for (std::size_t step = 0; step < kTrainingSteps; ++step) {
    for (std::size_t s = 0; s < sessions; ++s) {
      // A KEEPALIVE each step keeps every hold timer fresh.
      append(training_bytes[step][s], keepalive);
      for (const auto& update : training[step][s]) {
        append(training_bytes[step][s], encode_update(update));
      }
    }
  }
  std::vector<Bytes> paced_bytes;
  paced_bytes.reserve(paced.size());
  for (const auto& update : paced) paced_bytes.push_back(encode_update(update));
  std::vector<Bytes> bulk_bytes(sessions);
  std::uint64_t bulk_count = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    for (const auto& update : bulk[s]) {
      append(bulk_bytes[s], encode_update(update));
    }
    bulk_count += bulk[s].size();
  }

  // --- the collector, wired as gill-collectord wires it ----------------------
  metrics::Registry registry;
  std::atomic<bgp::Timestamp> clock{kClockBase};
  collect::ShardedPlatformConfig config;
  config.shards = shards;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.analysis_threads = 0;  // the one refresh runs during set-up
  config.ingest_limits.queue_high_watermark = kQueueWatermark;
  config.clock = [&clock] { return clock.load(std::memory_order_relaxed); };
  collect::ShardedPlatform platform(config);

  const std::string directory = options.workdir + "/archive";
  std::filesystem::create_directories(directory);
  par::ThreadPool io_pool(1, &registry);
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
  ArchiveProbe archive_probe(&writer, options.trace);
  collect::LockedSink locked(&archive_probe);
  LockProbe lock_probe(&locked);
  platform.set_archive(options.trace ? static_cast<mrt::Sink*>(&lock_probe)
                                     : &locked);

  // Stream subscribers: every sent update once, in per-VP order. Indexed by
  // the platform's VP id once the sessions are up.
  // Per platform VP id, every update sent, in order (pointers into the
  // per-session inputs, whose vp is rewritten to the platform's id).
  std::vector<std::vector<const bgp::Update*>> sent;
  std::vector<std::size_t> streamed;
  std::uint64_t stream_errors = 0;
  platform.set_stream_publisher([&](const bgp::Update& update) {
    if (update.vp >= sent.size() || streamed[update.vp] >= sent[update.vp].size() ||
        !same_content(update, *sent[update.vp][streamed[update.vp]])) {
      ++stream_errors;
      return;
    }
    ++streamed[update.vp];
  });

  if (!platform.listen("127.0.0.1", 0)) {
    out.fail("cannot listen on loopback");
    return;
  }
  platform.start(kTickMs);

  net::EventLoop client_loop;
  std::vector<std::unique_ptr<net::TcpTransport>> clients;
  std::vector<std::unique_ptr<daemon::FakePeer>> peers;
  for (std::size_t s = 0; s < sessions; ++s) {
    auto client = std::make_unique<net::TcpTransport>(
        client_loop, net::Role::kPeerSide, &registry);
    if (!client->dial("127.0.0.1", platform.port())) {
      out.fail("cannot dial the collector");
      return;
    }
    peers.push_back(std::make_unique<daemon::FakePeer>(
        static_cast<bgp::AsNumber>(kFirstPeerAs + s), *client));
    clients.push_back(std::move(client));
  }
  const auto established = [&] {
    for (std::size_t s = 0; s < sessions; ++s) {
      if (!peers[s]->established() || clients[s]->backlog_bytes() != 0) {
        return false;
      }
    }
    return platform.peer_count() == sessions;
  };
  for (int i = 0; i < 20000 && !established(); ++i) {
    client_loop.run_once(1);
    for (auto& peer : peers) peer->poll();
    for (auto& client : clients) client->sync();
  }
  if (!established()) {
    out.fail("sessions never established");
    return;
  }
  std::vector<int> fds;
  for (const auto& client : clients) fds.push_back(client->fd());

  // Platform VP id of each session (peer AS -> VP).
  std::vector<bgp::VpId> vp_of(sessions);
  bgp::VpId max_vp = 0;
  for (const auto& peer : platform.health_snapshot().peers) {
    const std::size_t s = peer.as - kFirstPeerAs;
    if (s < sessions) vp_of[s] = peer.vp;
    max_vp = std::max(max_vp, peer.vp);
  }
  sent.assign(max_vp + 1, {});
  streamed.assign(max_vp + 1, 0);
  // From here on every input update carries its session's platform VP id.
  std::vector<std::size_t> paced_session(paced.size());
  for (std::size_t i = 0; i < paced.size(); ++i) {
    paced_session[i] = paced[i].vp;
    paced[i].vp = vp_of[paced[i].vp];
  }
  for (std::size_t s = 0; s < sessions; ++s) {
    for (auto& update : bulk[s]) update.vp = vp_of[s];
    for (auto& step : training) {
      for (auto& update : step[s]) update.vp = vp_of[s];
    }
  }
  for (std::size_t step = 0; step < kTrainingSteps; ++step) {
    for (std::size_t s = 0; s < sessions; ++s) {
      for (const auto& update : training[step][s]) {
        sent[vp_of[s]].push_back(&update);
      }
    }
  }
  const std::vector<std::size_t> training_sent = [&] {
    std::vector<std::size_t> counts;
    for (const auto& list : sent) counts.push_back(list.size());
    return counts;
  }();

  const auto counter = [&registry](const char* name) {
    return registry.counter_total(name);
  };
  const auto accounted = [&] {
    return counter("gill_daemon_updates_stored_total") +
           counter("gill_daemon_updates_filtered_total");
  };
  std::vector<double> tick_ms;
  std::int64_t next_tick = now_ns();
  // While the timed phases run, the logical clock follows the wall clock
  // from (wall_anchor_ns, clock_anchor); 0 = the clock is set by hand.
  std::int64_t wall_anchor_ns = 0;
  bgp::Timestamp clock_anchor = 0;
  const auto follow_wall_clock = [&] {
    if (wall_anchor_ns == 0) return;
    const std::int64_t elapsed = std::max<std::int64_t>(0, now_ns() - wall_anchor_ns);
    clock.store(clock_anchor +
                static_cast<bgp::Timestamp>(elapsed / 1'000'000'000));
  };
  const auto control_tick = [&] {
    trace::Scope span("collector.control_tick");
    const std::int64_t start = now_ns();
    follow_wall_clock();
    const bgp::Timestamp now = clock.load();
    platform.control_tick(now);
    locked.with_lock([&] { writer.tick(now); });
    tick_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
    next_tick = start + static_cast<std::int64_t>(kTickMs) * 1'000'000;
  };
  // Phase 2 progress: when the collector first accounted for an update of
  // the round, and how many it had by then (sampled on every generator
  // pass, at most about 1 ms apart).
  bool round_open = false;
  std::uint64_t round_base = 0, round_first_done = 0;
  std::int64_t round_first_ns = 0;
  const auto tick_if_due = [&] {
    if (now_ns() >= next_tick) control_tick();
    if (!round_open || round_first_ns != 0) return;
    const std::uint64_t done = accounted() - round_base;
    if (done > 0) {
      round_first_ns = now_ns();
      round_first_done = done;
    }
  };
  /// Waits (control ticks running) until `target` updates are accounted
  /// for; false on a 60 s timeout.
  const auto wait_accounted = [&](std::uint64_t target) {
    const std::int64_t give_up = now_ns() + 60'000'000'000LL;
    while (accounted() < target) {
      if (now_ns() > give_up) return false;
      tick_if_due();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    tick_if_due();
    return true;
  };
  /// Writes whole buffers to the sockets, round-robin, control ticks due
  /// in between. False on a socket error.
  const auto write_all = [&](const std::vector<const Bytes*>& buffers) {
    std::vector<std::size_t> offsets(buffers.size(), 0);
    for (;;) {
      bool pending = false, progressed = false;
      std::vector<pollfd> full;
      for (std::size_t s = 0; s < buffers.size(); ++s) {
        const std::size_t left = buffers[s]->size() - offsets[s];
        if (left == 0) continue;
        pending = true;
        const ssize_t n = ::write(fds[s], buffers[s]->data() + offsets[s],
                                  std::min(left, kWriteChunk));
        if (n > 0) {
          offsets[s] += static_cast<std::size_t>(n);
          progressed = true;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          full.push_back({fds[s], POLLOUT, 0});
        } else if (!(n < 0 && errno == EINTR)) {
          return false;
        }
      }
      tick_if_due();
      if (!pending) return true;
      if (!progressed && !full.empty()) {
        if (::poll(full.data(), full.size(), 1) < 0 && errno != EINTR) {
          return false;
        }
      }
    }
  };

  // --- training window, then the one refresh that installs real filters ----
  // Each step waits until every message of the step, KEEPALIVEs included,
  // was handled at the step's time, so no hold timer sees a gap.
  std::uint64_t sent_total = 0;
  std::uint64_t messages = counter("gill_daemon_messages_received_total");
  for (std::size_t step = 0; step < kTrainingSteps; ++step) {
    clock.store(kClockBase + static_cast<bgp::Timestamp>(step) * kStepSecs);
    std::vector<const Bytes*> buffers;
    for (std::size_t s = 0; s < sessions; ++s) {
      buffers.push_back(&training_bytes[step][s]);
      sent_total += training[step][s].size();
      messages += 1 + training[step][s].size();
    }
    bool arrived = write_all(buffers) && wait_accounted(sent_total);
    const std::int64_t give_up = now_ns() + 10'000'000'000LL;
    while (arrived &&
           counter("gill_daemon_messages_received_total") < messages) {
      arrived = now_ns() < give_up;
      tick_if_due();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (!arrived) {
      out.fail("training window did not arrive");
      return;
    }
  }
  clock.store(kClockBase + static_cast<bgp::Timestamp>(kTrainingSteps) *
                               kStepSecs);
  control_tick();  // drain the stream outboxes before the harvest
  platform.refresh_filters(clock.load());
  platform.wait_for_refresh();
  const filt::FilterTable installed = platform.filters();
  const std::vector<bgp::VpId> anchors = platform.anchors();
  if (anchors.empty()) out.fail("the training refresh selected no anchor");
  if (installed.drop_rule_count() == 0) {
    out.fail("the training refresh generated no drop rule");
  }

  // Expected accepted records per VP, and phase-1 due times per VP.
  std::vector<std::vector<const bgp::Update*>> expected = sent;
  std::vector<std::vector<std::int64_t>> due_offsets(sent.size());
  std::vector<Paced> schedule;
  schedule.reserve(paced.size());
  const double interval_ns = 1e9 / kPacedRate;
  for (std::size_t i = 0; i < paced.size(); ++i) {
    const bgp::Update& update = paced[i];
    const auto due = static_cast<std::int64_t>(static_cast<double>(i) *
                                               interval_ns);
    schedule.push_back(Paced{paced_session[i], due, &paced_bytes[i]});
    sent[update.vp].push_back(&update);
    if (installed.accept(update)) {
      expected[update.vp].push_back(&update);
      due_offsets[update.vp].push_back(due);
    }
  }
  std::uint64_t paced_accepted = 0;
  for (const auto& list : due_offsets) paced_accepted += list.size();
  // Phase 2: whole rounds, about one per two seconds of the run.
  const std::size_t bulk_rounds =
      std::max<std::size_t>(3, static_cast<std::size_t>(options.seconds / 2));
  for (std::size_t round = 0; round < bulk_rounds; ++round) {
    for (std::size_t s = 0; s < sessions; ++s) {
      for (const auto& update : bulk[s]) {
        sent[update.vp].push_back(&update);
        if (installed.accept(update)) expected[update.vp].push_back(&update);
      }
    }
  }
  const double setup_s =
      static_cast<double>(now_ns() - options.start_ns) / 1e9;

  const std::uint64_t received_before =
      counter("gill_daemon_updates_received_total");
  const std::uint64_t filtered_before =
      counter("gill_daemon_updates_filtered_total");
  const std::uint64_t pauses_before =
      counter("gill_overload_read_pauses_total");

  // --- phase 1: open loop at a fixed rate ------------------------------------
  std::vector<double> lateness_ms;
  lateness_ms.reserve(schedule.size());
  // The clock runs on from the last training step's time: no session may
  // see more than a hold time pass without a message.
  clock_anchor = clock.load();
  locked.with_lock([&] { archive_probe.set_recording(true); });
  const std::int64_t phase1_start = now_ns() + 1'000'000;
  wall_anchor_ns = phase1_start;
  {
    trace::Scope span("ingest.phase1_paced", schedule.size());
    std::size_t next = 0;
    std::vector<Bytes> pending(sessions);
    while (next < schedule.size()) {
      const std::int64_t now = now_ns();
      follow_wall_clock();
      while (next < schedule.size() &&
             phase1_start + schedule[next].due_ns <= now) {
        append(pending[schedule[next].session], *schedule[next].bytes);
        lateness_ms.push_back(
            static_cast<double>(now - phase1_start - schedule[next].due_ns) /
            1e6);
        ++next;
      }
      for (std::size_t s = 0; s < sessions; ++s) {
        std::size_t done = 0;
        while (done < pending[s].size()) {
          const ssize_t n = ::write(fds[s], pending[s].data() + done,
                                    pending[s].size() - done);
          if (n > 0) {
            done += static_cast<std::size_t>(n);
          } else if (n < 0 && errno == EINTR) {
            continue;
          } else {
            break;  // socket full: the rest waits for the next pass
          }
        }
        pending[s].erase(pending[s].begin(),
                         pending[s].begin() + static_cast<std::ptrdiff_t>(done));
      }
      tick_if_due();
      if (next < schedule.size()) {
        const std::int64_t wake =
            std::min(phase1_start + schedule[next].due_ns, next_tick);
        const std::int64_t sleep = wake - now_ns();
        if (sleep > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(sleep));
        }
      }
    }
    std::vector<const Bytes*> rest;
    for (const auto& buffer : pending) rest.push_back(&buffer);
    sent_total += schedule.size();
    if (!write_all(rest) || !wait_accounted(sent_total)) {
      out.fail("phase 1 updates did not arrive");
    }
  }
  locked.with_lock([&] { archive_probe.set_recording(false); });
  control_tick();
  platform.take_merged_mirror();  // the harvest a refresh would make

  // Latency: the k-th phase-1 record a VP appended is its k-th accepted
  // phase-1 update.
  std::vector<double> latency_ms;
  std::uint64_t latency_samples = 0;
  const auto& appended = archive_probe.appended_ns();
  for (std::size_t vp = 0; vp < due_offsets.size(); ++vp) {
    const std::size_t have = vp < appended.size() ? appended[vp].size() : 0;
    latency_samples += have;
    for (std::size_t k = 0; k < std::min(have, due_offsets[vp].size()); ++k) {
      latency_ms.push_back(
          static_cast<double>(appended[vp][k] - phase1_start -
                              due_offsets[vp][k]) /
          1e6);
    }
  }
  if (latency_samples != paced_accepted) {
    out.fail("phase 1: " + std::to_string(latency_samples) +
             " latency samples for " + std::to_string(paced_accepted) +
             " accepted updates");
  }

  // --- phase 2: flow-controlled full table + churn ----------------------------
  std::vector<std::size_t> shard_stored_before;
  if (options.trace) {
    for (std::size_t shard = 0; shard < platform.shard_count(); ++shard) {
      shard_stored_before.push_back(platform.with_shard(
          shard, [](collect::Platform& p) { return p.store().stored(); }));
    }
  }
  // Whole rounds of the same full-table transfer plus churn. Each round
  // opens a fresh archive segment and starts with the mirror harvested, as
  // after a refresh; its rate runs from the collector's first accounted
  // update to its last, so the wait for the first shard tick is left out.
  std::vector<double> round_rates;
  const std::int64_t phase2_start = now_ns();
  double phase2_s = 0;
  for (std::size_t round = 0; round < bulk_rounds; ++round) {
    locked.with_lock([&] { writer.rotate_now(); });
    platform.take_merged_mirror();
    trace::Scope span("ingest.phase2_round", bulk_count);
    std::vector<const Bytes*> buffers;
    for (const auto& buffer : bulk_bytes) buffers.push_back(&buffer);
    round_base = accounted();
    round_first_ns = 0;
    round_open = true;
    sent_total += bulk_count;
    const bool arrived = write_all(buffers) && wait_accounted(sent_total);
    const std::int64_t end = now_ns();
    round_open = false;
    if (!arrived || round_first_ns == 0 || end <= round_first_ns) {
      out.fail("phase 2 updates did not arrive");
      break;
    }
    round_rates.push_back(static_cast<double>(bulk_count - round_first_done) *
                          1e9 / static_cast<double>(end - round_first_ns));
  }
  phase2_s = static_cast<double>(now_ns() - phase2_start) / 1e9;
  control_tick();
  double shard_spread = 1.0;
  if (options.trace) {
    double lowest = 1e300, highest = 0;
    for (std::size_t shard = 0; shard < platform.shard_count(); ++shard) {
      const double stored = static_cast<double>(
          platform.with_shard(shard, [](collect::Platform& p) {
            return p.store().stored();
          }) -
          shard_stored_before[shard]);
      lowest = std::min(lowest, stored);
      highest = std::max(highest, stored);
    }
    shard_spread = lowest > 0 ? highest / lowest : 0;
  }
  const std::uint64_t received =
      counter("gill_daemon_updates_received_total") - received_before;
  const std::uint64_t filtered =
      counter("gill_daemon_updates_filtered_total") - filtered_before;
  const std::uint64_t pauses =
      counter("gill_overload_read_pauses_total") - pauses_before;
  const std::uint64_t accounted_total = accounted();
  platform.stop();
  writer.close();

  // --- checks ------------------------------------------------------------------
  out.attempted = sent_total;
  out.failed = sent_total > accounted_total ? sent_total - accounted_total : 0;
  // Per VP, the sealed archive read back equals the accepted updates sent.
  std::vector<std::size_t> archived(expected.size(), 0);  // records matched
  std::vector<bool> diverged(expected.size(), false);
  std::uint64_t sealed_payload = 0, sealed_records = 0;
  for (const auto& meta : writer.manifest()) {
    const auto payload = archive::SegmentCache::load_segment(directory, meta);
    if (payload == nullptr) {
      out.fail("a sealed segment cannot be read back");
      continue;
    }
    sealed_payload += meta.payload_bytes;
    sealed_records += meta.records();
    mrt::Reader reader(*payload);
    while (auto record = reader.next()) {
      const bgp::VpId vp = record->update.vp;
      if (vp >= archived.size()) {
        out.fail("the archive holds a record of an unknown VP");
      } else if (!diverged[vp] && archived[vp] < expected[vp].size() &&
                 same_content(record->update, *expected[vp][archived[vp]])) {
        ++archived[vp];
      } else {
        diverged[vp] = true;
      }
    }
    if (!reader.ok()) out.fail("a sealed segment does not decode");
  }
  for (std::size_t vp = 0; vp < expected.size(); ++vp) {
    if (diverged[vp] || archived[vp] != expected[vp].size()) {
      out.fail("VP " + std::to_string(vp) + ": the archive matches " +
               std::to_string(archived[vp]) + " of the " +
               std::to_string(expected[vp].size()) +
               " accepted updates sent, then differs");
    }
  }
  for (const auto vp : anchors) {
    if (vp >= sent.size() || diverged[vp] || archived[vp] != sent[vp].size()) {
      out.fail("an update of anchor VP " + std::to_string(vp) +
               " was discarded");
    }
  }
  for (std::size_t vp = 0; vp < sent.size(); ++vp) {
    if (streamed[vp] != sent[vp].size()) {
      out.fail("the stream publisher saw " + std::to_string(streamed[vp]) +
               " of VP " + std::to_string(vp) + "'s " +
               std::to_string(sent[vp].size()) + " updates");
    }
  }
  if (stream_errors != 0) {
    out.fail(std::to_string(stream_errors) +
             " stream updates out of per-VP order or unknown");
  }

  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("work_per_s", median(round_rates), "1/s");
  out.metric("latency_p50_ms", quantile(latency_ms, 0.5), "ms");
  out.metric("latency_tail_ms",
             quantile(latency_ms, tail_quantile(latency_ms.size())), "ms");
  for (std::size_t round = 0; round < round_rates.size(); ++round) {
    out.note("phase2_round" + std::to_string(round) + "_updates_per_s",
             round_rates[round]);
  }
  out.note("phase2_s", phase2_s);
  out.note("phase2_updates", static_cast<double>(bulk_count * bulk_rounds));
  out.note("phase1_updates", static_cast<double>(schedule.size()));
  out.note("latency_samples", static_cast<double>(latency_ms.size()));
  out.note("generator_late_p50_ms", quantile(lateness_ms, 0.5));
  out.note("generator_late_p99_ms", quantile(lateness_ms, 0.99));
  out.note("discard_ratio", received == 0 ? 0
                                          : static_cast<double>(filtered) /
                                                static_cast<double>(received));
  out.note("drop_rules", static_cast<double>(installed.drop_rule_count()));
  out.note("anchors", static_cast<double>(anchors.size()));
  out.note("sessions", static_cast<double>(sessions));
  out.note("shards", static_cast<double>(shards));
  out.note("segments_sealed", static_cast<double>(writer.manifest().size()));

  if (options.trace) {
    out.metrics.clear();
    // Live numbers from this run.
    const double stores = static_cast<double>(archive_probe.stores());
    out.metric("archive.store_ns",
               stores > 0 ? static_cast<double>(archive_probe.store_ns()) / stores
                          : 0,
               "ns");
    out.metric("collector.sink_lock_wait_ns",
               stores > 0 ? static_cast<double>(lock_probe.total_ns() -
                                                archive_probe.store_ns()) /
                                stores
                          : 0,
               "ns");
    out.metric("filters.discard_ratio",
               received == 0 ? 0
                             : static_cast<double>(filtered) /
                                   static_cast<double>(received),
               "ratio");
    out.metric("archive.bytes_per_record",
               sealed_records == 0 ? 0
                                   : static_cast<double>(sealed_payload) /
                                         static_cast<double>(sealed_records),
               "B");
    out.metric("net.shard_updates_spread", shard_spread, "ratio");
    out.metric("net.read_pauses", static_cast<double>(pauses), "count");
    out.metric("collector.control_tick_ms", median(tick_ms), "ms");

    // The training refresh, stage by stage, on the mirror the merge plane
    // harvested (rebuilt from what was sent and the clock of each step).
    std::vector<bgp::Update> mirror;
    for (std::size_t vp = 0; vp < training_sent.size(); ++vp) {
      std::size_t k = 0;
      for (std::size_t step = 0; step < kTrainingSteps; ++step) {
        const std::size_t s = static_cast<std::size_t>(
            std::find(vp_of.begin(), vp_of.end(), vp) - vp_of.begin());
        if (s >= sessions) break;
        for (std::size_t i = 0; i < training[step][s].size(); ++i, ++k) {
          bgp::Update update = *sent[vp][k];
          update.time =
              kClockBase + static_cast<bgp::Timestamp>(step) * kStepSecs;
          mirror.push_back(std::move(update));
        }
      }
    }
    std::stable_sort(mirror.begin(), mirror.end(),
                     [](const bgp::Update& a, const bgp::Update& b) {
                       return a.time != b.time ? a.time < b.time : a.vp < b.vp;
                     });
    bgp::UpdateStream window(std::move(mirror));
    window.sort();
    StageTimes times;
    const sample::GillConfig gill;
    const auto composed = compose_refresh(window, gill, nullptr, nullptr, times);
    if (sorted_lines(composed.filters.describe()) !=
            sorted_lines(installed.describe()) ||
        composed.anchors != anchors) {
      out.fail("the composed training refresh differs from the installed "
               "filters");
    }
    check_refresh(composed, window, out);
    report_refresh_layers(times, composed, window, out);

    // Single-threaded replay of the phase-2 input through each layer, with
    // simulated times spread over four archive windows; then the query
    // layers over the archive the replay wrote.
    ReplayInput replay;
    const std::size_t per_session =
        bulk.empty() ? 0 : bulk.front().size();
    for (std::size_t k = 0; k < per_session; ++k) {
      for (std::size_t s = 0; s < sessions; ++s) {
        bgp::Update update = bulk[s][k];
        update.time = kClockBase + static_cast<bgp::Timestamp>(
                                       replay.updates.size() * 4 * kRotateSecs /
                                       bulk_count);
        replay.updates.push_back(std::move(update));
      }
    }
    replay.filters = &installed;
    replay.archive_dir = options.workdir + "/replay";
    ReplayFigures figures;
    ArchiveCopy copy;
    copy.records = replay_ingest_layers(replay, out, figures);
    probe_query_layers(replay.archive_dir, copy, 64, options.seed, out);
  }
}

}  // namespace gb
