// The archive store (DESIGN.md §10): segment format round-trips, wall-clock
// rotation, index-pruned queries, the crash-safety protocol (torn-write
// fault -> recovery seals and truncates, acknowledged records byte-identical)
// and the end-to-end data-retrieval path — loopback BGP peers feeding a
// Platform whose archive serves GET /data as chunked framed MRT.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "archive/bloom.hpp"
#include "archive/retention.hpp"
#include "archive/segment.hpp"
#include "archive/segment_cache.hpp"
#include "collector/platform.hpp"
#include "collector/sharded.hpp"
#include "net/event_loop.hpp"
#include "net/http_endpoint.hpp"
#include "net/tcp_transport.hpp"
#include "parallel/thread_pool.hpp"

namespace gill::archive {
namespace {

namespace fs = std::filesystem;
using daemon::SessionState;

net::Prefix pfx(const std::string& text) {
  return net::Prefix::parse(text).value();
}

bgp::Update make_update(VpId vp, Timestamp time, const std::string& prefix,
                        std::uint32_t tail_as = 64512) {
  bgp::Update update;
  update.vp = vp;
  update.time = time;
  update.prefix = pfx(prefix);
  update.path = bgp::AsPath{65010, 65020, tail_as};
  update.communities = {bgp::Community(65010, 1)};
  return update;
}

/// A fresh scratch directory under the build tree.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("gill_archive_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::uint8_t> encode(const std::vector<bgp::Update>& updates) {
  mrt::Writer writer;
  for (const auto& update : updates) writer.write_update(update);
  return writer.buffer();
}

// ---------------------------------------------------------------------------
// Segment format: footer round-trip and torn-payload scanning.
// ---------------------------------------------------------------------------

TEST(SegmentFormat, FooterRoundTripsThroughTheFileImage) {
  std::vector<bgp::Update> updates = {
      make_update(3, 1000, "10.0.0.0/24"),
      make_update(1, 1005, "10.0.1.0/24"),
      make_update(3, 1090, "10.0.2.0/24"),
  };
  std::vector<std::uint8_t> file = encode(updates);
  SegmentMeta meta;
  meta.file = "seg-test.mrt";
  meta.payload_bytes = file.size();
  meta.raw_bytes = file.size();
  for (const auto& update : updates) meta.observe(update, false);
  EXPECT_EQ(meta.min_time, 1000u);
  EXPECT_EQ(meta.max_time, 1090u);
  EXPECT_EQ(meta.updates, 3u);
  EXPECT_EQ(meta.vps, (std::vector<VpId>{1, 3}));

  meta.bloom.finalize();  // the v2 footer carries the frozen filter
  append_footer(file, meta);
  auto parsed = read_footer(file);
  ASSERT_TRUE(parsed.has_value());
  parsed->file = meta.file;  // the footer does not carry the filename
  EXPECT_EQ(*parsed, meta);

  // A payload without a footer is not mistaken for a sealed segment.
  EXPECT_FALSE(read_footer(encode(updates)).has_value());
}

TEST(SegmentFormat, ManifestJsonRoundTrips) {
  SegmentMeta a;
  a.file = "seg-0000000900-000001.mrt";
  a.min_time = 930;
  a.max_time = 1170;
  a.updates = 12;
  a.rib_entries = 4;
  a.payload_bytes = 4096;
  a.vps = {0, 2, 9};
  SegmentMeta b;
  b.file = "seg-0000001800-000002.mrt";
  b.min_time = 1800;
  b.max_time = 1810;
  b.updates = 2;
  b.payload_bytes = 128;
  b.vps = {2};
  const auto parsed = manifest_from_json(manifest_to_json({a, b}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, (std::vector<SegmentMeta>{a, b}));
  EXPECT_FALSE(manifest_from_json("{not json").has_value());
}

TEST(SegmentFormat, ScanTruncatesAtEveryTornTailBoundary) {
  // Fuzz the torn-write space exhaustively: cut the payload at EVERY byte
  // boundary inside the tail record. The scan must decode exactly the
  // complete records, report the last complete boundary, and never throw
  // or over-read (ASan/UBSan guard the latter under -L sanitize).
  const std::vector<bgp::Update> updates = {
      make_update(1, 900, "10.0.0.0/24"),
      make_update(2, 910, "10.1.0.0/24"),
      make_update(1, 920, "2001:db8::/48"),
  };
  const std::vector<std::uint8_t> payload = encode(updates);
  const std::vector<std::uint8_t> two = encode(
      {updates.begin(), updates.begin() + 2});
  const std::size_t tail_start = two.size();
  for (std::size_t cut = tail_start; cut < payload.size(); ++cut) {
    const auto span = std::span(payload).first(cut);
    const SegmentMeta meta = scan_payload(span);
    EXPECT_EQ(meta.payload_bytes, tail_start) << "cut at " << cut;
    EXPECT_EQ(meta.updates, 2u) << "cut at " << cut;
    EXPECT_EQ(meta.vps, (std::vector<VpId>{1, 2}));
  }
  // The full payload scans clean.
  const SegmentMeta whole = scan_payload(payload);
  EXPECT_EQ(whole.payload_bytes, payload.size());
  EXPECT_EQ(whole.updates, 3u);
}

// ---------------------------------------------------------------------------
// SegmentWriter: wall-clock rotation and the manifest.
// ---------------------------------------------------------------------------

TEST(SegmentWriter, RotatesOnWallClockBoundaries) {
  const std::string dir = scratch_dir("rotate");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  SegmentWriter writer(config);  // inline I/O: deterministic
  ASSERT_TRUE(writer.open());

  // Three 15-minute windows: [900,1800), [1800,2700), [2700,3600).
  writer.store(make_update(0, 1000, "10.0.0.0/24"));
  writer.store(make_update(1, 1700, "10.0.1.0/24"));
  writer.store(make_update(0, 1800, "10.0.2.0/24"));  // crosses the boundary
  writer.store_rib_entry(make_update(1, 2000, "10.0.1.0/24"));
  writer.tick(2705);  // timer-driven rotation with no new record
  writer.store(make_update(2, 2710, "10.0.3.0/24"));
  writer.close();

  const auto manifest = writer.manifest();
  ASSERT_EQ(manifest.size(), 3u);
  EXPECT_EQ(manifest[0].min_time, 1000u);
  EXPECT_EQ(manifest[0].max_time, 1700u);
  EXPECT_EQ(manifest[0].updates, 2u);
  EXPECT_EQ(manifest[0].vps, (std::vector<VpId>{0, 1}));
  EXPECT_EQ(manifest[1].updates, 1u);
  EXPECT_EQ(manifest[1].rib_entries, 1u);
  EXPECT_EQ(manifest[2].min_time, 2710u);
  EXPECT_EQ(manifest[2].vps, (std::vector<VpId>{2}));
  EXPECT_EQ(writer.segments_sealed(), 3u);
  EXPECT_EQ(writer.records_appended(), 5u);

  // Every sealed file exists, parses, and the active artifact is gone.
  for (const auto& meta : manifest) {
    const auto file = read_file((fs::path(dir) / meta.file).string());
    ASSERT_TRUE(file.has_value()) << meta.file;
    auto footer = read_footer(*file);
    ASSERT_TRUE(footer.has_value()) << meta.file;
    footer->file = meta.file;  // the footer does not carry the filename
    EXPECT_EQ(*footer, meta);
  }
  EXPECT_FALSE(fs::exists(fs::path(dir) / kActiveSegmentName));

  // A reader sees the same manifest.
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(dir));
  EXPECT_EQ(reader.segments(), manifest);
}

TEST(SegmentWriter, AsyncPoolWriterMatchesInlineResult) {
  metrics::Registry registry;
  par::ThreadPool pool(2, &registry);
  const std::string dir = scratch_dir("async");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.flush_bytes = 64;  // many small async appends
  config.pool = &pool;
  config.registry = &registry;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  std::vector<bgp::Update> sent;
  for (int i = 0; i < 200; ++i) {
    auto update = make_update(static_cast<VpId>(i % 5),
                              static_cast<Timestamp>(1000 + i * 20),
                              "10.2." + std::to_string(i % 250) + ".0/24");
    writer.store(update);
    sent.push_back(std::move(update));
  }
  writer.close();  // rotate + wait_idle: all I/O jobs drained
  EXPECT_FALSE(writer.failed());
  EXPECT_GE(writer.segments_sealed(), 4u);  // 200 * 20s spans >= 4 windows

  // The byte stream on disk is the exact append-order encoding: jobs were
  // serialized even though the pool has two workers.
  ArchiveReader reader(&registry);
  ASSERT_TRUE(reader.open(dir));
  QueryCursor cursor = reader.query({});
  std::string streamed;
  while (cursor.next_chunk(streamed)) {
  }
  const std::vector<std::uint8_t> expected = encode(sent);
  ASSERT_EQ(streamed.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(streamed.data(), expected.data(),
                           expected.size()));
  EXPECT_GT(registry.counter_total("gill_archive_segments_written_total"), 0u);
  EXPECT_GT(registry.counter_total("gill_archive_bytes_written_total"), 0u);
}

// ---------------------------------------------------------------------------
// ArchiveReader: index pruning and per-record filters.
// ---------------------------------------------------------------------------

struct QueryFixture : ::testing::Test {
  std::string dir = scratch_dir("query");

  void SetUp() override {
    SegmentWriterConfig config;
    config.directory = dir;
    config.rotate_secs = 900;
    SegmentWriter writer(config);
    ASSERT_TRUE(writer.open());
    writer.store(make_update(0, 1000, "10.0.0.0/24"));
    writer.store(make_update(1, 1100, "10.1.0.0/24"));
    writer.store(make_update(0, 1900, "10.0.128.0/25"));
    writer.store(make_update(2, 2000, "192.168.0.0/16"));
    writer.store(make_update(1, 2800, "2001:db8::/48"));
    writer.close();
  }
};

TEST_F(QueryFixture, TimeWindowIsHalfOpenAndPrunesSegments) {
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(dir));
  ASSERT_EQ(reader.segments().size(), 3u);

  QueryOptions options;
  options.start = 1100;
  options.end = 2000;  // excludes the t=2000 record
  const auto records = reader.query_all(options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].update.time, 1100u);
  EXPECT_EQ(records[1].update.time, 1900u);
}

TEST_F(QueryFixture, VpFilterUsesTheSegmentIndex) {
  metrics::Registry registry;
  ArchiveReader reader(&registry);
  ASSERT_TRUE(reader.open(dir));
  QueryOptions options;
  options.vp = 2;
  const auto records = reader.query_all(options);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].update.prefix, pfx("192.168.0.0/16"));
  // Only the one matching record crossed the stream counter: segments
  // whose VP set excludes vp=2 were pruned without being decoded.
  EXPECT_EQ(registry.counter_total("gill_archive_records_streamed_total"), 1u);
  EXPECT_EQ(registry.counter_total("gill_archive_queries_served_total"), 1u);
}

TEST_F(QueryFixture, PrefixFilterMatchesEqualOrMoreSpecific) {
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(dir));
  QueryOptions options;
  options.prefix = pfx("10.0.0.0/16");
  const auto records = reader.query_all(options);
  // 10.0.0.0/24 and 10.0.128.0/25 are inside 10.0.0.0/16; 10.1.0.0/24,
  // 192.168.0.0/16 and the v6 prefix are not.
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].update.prefix, pfx("10.0.0.0/24"));
  EXPECT_EQ(records[1].update.prefix, pfx("10.0.128.0/25"));

  QueryOptions v6;
  v6.prefix = pfx("2001:db8::/32");
  const auto v6_records = reader.query_all(v6);
  ASSERT_EQ(v6_records.size(), 1u);
  EXPECT_EQ(v6_records[0].update.prefix, pfx("2001:db8::/48"));
}

TEST_F(QueryFixture, SegmentsJsonListsTheManifest) {
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(dir));
  const auto parsed = manifest_from_json(reader.segments_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, reader.segments());
}

// ---------------------------------------------------------------------------
// Crash safety: the torn-write fault kills the writer mid-segment; reopening
// the store recovers, truncates the torn tail and serves every acknowledged
// record byte-identically.
// ---------------------------------------------------------------------------

TEST(CrashSafety, RecoveryAfterTornWriteServesAcknowledgedRecords) {
  const std::string dir = scratch_dir("crash");
  std::vector<bgp::Update> acknowledged;
  {
    SegmentWriterConfig config;
    config.directory = dir;
    config.rotate_secs = 900;
    SegmentWriter writer(config);
    ASSERT_TRUE(writer.open());
    // One sealed segment, then a half-written active segment.
    writer.store(make_update(0, 1000, "10.0.0.0/24"));
    writer.store(make_update(1, 1100, "10.0.1.0/24"));
    writer.store(make_update(0, 1900, "10.0.2.0/24"));  // seals window 1
    acknowledged.push_back(make_update(0, 1000, "10.0.0.0/24"));
    acknowledged.push_back(make_update(1, 1100, "10.0.1.0/24"));
    // These two are flushed (write + fsync completed): acknowledged.
    writer.store(make_update(2, 1950, "10.0.3.0/24"));
    writer.flush();
    acknowledged.push_back(make_update(0, 1900, "10.0.2.0/24"));
    acknowledged.push_back(make_update(2, 1950, "10.0.3.0/24"));
    // The crash: the next append writes only 7 bytes of its chunk (a torn
    // record), skips the fsync and the writer dies — as if the process
    // was killed inside write(). Nothing after this is acknowledged.
    writer.fault_torn_write(7);
    writer.store(make_update(1, 2000, "10.0.4.0/24"));
    writer.flush();
    EXPECT_TRUE(writer.failed());
    // Later appends on a dead writer are dropped, not crashes.
    writer.store(make_update(1, 2100, "10.0.5.0/24"));
  }
  // The store now holds one sealed segment, a torn current.part and a
  // manifest that predates the crash.
  ASSERT_TRUE(fs::exists(fs::path(dir) / kActiveSegmentName));

  // Reopen: a new writer's open() runs the recovery scan.
  metrics::Registry registry;
  SegmentWriterConfig config;
  config.directory = dir;
  config.registry = &registry;
  SegmentWriter reopened(config);
  ASSERT_TRUE(reopened.open());
  EXPECT_FALSE(fs::exists(fs::path(dir) / kActiveSegmentName));
  EXPECT_EQ(registry.counter_total("gill_archive_recovered_segments_total"),
            1u);
  EXPECT_EQ(registry.counter_total("gill_archive_truncated_bytes_total"), 7u);

  // Every acknowledged record comes back byte-identically; the torn tail
  // is gone.
  ArchiveReader reader(&registry);
  ASSERT_TRUE(reader.open(dir));
  ASSERT_EQ(reader.segments().size(), 2u);
  QueryCursor cursor = reader.query({});
  std::string streamed;
  while (cursor.next_chunk(streamed)) {
  }
  const std::vector<std::uint8_t> expected = encode(acknowledged);
  ASSERT_EQ(streamed.size(), expected.size());
  EXPECT_EQ(0,
            std::memcmp(streamed.data(), expected.data(), expected.size()));

  // Recovery is idempotent: a second open changes nothing.
  const auto before = load_manifest(dir);
  const auto again = recover_store(dir);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->recovered_segments, 0u);
  EXPECT_EQ(load_manifest(dir), before);
}

TEST(CrashSafety, RecoverySealsEveryTornTailLength) {
  // Drive the recovery scan across every torn-tail length of the final
  // record: whatever prefix of the tail record hits the disk, reopening
  // yields exactly the two complete records.
  const std::vector<bgp::Update> updates = {
      make_update(0, 1000, "10.0.0.0/24"),
      make_update(1, 1050, "10.0.1.0/24"),
      make_update(2, 1090, "10.0.2.0/24"),
  };
  const std::vector<std::uint8_t> payload = encode(updates);
  const std::size_t tail_start =
      encode({updates.begin(), updates.begin() + 2}).size();
  const std::vector<std::uint8_t> complete = encode(
      {updates.begin(), updates.begin() + 2});
  for (std::size_t cut = tail_start + 1; cut < payload.size(); ++cut) {
    const std::string dir =
        scratch_dir("torn_" + std::to_string(cut));
    ASSERT_TRUE(write_file_atomic(
        (fs::path(dir) / kActiveSegmentName).string(),
        std::span(payload).first(cut)));
    const auto result = recover_store(dir);
    ASSERT_TRUE(result.has_value()) << "cut at " << cut;
    EXPECT_EQ(result->recovered_segments, 1u);
    EXPECT_EQ(result->truncated_bytes, cut - tail_start);
    ArchiveReader reader;
    ASSERT_TRUE(reader.open(dir));
    QueryCursor cursor = reader.query({});
    std::string streamed;
    while (cursor.next_chunk(streamed)) {
    }
    ASSERT_EQ(streamed.size(), complete.size()) << "cut at " << cut;
    EXPECT_EQ(0, std::memcmp(streamed.data(), complete.data(),
                             complete.size()));
    fs::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// End to end: loopback BGP peers -> Platform with an archive -> rotation ->
// GET /data returns exactly one VP's window, decodable by the MRT reader.
// ---------------------------------------------------------------------------

/// De-chunks a Transfer-Encoding: chunked HTTP body.
std::string dechunk(const std::string& body) {
  std::string out;
  std::size_t at = 0;
  for (;;) {
    const std::size_t line_end = body.find("\r\n", at);
    if (line_end == std::string::npos) break;
    const std::size_t size =
        std::stoul(body.substr(at, line_end - at), nullptr, 16);
    if (size == 0) break;
    out += body.substr(line_end + 2, size);
    at = line_end + 2 + size + 2;  // skip data + trailing CRLF
  }
  return out;
}

TEST(EndToEnd, DataEndpointServesOneVpsWindowAsFramedMrt) {
  net::EventLoop loop;
  metrics::Registry registry;
  collect::PlatformConfig platform_config;
  platform_config.registry = &registry;
  collect::Platform platform(platform_config);

  const std::string dir = scratch_dir("e2e");
  SegmentWriterConfig archive_config;
  archive_config.directory = dir;
  archive_config.rotate_secs = 900;
  archive_config.registry = &registry;
  SegmentWriter writer(archive_config);
  ASSERT_TRUE(writer.open());
  platform.set_archive(&writer);

  // The collectord accept path.
  std::map<bgp::VpId, net::TcpTransport*> transports;
  std::vector<bgp::VpId> accepted;
  net::TcpListener listener(loop, &registry);
  ASSERT_TRUE(listener.listen(
      "127.0.0.1", 0, [&](int fd, std::string, std::uint16_t) {
        auto transport = std::make_unique<net::TcpTransport>(
            loop, net::Role::kDaemonSide, &registry);
        auto* raw = transport.get();
        transport->adopt(fd);
        const bgp::VpId vp =
            platform.add_remote_peer(0, 1000, std::move(transport));
        transports[vp] = raw;
        accepted.push_back(vp);
      }));

  // The collectord HTTP plane, including the /data streaming route.
  net::HttpEndpoint http(loop, &registry);
  http.route("/data", [&registry, dir](const net::HttpRequest& request) {
    QueryOptions options;
    if (const auto* start = request.get("start")) {
      options.start = std::stoul(*start);
    }
    if (const auto* end = request.get("end")) options.end = std::stoul(*end);
    if (const auto* vp = request.get("vp")) {
      options.vp = static_cast<VpId>(std::stoul(*vp));
    }
    auto reader = std::make_shared<ArchiveReader>(&registry);
    EXPECT_TRUE(reader->open(dir));
    auto cursor = std::make_shared<QueryCursor>(reader->query(options));
    net::HttpResponse response;
    response.content_type = "application/octet-stream";
    response.producer = [reader, cursor](std::string& out) {
      return cursor->next_chunk(out);
    };
    return response;
  });
  http.route("/segments", [&registry, dir](const net::HttpRequest&) {
    ArchiveReader reader(&registry);
    EXPECT_TRUE(reader.open(dir));
    net::HttpResponse response;
    response.content_type = "application/json";
    response.body = reader.segments_json();
    return response;
  });
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  // Two routers peer in over real sockets.
  bgp::Timestamp now = 1000;
  const auto pump = [&] {
    platform.step(now);
    for (auto& [vp, transport] : transports) transport->sync();
    writer.tick(now);
  };
  struct Client {
    net::TcpTransport transport;
    daemon::FakePeer peer;
    Client(net::EventLoop& loop, metrics::Registry& registry,
           bgp::AsNumber as, std::uint16_t port)
        : transport(loop, net::Role::kPeerSide, &registry),
          peer(as, transport) {
      EXPECT_TRUE(transport.dial("127.0.0.1", port));
    }
  };
  Client alpha(loop, registry, 65010, listener.port());
  Client beta(loop, registry, 65020, listener.port());
  const auto drive = [&](auto done, int iterations = 600) {
    for (int i = 0; i < iterations; ++i) {
      loop.run_once(2);
      pump();
      alpha.peer.poll();
      alpha.transport.sync();
      beta.peer.poll();
      beta.transport.sync();
      if (done()) return true;
    }
    return done();
  };
  ASSERT_TRUE(drive([&] {
    return accepted.size() == 2 && alpha.peer.established() &&
           beta.peer.established();
  }));
  // Resolve which accepted VP is alpha's while the sessions are live (a
  // later hold-timer expiry resets the daemons' learned peer AS).
  const bgp::VpId alpha_vp =
      platform.daemon_of(accepted[0]).peer_as() == 65010 ? accepted[0]
                                                         : accepted[1];
  ASSERT_EQ(platform.daemon_of(alpha_vp).peer_as(), 65010u);

  // Each router announces a distinct block, stamped inside [900, 1800).
  for (int i = 0; i < 8; ++i) {
    alpha.peer.send_update(
        make_update(0, 0, "10.10." + std::to_string(i) + ".0/24"));
    beta.peer.send_update(
        make_update(0, 0, "10.20." + std::to_string(i) + ".0/24"));
  }
  ASSERT_TRUE(drive([&] { return writer.records_appended() == 16; }));

  // The wall clock crosses the boundary: the window seals.
  now = 1805;
  ASSERT_TRUE(drive([&] { return writer.segments_sealed() == 1; }));

  // Fetch one VP's window over HTTP and decode it with the MRT reader.
  const std::string request = "GET /data?vp=" + std::to_string(alpha_vp) +
                              "&start=900&end=1800 HTTP/1.1\r\n"
                              "Host: t\r\n\r\n";
  std::string response;
  {
    // http_exchange inline (the net_test helper lives in another TU).
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(http.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    std::size_t sent = 0;
    bool closed = false;
    for (int i = 0; i < 3000 && !closed; ++i) {
      loop.run_once(1);
      if (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n > 0) sent += static_cast<std::size_t>(n);
      }
      char buffer[4096];
      for (;;) {
        const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
        if (n > 0) {
          response.append(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) closed = true;
        break;
      }
    }
    ::close(fd);
  }
  ASSERT_TRUE(response.starts_with("HTTP/1.1 200 OK\r\n")) << response;
  ASSERT_NE(response.find("Transfer-Encoding: chunked\r\n"),
            std::string::npos);
  const std::string body = dechunk(
      response.substr(response.find("\r\n\r\n") + 4));

  mrt::Reader mrt_reader(
      std::span(reinterpret_cast<const std::uint8_t*>(body.data()),
                body.size()));
  std::vector<bgp::Update> fetched;
  while (auto record = mrt_reader.next()) fetched.push_back(record->update);
  EXPECT_TRUE(mrt_reader.ok());
  // Exactly alpha's eight announcements, within the window, nothing from
  // beta's VP.
  ASSERT_EQ(fetched.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const auto& update = fetched[static_cast<std::size_t>(i)];
    EXPECT_EQ(update.vp, alpha_vp);
    EXPECT_GE(update.time, 900u);
    EXPECT_LT(update.time, 1800u);
    EXPECT_EQ(update.prefix, pfx("10.10." + std::to_string(i) + ".0/24"));
  }
}

// ---------------------------------------------------------------------------
// Operational degradation: a full disk drops data, never the collector.
// ---------------------------------------------------------------------------

TEST(SegmentWriter, EnospcDegradesToCountedDropsAndStaysAlive) {
  const std::string dir = scratch_dir("enospc");
  metrics::Registry registry;
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.flush_bytes = 1;  // every record hits the disk path immediately
  config.registry = &registry;
  SegmentWriter writer(config);  // inline I/O: deterministic
  ASSERT_TRUE(writer.open());

  writer.store(make_update(0, 1000, "10.0.0.0/24"));
  ASSERT_EQ(writer.enospc_events(), 0u);

  // The disk fills for exactly one append: that chunk is dropped and
  // counted, the writer does NOT die (contrast fault_torn_write).
  writer.fault_enospc();
  writer.store(make_update(0, 1010, "10.0.1.0/24"));
  EXPECT_EQ(writer.enospc_events(), 1u);
  EXPECT_FALSE(writer.failed());

  // The operator freed space: collection resumes without intervention.
  writer.store(make_update(0, 1020, "10.0.2.0/24"));
  writer.close();
  EXPECT_FALSE(writer.failed());
  EXPECT_EQ(writer.enospc_events(), 1u);
  EXPECT_EQ(registry.counter_total("gill_archive_enospc_events_total"), 1u);
  EXPECT_GT(
      registry.counter_total("gill_archive_enospc_dropped_bytes_total"), 0u);

  // The window still sealed into a real, footered segment on disk.
  const auto manifest = writer.manifest();
  ASSERT_EQ(manifest.size(), 1u);
  const auto file = read_file((fs::path(dir) / manifest[0].file).string());
  ASSERT_TRUE(file.has_value());
  EXPECT_TRUE(read_footer(*file).has_value());
}

// ---------------------------------------------------------------------------
// Concurrency: shard threads store through one LockedSink while a control
// thread ticks, rotates and reads the manifest (TSan covers the writer's
// lock split through the `sanitize` label).
// ---------------------------------------------------------------------------

constexpr int kStoresPerThread = 3000;

/// The record a producer thread stores `i`-th: its VP names the thread and
/// the tail AS carries `i`, so a reader can check per-thread order.
bgp::Update sequenced_update(VpId vp, int i) {
  const std::string prefix =
      i % 5 == 4 ? "2001:db8:" + std::to_string(vp) + ":" +
                       std::to_string(i % 300) + "::/64"
                 : "10." + std::to_string(vp) + "." +
                       std::to_string(i % 250) + ".0/24";
  return make_update(vp, static_cast<Timestamp>(1000 + i / 25), prefix,
                     static_cast<std::uint32_t>(i));
}

/// Two producers (VPs 1 and 2) store kStoresPerThread records each through
/// `locked`; meanwhile this thread does gill-collectord's control work on
/// the same writer: tick and rotate under the sink's lock, and read the
/// manifest, its generation and failed() without it.
void store_from_two_threads(collect::LockedSink& locked,
                            SegmentWriter& writer, Timestamp first_tick) {
  std::atomic<int> done{0};
  const auto produce = [&](VpId vp) {
    for (int i = 0; i < kStoresPerThread; ++i) {
      locked.store(sequenced_update(vp, i));
    }
    done.fetch_add(1);
  };
  std::thread first(produce, 1);
  std::thread second(produce, 2);
  Timestamp now = first_tick;
  std::uint64_t generation = 0;
  for (std::uint64_t round = 0; done.load() < 2; ++round) {
    locked.with_lock([&] { writer.tick(now); });
    if (round % 10 == 5) locked.with_lock([&] { writer.rotate_now(); });
    const auto manifest = writer.manifest();
    const std::uint64_t seen = writer.manifest_generation();
    EXPECT_GE(seen, generation);
    generation = seen;
    (void)writer.failed();
    (void)manifest;
    now += 3;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  first.join();
  second.join();
}

/// Every sealed segment of `writer`, decoded: per-VP tail-AS sequences in
/// seal order. Checks each footer against its file and each bloom against
/// the prefixes actually stored (`exact_counts`: no records were dropped).
std::map<VpId, std::vector<std::uint32_t>> read_back(
    const std::string& dir, const SegmentWriter& writer, bool exact_counts) {
  std::map<VpId, std::vector<std::uint32_t>> sequences;
  for (const auto& meta : writer.manifest()) {
    const auto file = read_file((fs::path(dir) / meta.file).string());
    EXPECT_TRUE(file.has_value()) << meta.file;
    if (!file) continue;
    auto footer = read_footer(*file);
    EXPECT_TRUE(footer.has_value()) << meta.file;
    if (!footer) continue;
    footer->file = meta.file;
    EXPECT_EQ(*footer, meta);
    const auto payload = SegmentCache::load_segment(dir, meta);
    EXPECT_NE(payload, nullptr) << meta.file;
    if (!payload) continue;
    mrt::Reader reader(*payload);
    PrefixBloom rebuilt;
    std::uint64_t records = 0;
    while (const auto record = reader.next()) {
      ++records;
      rebuilt.observe(record->update.prefix);
      EXPECT_TRUE(meta.bloom.may_cover(record->update.prefix));
      sequences[record->update.vp].push_back(
          record->update.path.origin());
    }
    EXPECT_TRUE(reader.ok()) << meta.file;
    if (exact_counts) {
      EXPECT_EQ(records, meta.records()) << meta.file;
      rebuilt.finalize();
      EXPECT_EQ(rebuilt, meta.bloom) << meta.file;
    } else {
      EXPECT_LE(records, meta.records()) << meta.file;
    }
  }
  return sequences;
}

SegmentWriterConfig concurrent_config(const std::string& dir,
                                      par::ThreadPool& pool,
                                      metrics::Registry& registry) {
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 30;
  config.flush_bytes = 512;  // many appends queue behind the seals
  config.compress = true;
  config.pool = &pool;
  config.registry = &registry;
  return config;
}

TEST(SegmentWriter, TwoThreadsThroughLockedSinkKeepOrderAndBlooms) {
  metrics::Registry registry;
  par::ThreadPool pool(2, &registry);
  const std::string dir = scratch_dir("two_threads");
  SegmentWriter writer(concurrent_config(dir, pool, registry));
  ASSERT_TRUE(writer.open());
  collect::LockedSink locked(&writer);
  store_from_two_threads(locked, writer, /*first_tick=*/1000);
  locked.with_lock([&] { writer.close(); });

  EXPECT_FALSE(writer.failed());
  EXPECT_EQ(writer.records_appended(), 2u * kStoresPerThread);
  EXPECT_GE(writer.segments_sealed(), 4u);
  const auto sequences = read_back(dir, writer, /*exact_counts=*/true);
  ASSERT_EQ(sequences.size(), 2u);
  for (const auto& [vp, sequence] : sequences) {
    ASSERT_EQ(sequence.size(), static_cast<std::size_t>(kStoresPerThread))
        << "vp " << vp;
    for (int i = 0; i < kStoresPerThread; ++i) {
      ASSERT_EQ(sequence[static_cast<std::size_t>(i)],
                static_cast<std::uint32_t>(i))
          << "vp " << vp;
    }
  }
  // The bloom build ran once per seal, on the I/O worker.
  std::uint64_t finalize_count = 0;
  for (const auto& metric : registry.snapshot()) {
    if (metric.name == "gill_archive_bloom_finalize_us") {
      finalize_count = metric.count;
    }
  }
  EXPECT_EQ(finalize_count, writer.segments_sealed());
}

TEST(SegmentWriter, TwoThreadsSurviveEnospcInOrder) {
  metrics::Registry registry;
  par::ThreadPool pool(2, &registry);
  const std::string dir = scratch_dir("two_threads_enospc");
  SegmentWriter writer(concurrent_config(dir, pool, registry));
  ASSERT_TRUE(writer.open());
  collect::LockedSink locked(&writer);
  writer.fault_enospc();  // the first append job finds the disk full
  store_from_two_threads(locked, writer, /*first_tick=*/1000);
  locked.with_lock([&] { writer.close(); });

  EXPECT_FALSE(writer.failed());
  EXPECT_EQ(writer.enospc_events(), 1u);
  EXPECT_EQ(writer.records_appended(), 2u * kStoresPerThread);
  // One chunk of whole records is gone; what is on disk is readable and
  // still in each thread's order.
  std::size_t kept = 0;
  for (const auto& [vp, sequence] : read_back(dir, writer, false)) {
    EXPECT_TRUE(std::is_sorted(sequence.begin(), sequence.end())) << vp;
    EXPECT_EQ(std::adjacent_find(sequence.begin(), sequence.end()),
              sequence.end());
    kept += sequence.size();
  }
  EXPECT_LT(kept, 2u * kStoresPerThread);
  EXPECT_GT(kept, 0u);
}

TEST(SegmentWriter, TornWriteStopsConcurrentAppends) {
  metrics::Registry registry;
  par::ThreadPool pool(2, &registry);
  const std::string dir = scratch_dir("two_threads_torn");
  SegmentWriter writer(concurrent_config(dir, pool, registry));
  ASSERT_TRUE(writer.open());
  collect::LockedSink locked(&writer);
  // The writer dies first: its first append job tears mid-record.
  writer.fault_torn_write(7);
  locked.store(sequenced_update(1, 0));
  locked.with_lock([&] { writer.flush(); });
  writer.wait_idle();
  ASSERT_TRUE(writer.failed());
  std::uint64_t appended = 0;
  locked.with_lock([&] { appended = writer.records_appended(); });
  EXPECT_EQ(appended, 1u);

  // failed() is read on every store: after the death, nothing more is
  // taken from either thread, and nothing is sealed.
  store_from_two_threads(locked, writer, /*first_tick=*/1000);
  locked.with_lock([&] {
    EXPECT_EQ(writer.records_appended(), appended);
    writer.close();
  });
  EXPECT_EQ(writer.segments_sealed(), 0u);
  EXPECT_TRUE(writer.manifest().empty());
  EXPECT_TRUE(fs::exists(fs::path(dir) / kActiveSegmentName));
}

TEST(SegmentWriter, StoreWaitsWhileTheJobQueueIsFull) {
  metrics::Registry registry;
  std::atomic<bool> release{false};
  par::ThreadPool pool(1, &registry);
  // Same-size records (the tail AS carries the sequence number).
  const auto record = [](int i) {
    return make_update(1, 1000, "10.1.0.0/24", static_cast<std::uint32_t>(i));
  };
  const std::size_t record_bytes = encode({record(0)}).size();
  const std::string dir = scratch_dir("queue_cap");
  SegmentWriterConfig config;
  config.directory = dir;
  config.flush_bytes = record_bytes;  // every store posts one record
  config.pool = &pool;
  config.registry = &registry;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  collect::LockedSink locked(&writer);
  // Occupy the pool's only worker: no writer job runs until release.
  pool.post([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kFit = static_cast<int>(SegmentWriter::kMaxPendingChunks);
  constexpr int kRecords = 3 * kFit;
  std::atomic<int> stored{0};
  std::thread producer([&] {
    for (int i = 0; i < kRecords; ++i) {
      locked.store(record(i));
      stored.fetch_add(1);
    }
  });
  // kFit chunks fill the queue; the next store waits for room.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stored.load() < kFit && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(stored.load(), kFit);
  // A waiting store holds no lock the manifest or failed() need.
  EXPECT_TRUE(writer.manifest().empty());
  EXPECT_FALSE(writer.failed());

  release.store(true);
  producer.join();
  locked.with_lock([&] { writer.close(); });
  EXPECT_FALSE(writer.failed());
  ASSERT_EQ(writer.segments_sealed(), 1u);
  const auto sequences = read_back(dir, writer, /*exact_counts=*/true);
  ASSERT_EQ(sequences.size(), 1u);
  const auto& sequence = sequences.begin()->second;
  ASSERT_EQ(sequence.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(sequence[static_cast<std::size_t>(i)],
              static_cast<std::uint32_t>(i));
  }
}

// ---------------------------------------------------------------------------
// PrefixBloom: ancestor-insertion semantics and serialization round-trips.
// ---------------------------------------------------------------------------

TEST(PrefixBloom, AncestorKeysAnswerEqualOrMoreSpecific) {
  PrefixBloom bloom;
  bloom.observe(pfx("10.0.0.0/24"));
  bloom.observe(pfx("2001:db8:1::/48"));
  bloom.finalize();
  ASSERT_FALSE(bloom.empty());
  // The record prefix itself and every less-specific ancestor must match:
  // a query at any of those lengths covers the stored record.
  EXPECT_TRUE(bloom.may_cover(pfx("10.0.0.0/24")));
  EXPECT_TRUE(bloom.may_cover(pfx("10.0.0.0/16")));
  EXPECT_TRUE(bloom.may_cover(pfx("10.0.0.0/8")));
  EXPECT_TRUE(bloom.may_cover(pfx("0.0.0.0/0")));
  EXPECT_TRUE(bloom.may_cover(pfx("2001:db8::/32")));
  EXPECT_TRUE(bloom.may_cover(pfx("2001:db8:1::/48")));
  // Disjoint space prunes, and so does a query MORE specific than the
  // stored record (10.0.0.0/25 does not cover the stored /24). These are
  // deterministic given the fixed hash function.
  EXPECT_FALSE(bloom.may_cover(pfx("192.168.0.0/16")));
  EXPECT_FALSE(bloom.may_cover(pfx("10.0.0.0/25")));
  EXPECT_FALSE(bloom.may_cover(pfx("2001:db9::/32")));
}

TEST(PrefixBloom, EmptyFilterIsMatchAll) {
  PrefixBloom bloom;  // never observed, never finalized: a v1 segment
  EXPECT_TRUE(bloom.empty());
  EXPECT_TRUE(bloom.may_cover(pfx("10.0.0.0/8")));
  EXPECT_TRUE(bloom.may_cover(pfx("2001:db8::/32")));
  bloom.finalize();  // observe-less finalize stays match-all
  EXPECT_TRUE(bloom.empty());
  EXPECT_TRUE(bloom.may_cover(pfx("192.168.0.0/24")));
}

TEST(PrefixBloom, SerializeAndHexFormsRoundTrip) {
  PrefixBloom bloom;
  for (int i = 0; i < 64; ++i) {
    bloom.observe(pfx("10." + std::to_string(i) + ".0.0/16"));
  }
  bloom.finalize();
  std::vector<std::uint8_t> bytes;
  bloom.serialize(bytes);
  std::size_t at = 0;
  const auto binary = PrefixBloom::deserialize(bytes, at);
  ASSERT_TRUE(binary.has_value());
  EXPECT_EQ(at, bytes.size());
  EXPECT_EQ(*binary, bloom);
  const auto hex = PrefixBloom::from_hex(bloom.to_hex(), bloom.hashes());
  ASSERT_TRUE(hex.has_value());
  EXPECT_EQ(*hex, bloom);
}

/// The builder the seal-time expansion replaced: every observe inserts the
/// record prefix and each of its ancestors into a set of 64-bit keys;
/// finalize sizes the array by the distinct keys and sets `hashes`
/// double-hashed bits per key. Kept as the oracle that the filter the
/// writer seals must match byte for byte.
class AncestorInsertOracle {
 public:
  void observe(const net::Prefix& prefix) {
    for (unsigned length = 0; length <= prefix.length(); ++length) {
      keys_.insert(net::hash_value(net::Prefix(prefix.address(), length)));
    }
  }

  /// Probe count and bit array of the frozen filter (empty when nothing
  /// was observed).
  std::pair<std::uint32_t, std::vector<std::uint8_t>> finalize(
      double bits_per_key = PrefixBloom::kDefaultBitsPerKey,
      std::uint32_t hashes = PrefixBloom::kDefaultHashes) const {
    if (keys_.empty()) return {0, {}};
    const auto mix = [](std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return x ^ (x >> 31);
    };
    const double wanted = bits_per_key * static_cast<double>(keys_.size());
    std::uint64_t bit_count = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(wanted) + 1, 64, PrefixBloom::kMaxBits);
    bit_count = (bit_count + 7) & ~7ull;
    std::vector<std::uint8_t> bits(bit_count / 8, 0);
    hashes = std::max(1u, hashes);
    for (const std::uint64_t key : keys_) {
      const std::uint64_t h2 = mix(key) | 1;
      std::uint64_t h = key;
      for (std::uint32_t i = 0; i < hashes; ++i, h += h2) {
        bits[(h % bit_count) / 8] |=
            static_cast<std::uint8_t>(1u << ((h % bit_count) % 8));
      }
    }
    return {hashes, std::move(bits)};
  }

 private:
  std::unordered_set<std::uint64_t> keys_;
};

/// The footer form of a filter: hashes (u32 BE), byte length (u64 BE),
/// bits — written out independently of PrefixBloom::serialize.
std::vector<std::uint8_t> footer_form(std::uint32_t hashes,
                                      const std::vector<std::uint8_t>& bits) {
  std::vector<std::uint8_t> out;
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(hashes >> shift));
  }
  const std::uint64_t size = bits.size();
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(size >> shift));
  }
  out.insert(out.end(), bits.begin(), bits.end());
  return out;
}

std::string hex_form(const std::vector<std::uint8_t>& bits) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t byte : bits) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

/// A random prefix: v4 or v6, any length with /0 and host routes likely;
/// half the time nested under (or above) one drawn before, or a repeat.
net::Prefix random_prefix(std::mt19937_64& rng,
                          const std::vector<net::Prefix>& drawn) {
  std::array<std::uint8_t, 16> bytes{};
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  const auto pick = [&](unsigned bits) -> unsigned {
    switch (rng() % 6) {
      case 0: return 0;
      case 1: return bits;
      case 2: return static_cast<unsigned>(rng() % (bits + 1));
      default: return bits == 32 ? 8 + static_cast<unsigned>(rng() % 17)
                                 : 16 + static_cast<unsigned>(rng() % 49);
    }
  };
  if (!drawn.empty() && rng() % 2 == 0) {
    const net::Prefix& base = drawn[rng() % drawn.size()];
    const unsigned bits = base.address().bit_count();
    switch (rng() % 3) {
      case 0: return base;  // duplicate
      case 1:  // an ancestor
        return net::Prefix(base.address(),
                           static_cast<unsigned>(rng() % (base.length() + 1)));
      default: {  // a descendant: keep the base's bits, randomise the rest
        const auto& keep = base.address().bytes();
        for (unsigned bit = 0; bit < base.length(); ++bit) {
          const auto mask = static_cast<std::uint8_t>(0x80u >> (bit % 8));
          bytes[bit / 8] = static_cast<std::uint8_t>(
              (bytes[bit / 8] & ~mask) | (keep[bit / 8] & mask));
        }
        const unsigned length =
            base.length() +
            static_cast<unsigned>(rng() % (bits - base.length() + 1));
        const net::IpAddress address =
            bits == 32 ? net::IpAddress::v4(
                             (static_cast<std::uint32_t>(bytes[0]) << 24) |
                             (static_cast<std::uint32_t>(bytes[1]) << 16) |
                             (static_cast<std::uint32_t>(bytes[2]) << 8) |
                             bytes[3])
                       : net::IpAddress::v6(bytes);
        return net::Prefix(address, length);
      }
    }
  }
  if (rng() % 5 < 3) {
    const std::uint32_t v4 = (static_cast<std::uint32_t>(bytes[0]) << 24) |
                             (static_cast<std::uint32_t>(bytes[1]) << 16) |
                             (static_cast<std::uint32_t>(bytes[2]) << 8) |
                             bytes[3];
    return net::Prefix(net::IpAddress::v4(v4), pick(32));
  }
  return net::Prefix(net::IpAddress::v6(bytes), pick(128));
}

/// The seal-time builder and the oracle agree byte for byte on `prefixes`,
/// and no ancestor of an observed prefix is a false negative.
void expect_same_filter(const std::vector<net::Prefix>& prefixes,
                        double bits_per_key, std::uint32_t hashes,
                        const std::string& label) {
  PrefixBloom bloom;
  AncestorInsertOracle oracle;
  for (const auto& prefix : prefixes) {
    bloom.observe(prefix);
    oracle.observe(prefix);
  }
  bloom.finalize(bits_per_key, hashes);
  const auto [oracle_hashes, oracle_bits] =
      oracle.finalize(bits_per_key, hashes);
  ASSERT_EQ(bloom.bits(), oracle_bits) << label;
  EXPECT_EQ(bloom.hashes(), oracle_hashes) << label;
  std::vector<std::uint8_t> footer;
  bloom.serialize(footer);
  EXPECT_EQ(footer, footer_form(oracle_hashes, oracle_bits)) << label;
  EXPECT_EQ(bloom.to_hex(), hex_form(oracle_bits)) << label;
  EXPECT_EQ(bloom.empty(), prefixes.empty()) << label;
  for (const auto& prefix : prefixes) {
    for (unsigned length = 0; length <= prefix.length(); ++length) {
      const net::Prefix ancestor(prefix.address(), length);
      ASSERT_TRUE(bloom.may_cover(ancestor))
          << label << ": " << ancestor.str() << " covers " << prefix.str();
    }
  }
}

TEST(PrefixBloom, SealTimeBuildMatchesPerRecordAncestorInsertion) {
  // Edge multisets first: the roots, host routes, a chain of nested
  // prefixes in both orders, duplicates, both families at once.
  const std::vector<std::vector<std::string>> edges = {
      {"0.0.0.0/0"},
      {"::/0"},
      {"0.0.0.0/0", "::/0", "0.0.0.0/0"},
      {"10.1.2.3/32", "10.1.2.3/32"},
      {"2001:db8::1/128", "::/128", "0.0.0.0/32"},
      {"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.1.2.128/25"},
      {"10.1.2.128/25", "10.1.2.0/24", "10.1.0.0/16", "10.0.0.0/8"},
      {"10.0.0.0/24", "10.0.1.0/24", "10.0.0.0/23", "11.0.0.0/24"},
      {"2001:db8::/32", "2001:db8:1::/48", "10.0.0.0/24", "2001:db8::/33"},
      {"255.255.255.255/32", "0.0.0.0/32", "128.0.0.0/1", "0.0.0.0/1"},
  };
  for (const auto& texts : edges) {
    std::vector<net::Prefix> prefixes;
    std::string label;
    for (const auto& text : texts) {
      prefixes.push_back(pfx(text));
      label += text + " ";
    }
    expect_same_filter(prefixes, PrefixBloom::kDefaultBitsPerKey,
                       PrefixBloom::kDefaultHashes, label);
  }

  // Seeded random multisets, over the default and other sizings (the last
  // one past the 1 MiB cap).
  const std::pair<double, std::uint32_t> sizings[] = {
      {PrefixBloom::kDefaultBitsPerKey, PrefixBloom::kDefaultHashes},
      {4.0, 3},
      {0.5, 0},
      {1e6, 2}};
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t count = seed % 10 == 0 ? 4000 : rng() % 400;
    std::vector<net::Prefix> prefixes;
    for (std::size_t i = 0; i < count; ++i) {
      prefixes.push_back(random_prefix(rng, prefixes));
    }
    const auto [bits_per_key, hashes] = sizings[seed % 30 == 7 ? 3 : seed % 3];
    expect_same_filter(prefixes, bits_per_key, hashes,
                       "seed " + std::to_string(seed));
  }
}

TEST(PrefixBloom, ObserveLessFinalizeStaysEmptyMatchAll) {
  PrefixBloom bloom;
  bloom.finalize(4.0, 3);
  EXPECT_TRUE(bloom.empty());
  EXPECT_TRUE(bloom.bits().empty());
  EXPECT_TRUE(bloom.to_hex().empty());
  std::vector<std::uint8_t> footer;
  bloom.serialize(footer);
  EXPECT_EQ(footer, footer_form(0, {}));
  EXPECT_TRUE(bloom.may_cover(pfx("0.0.0.0/0")));
  EXPECT_TRUE(bloom.may_cover(pfx("2001:db8::/128")));
}

// ---------------------------------------------------------------------------
// Footer/manifest versioning: v1 segments keep opening, mixed directories
// serve, and prefix queries fall back to scan-all where no bloom exists.
// ---------------------------------------------------------------------------

TEST(SegmentFormat, V1FooterOpensAsRawWithMatchAllBloom) {
  const std::vector<bgp::Update> updates = {
      make_update(0, 1000, "10.0.0.0/24"),
      make_update(1, 1100, "10.1.0.0/24"),
  };
  std::vector<std::uint8_t> file = encode(updates);
  SegmentMeta meta;
  meta.payload_bytes = file.size();
  for (const auto& update : updates) meta.observe(update, false);
  append_footer_v1(file, meta);
  const auto parsed = read_footer(file);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->codec, kCodecNone);
  EXPECT_EQ(parsed->raw_bytes, parsed->payload_bytes);
  EXPECT_TRUE(parsed->bloom.empty());
  EXPECT_EQ(parsed->min_time, 1000u);
  EXPECT_EQ(parsed->updates, 2u);
  EXPECT_EQ(parsed->vps, (std::vector<VpId>{0, 1}));
}

TEST(MixedVersions, V1AndV2SegmentsServeFromOneDirectory) {
  const std::string dir = scratch_dir("mixed");
  // Fabricate a pre-v2 store: one sealed segment with a v1 footer and no
  // manifest row — exactly what a directory written before the format bump
  // looks like after a crash-between-rename-and-manifest.
  const std::vector<bgp::Update> old_updates = {
      make_update(0, 1000, "10.0.0.0/24"),
      make_update(1, 1100, "172.16.0.0/24"),
  };
  std::vector<std::uint8_t> v1_file = encode(old_updates);
  SegmentMeta v1_meta;
  v1_meta.payload_bytes = v1_file.size();
  for (const auto& update : old_updates) v1_meta.observe(update, false);
  append_footer_v1(v1_file, v1_meta);
  ASSERT_TRUE(write_file_atomic(
      (fs::path(dir) / segment_file_name(900, 1)).string(), v1_file));

  // A current writer adopts the v1 segment and seals a v2 one next to it.
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.compress = compression_available();
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  writer.store(make_update(2, 2000, "10.0.5.0/24"));
  writer.store(make_update(2, 2100, "192.168.1.0/24"));
  writer.close();

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(dir));
  ASSERT_EQ(reader.segments().size(), 2u);
  EXPECT_EQ(reader.segments()[0].codec, kCodecNone);
  EXPECT_TRUE(reader.segments()[0].bloom.empty());
  EXPECT_FALSE(reader.segments()[1].bloom.empty());

  // A prefix query crosses both: the v1 segment has no bloom and falls
  // back to scan-all (its matching record is found), the v2 segment is
  // answered through its bloom.
  QueryOptions options;
  options.prefix = pfx("10.0.0.0/8");
  const auto records = reader.query_all(options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].update.prefix, pfx("10.0.0.0/24"));
  EXPECT_EQ(records[1].update.prefix, pfx("10.0.5.0/24"));
}

// ---------------------------------------------------------------------------
// Compression: sealed payloads round-trip byte-identically and the crash
// protocol is untouched (the active file is always raw).
// ---------------------------------------------------------------------------

TEST(Compression, CompressedSealRoundTripsByteIdentically) {
  if (!compression_available()) GTEST_SKIP() << "build lacks zstd";
  const std::string dir = scratch_dir("zstd");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.compress = true;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  std::vector<bgp::Update> sent;
  for (int i = 0; i < 120; ++i) {
    auto update = make_update(static_cast<VpId>(i % 4),
                              static_cast<Timestamp>(1000 + i * 30),
                              "10.3." + std::to_string(i % 200) + ".0/24");
    writer.store(update);
    sent.push_back(std::move(update));
  }
  writer.close();
  EXPECT_FALSE(writer.failed());

  const auto manifest = writer.manifest();
  ASSERT_GE(manifest.size(), 3u);
  for (const auto& meta : manifest) {
    EXPECT_EQ(meta.codec, kCodecZstd) << meta.file;
    EXPECT_GT(meta.raw_bytes, 0u);
    // The footer's payload size is the on-disk (compressed) size.
    const auto file = read_file((fs::path(dir) / meta.file).string());
    ASSERT_TRUE(file.has_value()) << meta.file;
    const auto footer = read_footer(*file);
    ASSERT_TRUE(footer.has_value()) << meta.file;
    EXPECT_EQ(footer->payload_bytes, meta.payload_bytes);
    EXPECT_EQ(footer->raw_bytes, meta.raw_bytes);
    EXPECT_LT(meta.payload_bytes, meta.raw_bytes);  // MRT framing compresses
  }

  // The stream a reader serves is byte-identical to the raw append order —
  // compression is invisible to consumers.
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(dir));
  QueryCursor cursor = reader.query({});
  std::string streamed;
  while (cursor.next_chunk(streamed)) {
  }
  const std::vector<std::uint8_t> expected = encode(sent);
  ASSERT_EQ(streamed.size(), expected.size());
  EXPECT_EQ(0,
            std::memcmp(streamed.data(), expected.data(), expected.size()));
}

TEST(Compression, TornTailRecoveryStillWorksWithCompressionOn) {
  if (!compression_available()) GTEST_SKIP() << "build lacks zstd";
  const std::string dir = scratch_dir("zstd_crash");
  std::vector<bgp::Update> acknowledged;
  {
    SegmentWriterConfig config;
    config.directory = dir;
    config.rotate_secs = 900;
    config.compress = true;
    SegmentWriter writer(config);
    ASSERT_TRUE(writer.open());
    writer.store(make_update(0, 1000, "10.0.0.0/24"));
    writer.store(make_update(0, 1900, "10.0.1.0/24"));  // seals window 1
    acknowledged.push_back(make_update(0, 1000, "10.0.0.0/24"));
    writer.flush();
    acknowledged.push_back(make_update(0, 1900, "10.0.1.0/24"));
    writer.fault_torn_write(7);
    writer.store(make_update(1, 2000, "10.0.2.0/24"));
    writer.flush();
    EXPECT_TRUE(writer.failed());
  }
  // The crash artifact is RAW framed MRT even though the store compresses:
  // recovery's scan_payload applies unchanged.
  ASSERT_TRUE(fs::exists(fs::path(dir) / kActiveSegmentName));
  SegmentWriterConfig config;
  config.directory = dir;
  config.compress = true;
  SegmentWriter reopened(config);
  ASSERT_TRUE(reopened.open());
  EXPECT_FALSE(fs::exists(fs::path(dir) / kActiveSegmentName));

  ArchiveReader reader;
  ASSERT_TRUE(reader.open(dir));
  ASSERT_EQ(reader.segments().size(), 2u);
  EXPECT_EQ(reader.segments()[0].codec, kCodecZstd);   // sealed pre-crash
  EXPECT_EQ(reader.segments()[1].codec, kCodecNone);   // recovery seals raw
  QueryCursor cursor = reader.query({});
  std::string streamed;
  while (cursor.next_chunk(streamed)) {
  }
  const std::vector<std::uint8_t> expected = encode(acknowledged);
  ASSERT_EQ(streamed.size(), expected.size());
  EXPECT_EQ(0,
            std::memcmp(streamed.data(), expected.data(), expected.size()));
}

// ---------------------------------------------------------------------------
// Retention/GC: policy selection, crash-safe deletion, pin protocol.
// ---------------------------------------------------------------------------

SegmentMeta fake_meta(const std::string& file, Timestamp min_time,
                      Timestamp max_time, std::uint64_t bytes) {
  SegmentMeta meta;
  meta.file = file;
  meta.min_time = min_time;
  meta.max_time = max_time;
  meta.payload_bytes = bytes;
  meta.raw_bytes = bytes;
  return meta;
}

TEST(Retention, SelectExpiredByAgeThenByteBudget) {
  const std::vector<SegmentMeta> manifest = {
      fake_meta("a", 900, 1790, 100),
      fake_meta("b", 1800, 2690, 100),
      fake_meta("c", 2700, 3590, 100),
      fake_meta("d", 3600, 4490, 100),
  };
  RetentionPolicy age_only;
  age_only.max_age_secs = 1000;
  // now=3700: horizon 2700 — windows whose newest record predates it go.
  EXPECT_EQ(select_expired(manifest, age_only, 3700),
            (std::vector<std::size_t>{0, 1}));

  RetentionPolicy bytes_only;
  bytes_only.max_bytes = 250;  // 400 bytes stored: shed oldest until <= 250
  EXPECT_EQ(select_expired(manifest, bytes_only, 5000),
            (std::vector<std::size_t>{0, 1}));

  RetentionPolicy both;
  both.max_age_secs = 1000;
  both.max_bytes = 150;  // age kills {0,1}; budget then sheds 2 as well
  EXPECT_EQ(select_expired(manifest, both, 3700),
            (std::vector<std::size_t>{0, 1, 2}));

  EXPECT_TRUE(select_expired(manifest, RetentionPolicy{}, 9999).empty());
}

TEST(Retention, GcDeletesOldestFirstAndManifestStaysConsistent) {
  const std::string dir = scratch_dir("gc");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  for (int w = 0; w < 3; ++w) {
    writer.store(make_update(0, static_cast<Timestamp>(1000 + w * 900),
                             "10.0." + std::to_string(w) + ".0/24"));
  }
  writer.close();
  auto manifest = writer.manifest();
  ASSERT_EQ(manifest.size(), 3u);

  RetentionPolicy policy;
  policy.max_age_secs = 900;
  const auto result =
      run_gc(dir, manifest, policy, nullptr, /*now=*/manifest[1].max_time +
                                                 policy.max_age_secs + 1);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->deleted_files.size(), 2u);
  EXPECT_EQ(result->deleted_files[0], manifest[0].file);
  EXPECT_EQ(result->deleted_files[1], manifest[1].file);
  EXPECT_GT(result->deleted_bytes, 0u);
  ASSERT_EQ(result->remaining.size(), 1u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / manifest[0].file));
  EXPECT_FALSE(fs::exists(fs::path(dir) / manifest[1].file));
  EXPECT_TRUE(fs::exists(fs::path(dir) / manifest[2].file));
  // The on-disk manifest and a fresh load agree with the pass's result.
  EXPECT_EQ(load_manifest(dir), result->remaining);
  // The survivor still serves.
  ArchiveReader reader;
  ASSERT_TRUE(reader.open(dir));
  EXPECT_EQ(reader.query_all({}).size(), 1u);
}

TEST(Retention, GcSparesPinnedSegmentsUntilUnpinned) {
  const std::string dir = scratch_dir("gc_pins");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  writer.store(make_update(0, 1000, "10.0.0.0/24"));
  writer.store(make_update(0, 1900, "10.0.1.0/24"));
  writer.close();
  const auto manifest = writer.manifest();
  ASSERT_EQ(manifest.size(), 2u);

  SegmentPins pins;
  pins.pin({manifest[0].file});  // a live cursor holds the oldest window
  RetentionPolicy policy;
  policy.max_age_secs = 1;
  auto result = run_gc(dir, manifest, policy, &pins, /*now=*/100000);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->skipped_pinned, 1u);
  ASSERT_EQ(result->deleted_files.size(), 1u);
  EXPECT_EQ(result->deleted_files[0], manifest[1].file);
  EXPECT_TRUE(fs::exists(fs::path(dir) / manifest[0].file));
  // The spared window stayed in the manifest: a later pass sees it again.
  ASSERT_EQ(result->remaining.size(), 1u);
  EXPECT_EQ(result->remaining[0].file, manifest[0].file);

  pins.unpin({manifest[0].file});
  EXPECT_EQ(pins.pinned_count(), 0u);
  result = run_gc(dir, load_manifest(dir), policy, &pins, /*now=*/100000);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->skipped_pinned, 0u);
  ASSERT_EQ(result->deleted_files.size(), 1u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / manifest[0].file));
  EXPECT_TRUE(result->remaining.empty());
}

TEST(Retention, WriterRetentionJobUpdatesManifestAndGeneration) {
  const std::string dir = scratch_dir("gc_writer");
  metrics::Registry registry;
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.registry = &registry;
  SegmentWriter writer(config);  // inline jobs: deterministic
  ASSERT_TRUE(writer.open());
  for (int w = 0; w < 3; ++w) {
    writer.store(make_update(0, static_cast<Timestamp>(1000 + w * 900),
                             "10.0." + std::to_string(w) + ".0/24"));
  }
  writer.rotate_now();
  const std::uint64_t generation = writer.manifest_generation();
  EXPECT_EQ(generation, 3u);  // one bump per seal

  std::vector<std::string> invalidated;
  RetentionPolicy policy;
  policy.max_bytes = 1;  // condemn every window
  writer.run_retention(policy, nullptr, /*now=*/100000,
                       [&](const std::string& file) {
                         invalidated.push_back(file);
                       });
  EXPECT_EQ(writer.manifest_generation(), generation + 1);
  EXPECT_TRUE(writer.manifest().empty());
  EXPECT_EQ(invalidated.size(), 3u);
  EXPECT_EQ(registry.counter_total("gill_archive_gc_deleted_segments_total"),
            3u);
  EXPECT_TRUE(load_manifest(dir).empty());
  // A disabled policy is a no-op, not a delete-everything.
  writer.run_retention(RetentionPolicy{}, nullptr, 100000);
  EXPECT_EQ(writer.manifest_generation(), generation + 1);
  writer.close();
}

}  // namespace
}  // namespace gill::archive
