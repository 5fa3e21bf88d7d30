// Sharded ingest plane (DESIGN.md §14): the determinism contract and the
// teardown races.
//
// The contract under test: the merged mirror and the merged RIB snapshot
// handed to the analysis pipeline are byte-identical regardless of how
// many ingest shards the sessions landed on. The test pins the two free
// variables the contract depends on — VP ids (sessions connect one at a
// time, so the global allocator hands out 0..N-1 in connect order) and
// timestamps (a fixed injected clock) — and then compares MRT encodings
// across 1-, 2- and 4-shard fleets fed the same traffic.
//
// Placement: each inbound session goes to the shard with the fewest live
// sessions, in SO_REUSEPORT and dispatcher mode alike, so 8 peers on 4
// shards land 2/2/2/2 whatever the kernel's hash would have done, and a
// closed session frees its slot.
//
// The race tests drive abrupt peer disconnects while the control thread
// harvests mirrors and runs merge refreshes on the analysis pool; under a
// GILL_SANITIZE=thread build (`ctest -L parallel`) TSan turns them into
// data-race detectors. The flap-storm soak is env-scaled by
// GILL_SOAK_PEERS / GILL_SOAK_ROUNDS and joins tools/soak.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "collector/sharded.hpp"
#include "daemon/daemon.hpp"
#include "mrt/mrt.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace gill::collect {
namespace {

constexpr bgp::Timestamp kNow = 7777;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

std::vector<std::uint8_t> stream_bytes(const bgp::UpdateStream& stream) {
  mrt::Writer writer;
  for (const auto& update : stream) writer.write_update(update);
  return writer.buffer();
}

/// A fleet of loopback FakePeer clients against one ShardedPlatform, all
/// client ends driven from the test thread (the platform's shards run on
/// their own threads).
struct ClientFleet {
  net::EventLoop loop;
  metrics::Registry registry;
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<std::unique_ptr<daemon::FakePeer>> peers;

  void pump() {
    loop.run_once(1);
    for (auto& peer : peers) {
      if (peer) peer->poll();
    }
    for (auto& transport : transports) {
      if (transport) transport->sync();
    }
  }

  /// Connects one more peer and waits until BOTH ends consider the
  /// session up. Serial connects make VP ids independent of shard count:
  /// the global allocator assigns them in connect order.
  bool connect(ShardedPlatform& platform, bgp::AsNumber as) {
    // peer_count() is monotonic (dead sessions stay registered), so wait
    // for it to grow by one rather than match the live-client count.
    const std::size_t want = platform.peer_count() + 1;
    auto transport = std::make_unique<net::TcpTransport>(
        loop, net::Role::kPeerSide, &registry);
    if (!transport->dial("127.0.0.1", platform.port())) return false;
    peers.push_back(std::make_unique<daemon::FakePeer>(as, *transport));
    transports.push_back(std::move(transport));
    for (int i = 0; i < 50000; ++i) {
      if (peers.back()->established() && platform.peer_count() >= want) {
        return true;
      }
      pump();
    }
    return false;
  }

  /// Dials `count` peers at once (no waiting in between, like a fleet
  /// coming up together) and pumps until every session is up on both ends.
  bool connect_all(ShardedPlatform& platform, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      auto transport = std::make_unique<net::TcpTransport>(
          loop, net::Role::kPeerSide, &registry);
      if (!transport->dial("127.0.0.1", platform.port())) return false;
      peers.push_back(std::make_unique<daemon::FakePeer>(
          static_cast<bgp::AsNumber>(65001 + i), *transport));
      transports.push_back(std::move(transport));
    }
    const auto up = [&] {
      for (const auto& peer : peers) {
        if (!peer->established()) return false;
      }
      return platform.peer_count() == count;
    };
    for (int i = 0; i < 50000 && !up(); ++i) pump();
    return up();
  }

  /// FIN from the client side: the far shard sees an abrupt disconnect.
  void drop(std::size_t index) {
    peers[index].reset();
    transports[index].reset();
  }
};

/// Runs the canonical traffic pattern against a `shard_count` fleet and
/// returns the (merged mirror, merged RIB dump) MRT encodings.
struct MergedBytes {
  std::vector<std::uint8_t> mirror;
  std::vector<std::uint8_t> rib;
  std::size_t shards_used = 0;
};

MergedBytes run_canonical_traffic(std::size_t shard_count,
                                  std::size_t peer_count,
                                  std::size_t bursts_per_peer) {
  constexpr std::size_t kBurst = 10;
  MergedBytes out;

  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = shard_count;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.platform.component1_refresh = 0;
  config.rib_dump_interval = 8 * 3600;  // enables RIB tracking; > kNow, so
                                        // no periodic snapshot ever fires
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  EXPECT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);
  out.shards_used = platform.shard_count();

  ClientFleet fleet;
  for (std::size_t i = 0; i < peer_count; ++i) {
    EXPECT_TRUE(
        fleet.connect(platform, static_cast<bgp::AsNumber>(65001 + i)))
        << "peer " << i << " never established (" << shard_count
        << " shards)";
  }

  for (std::size_t round = 0; round < bursts_per_peer; ++round) {
    for (std::size_t i = 0; i < peer_count; ++i) {
      fleet.peers[i]->send_synthetic_burst(
          kBurst, (10u << 24) | (static_cast<std::uint32_t>(i) << 16) |
                      (static_cast<std::uint32_t>(round) << 8));
    }
  }
  const std::size_t expected = peer_count * bursts_per_peer * kBurst;
  for (int i = 0; i < 200000 && platform.stored_updates() < expected; ++i) {
    fleet.pump();
  }
  EXPECT_EQ(platform.stored_updates(), expected);

  out.rib = stream_bytes(platform.merged_rib_dump(kNow));
  out.mirror = stream_bytes(platform.take_merged_mirror());
  platform.stop();
  return out;
}

TEST(Sharded, MergedSnapshotsByteIdenticalAcrossShardCounts) {
  const std::size_t peer_count = 12;
  const std::size_t bursts = 4;

  const MergedBytes one = run_canonical_traffic(1, peer_count, bursts);
  const MergedBytes two = run_canonical_traffic(2, peer_count, bursts);
  const MergedBytes four = run_canonical_traffic(4, peer_count, bursts);
  ASSERT_EQ(one.shards_used, 1u);
  ASSERT_EQ(two.shards_used, 2u);
  ASSERT_EQ(four.shards_used, 4u);

  ASSERT_FALSE(one.mirror.empty());
  EXPECT_EQ(one.mirror, two.mirror)
      << "merged mirror depends on the shard count (1 vs 2)";
  EXPECT_EQ(one.mirror, four.mirror)
      << "merged mirror depends on the shard count (1 vs 4)";
  ASSERT_FALSE(one.rib.empty());
  EXPECT_EQ(one.rib, two.rib)
      << "merged RIB dump depends on the shard count (1 vs 2)";
  EXPECT_EQ(one.rib, four.rib)
      << "merged RIB dump depends on the shard count (1 vs 4)";
}

void expect_balanced_placement(net::ShardedListener::Mode mode) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kPeers = 8;
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = kShards;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.platform.component1_refresh = 0;
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0, mode));
  if (mode == net::ShardedListener::Mode::kDispatcher) {
    EXPECT_FALSE(platform.reuse_port_active());
  }
  platform.start(/*tick_ms=*/1);

  ClientFleet fleet;
  ASSERT_TRUE(fleet.connect_all(platform, kPeers));
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(platform.peer_count(shard), kPeers / kShards)
        << "shard " << shard;
  }
  EXPECT_EQ(platform.inbound_sessions(),
            std::vector<std::size_t>(kShards, kPeers / kShards));
  platform.stop();
}

TEST(Sharded, PlacementIsBalancedWithReusePortListeners) {
  expect_balanced_placement(net::ShardedListener::Mode::kAuto);
}

TEST(Sharded, PlacementIsBalancedWithTheDispatcher) {
  expect_balanced_placement(net::ShardedListener::Mode::kDispatcher);
}

TEST(Sharded, ClosedSessionsFreeTheirPlacementSlot) {
  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = 4;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.platform.component1_refresh = 0;
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);

  ClientFleet fleet;
  ASSERT_TRUE(fleet.connect_all(platform, 4));
  ASSERT_EQ(platform.inbound_sessions(), std::vector<std::size_t>(4, 1));

  // The FIN reaches its shard, whose next tick releases the slot.
  fleet.drop(0);
  const auto live = [&] {
    std::size_t total = 0;
    for (const std::size_t n : platform.inbound_sessions()) total += n;
    return total;
  };
  for (int i = 0; i < 50000 && live() != 3; ++i) fleet.pump();
  ASSERT_EQ(live(), 3u);

  // The replacement fills the freed slot: one live session per shard
  // again, while the dead session stays registered on its shard.
  ASSERT_TRUE(fleet.connect(platform, 65100));
  EXPECT_EQ(platform.inbound_sessions(), std::vector<std::size_t>(4, 1));
  EXPECT_EQ(platform.peer_count(), 5u);
  platform.stop();
}

TEST(Sharded, DisconnectDuringMergeIsSafe) {
  const std::size_t peer_count = 8;

  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = 4;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.platform.component1_refresh = 0;
  config.analysis_threads = 2;  // merge jobs race the ingest threads
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);

  ClientFleet fleet;
  for (std::size_t i = 0; i < peer_count; ++i) {
    ASSERT_TRUE(
        fleet.connect(platform, static_cast<bgp::AsNumber>(65001 + i)));
  }
  for (std::size_t i = 0; i < peer_count; ++i) {
    fleet.peers[i]->send_synthetic_burst(
        50, (10u << 24) | (static_cast<std::uint32_t>(i) << 16));
  }
  for (int i = 0; i < 100000 && platform.stored_updates() < peer_count * 50;
       ++i) {
    fleet.pump();
  }

  // Kick off an async merge over the harvested mirrors, then yank half the
  // sessions mid-flight while the control plane keeps harvesting.
  platform.refresh_filters(kNow);
  for (std::size_t i = 0; i < peer_count; i += 2) {
    fleet.drop(i);
    platform.control_tick(kNow);
    (void)platform.health_snapshot();
    (void)platform.take_merged_mirror();
    fleet.pump();
  }
  platform.wait_for_refresh();
  EXPECT_GE(platform.filter_generation(), 1u);

  // The surviving sessions are still serviced after the churn.
  const std::size_t before = platform.stored_updates();
  for (std::size_t i = 1; i < peer_count; i += 2) {
    fleet.peers[i]->send_synthetic_burst(
        10, (172u << 24) | (static_cast<std::uint32_t>(i) << 16));
  }
  for (int i = 0;
       i < 100000 &&
       platform.stored_updates() < before + (peer_count / 2) * 10;
       ++i) {
    fleet.pump();
  }
  EXPECT_EQ(platform.stored_updates(), before + (peer_count / 2) * 10);
  platform.stop();
}

TEST(Sharded, FlapStormAcrossShardsSoak) {
  const std::size_t peer_count = env_size("GILL_SOAK_PEERS", 16);
  const std::size_t rounds = env_size("GILL_SOAK_ROUNDS", 2);

  metrics::Registry registry;
  ShardedPlatformConfig config;
  config.shards = 4;
  config.platform.local_as = 65000;
  config.platform.registry = &registry;
  config.platform.component1_refresh = 0;
  config.analysis_threads = 2;
  config.clock = [] { return kNow; };
  ShardedPlatform platform(config);
  ASSERT_TRUE(platform.listen("127.0.0.1", 0));
  platform.start(/*tick_ms=*/1);

  ClientFleet fleet;
  for (std::size_t i = 0; i < peer_count; ++i) {
    ASSERT_TRUE(
        fleet.connect(platform, static_cast<bgp::AsNumber>(65001 + i)));
  }

  // Once a refresh installs filters, redundant VPs' updates are filtered
  // instead of stored — so the conservation invariant is stored + filtered
  // == sent, not stored == sent.
  const auto accounted = [&] {
    return platform.stored_updates() +
           static_cast<std::size_t>(
               registry.counter_total("gill_daemon_updates_filtered_total"));
  };
  std::size_t sent = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < fleet.peers.size(); ++i) {
      if (!fleet.peers[i]) continue;
      fleet.peers[i]->send_synthetic_burst(
          20, (10u << 24) | (static_cast<std::uint32_t>(i & 0xff) << 16) |
                  (static_cast<std::uint32_t>(round & 0xff) << 8));
      sent += 20;
    }
    for (int i = 0; i < 50000 && accounted() < sent; ++i) {
      fleet.pump();
    }
    ASSERT_EQ(accounted(), sent) << "round " << round;

    // The storm: every other session FINs and a replacement dials in
    // while a merge refresh is in flight.
    platform.refresh_filters(kNow);
    for (std::size_t i = round % 2; i < fleet.peers.size(); i += 2) {
      if (fleet.peers[i]) fleet.drop(i);
    }
    const std::size_t survivors = platform.peer_count();
    for (std::size_t i = 0; i < peer_count / 2; ++i) {
      ASSERT_TRUE(fleet.connect(
          platform, static_cast<bgp::AsNumber>(65101 + round * 100 + i)));
      platform.control_tick(kNow);
    }
    EXPECT_GE(platform.peer_count(), survivors + peer_count / 2);
    platform.wait_for_refresh();
  }
  EXPECT_GE(platform.filter_generation(), 1u);
  platform.stop();
}

}  // namespace
}  // namespace gill::collect
