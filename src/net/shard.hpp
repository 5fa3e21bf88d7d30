// The multi-loop ingest fleet (DESIGN.md §14): N EventLoops, one pinned
// thread each, plus the two primitives that shard inbound sessions across
// them without ever sharing a session between threads.
//
//   * ShardSet owns the loops and their threads. Cross-shard communication
//     is EventLoop::post() only — a closure runs on the owning shard's
//     thread, so shard state needs no locks. call() is the synchronous
//     spelling (post + wait) the control plane uses for harvests.
//   * ShardedListener puts one SO_REUSEPORT listener on every shard, so
//     the kernel accepts inbound connections on all loops. When the port
//     cannot be shared (no SO_REUSEPORT, or dispatcher mode is asked for),
//     a single acceptor on shard 0 takes every connection instead.
//   * Placement is least-loaded in both modes: each accepted connection
//     goes to the shard with the fewest live sessions (ties stay on the
//     accepting shard). The kernel's SO_REUSEPORT hash alone spreads a
//     handful of peers badly (7/1/0/0 for 8 peers on 4 shards has been
//     seen), leaving shards idle. When the accepting shard is not among
//     the least loaded, the fd is handed off to the chosen shard via
//     post() — one cross-thread hop per such connection, counted in
//     gill_net_shard_handoffs_total. The fd crosses threads BEFORE it is
//     registered with any epoll, so ownership is unambiguous either way.
//
// The accept callback always runs on the owning shard's loop thread; the
// session it builds (transport, daemon FSM, token buckets) lives and dies
// on that thread.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"

namespace gill::net {

class ShardSet {
 public:
  /// Builds `count` loops (clamped to at least 1). Threads start in
  /// start(); until then every loop may be used single-threaded (setup).
  explicit ShardSet(std::size_t count, std::uint32_t granularity_ms = 10);
  ~ShardSet();
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  std::size_t size() const noexcept { return loops_.size(); }
  EventLoop& loop(std::size_t shard) { return *loops_[shard]; }

  /// Spawns one thread per loop, each running EventLoop::run().
  void start();
  /// Stops every loop (posted, so a loop parked in epoll_wait wakes) and
  /// joins the threads. Idempotent; also runs from the destructor.
  void stop();
  bool running() const noexcept { return !threads_.empty(); }

  /// Runs `task` on shard `shard`'s thread: posted when the fleet is
  /// running, inline when it is not (setup/teardown phases).
  void post(std::size_t shard, std::function<void()> task);

  /// post() + wait: runs `fn` on the shard thread and returns its result.
  /// The control plane's harvest primitive (mirror take, health snapshot,
  /// filter install). Never call from a shard thread onto another shard
  /// that might be blocked on this one — the control thread is the only
  /// intended caller, and shards never call() anybody.
  template <typename F>
  auto call(std::size_t shard, F&& fn) -> std::invoke_result_t<F> {
    using Result = std::invoke_result_t<F>;
    if (!running()) return fn();
    std::packaged_task<Result()> task(std::forward<F>(fn));
    std::future<Result> future = task.get_future();
    loops_[shard]->post([&task] { task(); });
    return future.get();
  }

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
};

class ShardedListener {
 public:
  /// How connections are spread across shards.
  enum class Mode : std::uint8_t {
    kAuto,        // SO_REUSEPORT listeners; dispatcher when that fails
    kDispatcher,  // single acceptor on shard 0, hand-off to the placement
  };

  /// Runs on the OWNING shard's loop thread; the callback owns the fd.
  using AcceptCallback = std::function<void(
      std::size_t shard, int fd, std::string peer_ip, std::uint16_t port)>;

  ShardedListener(ShardSet& shards, metrics::Registry* registry = nullptr);
  ~ShardedListener();
  ShardedListener(const ShardedListener&) = delete;
  ShardedListener& operator=(const ShardedListener&) = delete;

  /// Binds `host:port` across the fleet. Call BEFORE ShardSet::start():
  /// listener registration touches each loop's fd table from this thread.
  bool listen(const std::string& host, std::uint16_t port,
              AcceptCallback on_accept, Mode mode = Mode::kAuto);
  void close();

  /// The bound port (resolves ephemeral binds).
  std::uint16_t port() const noexcept { return port_; }
  /// True when every shard got its own SO_REUSEPORT listener; false in
  /// dispatcher (hand-off) mode.
  bool reuse_port_active() const noexcept { return reuse_port_; }
  std::size_t handoffs() const noexcept {
    return static_cast<std::size_t>(handoffs_.value());
  }

  /// Live sessions placed on each shard (the placement's load measure).
  std::vector<std::size_t> sessions() const;
  /// The owner reports that a session placed on `shard` is gone (refused
  /// at admission or closed), so placement counts live sessions only.
  /// Callable from any thread.
  void release(std::size_t shard);

 private:
  /// Picks the least-loaded shard for a connection accepted on
  /// `accepting` and counts the session there.
  std::size_t place(std::size_t accepting);
  /// Runs on the accepting shard's thread: places the fd and either keeps
  /// it or posts it to its owner.
  void dispatch(std::size_t accepting, int fd, std::string peer_ip,
                std::uint16_t port);

  ShardSet* shards_;
  metrics::Registry* registry_;
  std::vector<std::unique_ptr<TcpListener>> listeners_;
  AcceptCallback on_accept_;
  std::uint16_t port_ = 0;
  bool reuse_port_ = false;
  mutable std::mutex placement_mutex_;  // guards sessions_ (any thread)
  std::vector<std::size_t> sessions_;   // live sessions per shard
  metrics::Counter& handoffs_;
};

}  // namespace gill::net
