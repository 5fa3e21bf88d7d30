#include "net/shard.hpp"

#include <algorithm>
#include <utility>

namespace gill::net {

namespace {
metrics::Registry& resolve(metrics::Registry* registry) {
  return registry != nullptr ? *registry : metrics::default_registry();
}
}  // namespace

ShardSet::ShardSet(std::size_t count, std::uint32_t granularity_ms) {
  const std::size_t n = count > 0 ? count : 1;
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(granularity_ms));
  }
}

ShardSet::~ShardSet() { stop(); }

void ShardSet::start() {
  if (running()) return;
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([raw = loop.get()] { raw->run(); });
  }
}

void ShardSet::stop() {
  if (!running()) return;
  // stop() is cross-thread safe (atomic flag + eventfd wake), so a loop
  // parked in epoll_wait exits its current iteration immediately.
  for (auto& loop : loops_) loop->stop();
  for (auto& thread : threads_) thread.join();
  threads_.clear();
}

void ShardSet::post(std::size_t shard, std::function<void()> task) {
  if (!running()) {
    task();
    return;
  }
  loops_[shard]->post(std::move(task));
}

ShardedListener::ShardedListener(ShardSet& shards,
                                 metrics::Registry* registry)
    : shards_(&shards),
      registry_(registry),
      sessions_(shards.size(), 0),
      handoffs_(resolve(registry).counter(
          "gill_net_shard_handoffs_total",
          "Accepted fds handed to another shard's loop by least-loaded "
          "placement")) {}

ShardedListener::~ShardedListener() { close(); }

bool ShardedListener::listen(const std::string& host, std::uint16_t port,
                             AcceptCallback on_accept, Mode mode) {
  close();
  on_accept_ = std::move(on_accept);

  if (mode == Mode::kAuto) {
    // One SO_REUSEPORT listener per shard. The first bind resolves an
    // ephemeral port; the siblings must then join that exact port, so any
    // failure past the first tears the group down and falls back.
    bool ok = true;
    for (std::size_t shard = 0; shard < shards_->size(); ++shard) {
      auto listener =
          std::make_unique<TcpListener>(shards_->loop(shard), registry_);
      const std::uint16_t bind_port = shard == 0 ? port : port_;
      if (!listener->listen(
              host, bind_port,
              [this, shard](int fd, std::string ip, std::uint16_t p) {
                dispatch(shard, fd, std::move(ip), p);
              },
              /*backlog=*/128, /*reuse_port=*/true)) {
        ok = false;
        break;
      }
      port_ = listener->port();
      listeners_.push_back(std::move(listener));
    }
    if (ok) {
      reuse_port_ = true;
      return true;
    }
    listeners_.clear();
    port_ = 0;
  }

  // Dispatcher fallback: shard 0 accepts everything and places each fd.
  auto listener = std::make_unique<TcpListener>(shards_->loop(0), registry_);
  const bool ok = listener->listen(
      host, port, [this](int fd, std::string ip, std::uint16_t p) {
        dispatch(0, fd, std::move(ip), p);
      });
  if (!ok) return false;
  port_ = listener->port();
  listeners_.push_back(std::move(listener));
  reuse_port_ = false;
  return true;
}

void ShardedListener::close() {
  // Each TcpListener's fd is registered with its shard's loop; closing
  // from another thread while the fleet runs would race the loop's fd
  // table, so closes are posted (call(): post + wait) shard by shard.
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    TcpListener* raw = listeners_[i].get();
    const std::size_t shard = reuse_port_ ? i : 0;
    shards_->call(shard, [raw] { raw->close(); });
  }
  listeners_.clear();
  port_ = 0;
  reuse_port_ = false;
}

std::vector<std::size_t> ShardedListener::sessions() const {
  const std::lock_guard<std::mutex> lock(placement_mutex_);
  return sessions_;
}

void ShardedListener::release(std::size_t shard) {
  const std::lock_guard<std::mutex> lock(placement_mutex_);
  if (sessions_[shard] > 0) --sessions_[shard];
}

std::size_t ShardedListener::place(std::size_t accepting) {
  // Choice and count happen under one lock: SO_REUSEPORT listeners accept
  // concurrently, and two of them must not both fill the same gap.
  const std::lock_guard<std::mutex> lock(placement_mutex_);
  const auto least = std::min_element(sessions_.begin(), sessions_.end());
  const std::size_t shard =
      sessions_[accepting] == *least
          ? accepting  // a tie never costs a hand-off
          : static_cast<std::size_t>(least - sessions_.begin());
  ++sessions_[shard];
  return shard;
}

void ShardedListener::dispatch(std::size_t accepting, int fd,
                               std::string peer_ip, std::uint16_t port) {
  const std::size_t shard = place(accepting);
  if (shard == accepting) {
    on_accept_(shard, fd, std::move(peer_ip), port);
    return;
  }
  // The post() is the ownership transfer: the fd reaches its shard before
  // any epoll registration.
  handoffs_.inc();
  shards_->post(shard, [this, shard, fd, ip = std::move(peer_ip), port] {
    on_accept_(shard, fd, ip, port);
  });
}

}  // namespace gill::net
