// In-memory span recorder for the traced run (--trace 1). A span is a
// named interval with the span that was open around it on the same thread
// as its parent; spans stay in per-thread buffers until the run ends and
// are then written out as JSON together with each name's self time (its
// duration minus the part its child spans cover). With tracing off a
// Scope costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace gb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::uint64_t id = 0;      // unique across threads
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t items = 1;   // work units the span covers (a batch)
  std::uint32_t thread = 0;
};

/// Per-name totals over every recorded span.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

namespace trace {

void enable(bool on);
bool enabled();

/// RAII span. `name` must outlive the run (string literals).
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t items = 1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Sets the work units after the fact (a batch whose size is known late).
  void set_items(std::uint64_t items) { items_ = items; }

 private:
  const char* name_;
  std::uint64_t items_;
  std::int64_t start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  bool on_ = false;
};

/// Every span recorded so far, from all threads.
std::vector<Span> collect();

/// Writes spans and per-name totals to `path`; false on I/O failure.
bool write_json(const std::vector<Span>& spans, const std::string& path);

}  // namespace trace
}  // namespace gb
