#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace gb::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_thread{1};

struct Buffer {
  std::uint32_t thread = 0;
  std::uint64_t next_local = 1;
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  // stack of open span ids
};

std::mutex g_mutex;
std::vector<std::shared_ptr<Buffer>>& buffers() {
  static std::vector<std::shared_ptr<Buffer>> all;
  return all;
}

Buffer& local() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto created = std::make_shared<Buffer>();
    created->thread = g_next_thread.fetch_add(1);
    created->spans.reserve(1024);
    const std::lock_guard<std::mutex> lock(g_mutex);
    buffers().push_back(created);
    return created;
  }();
  return *buffer;
}

}  // namespace

void enable(bool on) { g_enabled.store(on); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, std::uint64_t items)
    : name_(name), items_(items), on_(enabled()) {
  if (!on_) return;
  Buffer& buffer = local();
  id_ = (std::uint64_t{buffer.thread} << 40) | buffer.next_local++;
  parent_ = buffer.open.empty() ? 0 : buffer.open.back();
  buffer.open.push_back(id_);
  start_ = now_ns();
}

Scope::~Scope() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  Buffer& buffer = local();
  buffer.open.pop_back();
  buffer.spans.push_back(
      Span{name_, id_, parent_, start_, end, items_, buffer.thread});
}

std::vector<Span> collect() {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& buffer : buffers()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

namespace {

std::unordered_map<std::uint64_t, std::int64_t> child_time(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> covered;
  for (const Span& span : spans) {
    if (span.parent != 0) covered[span.parent] += span.end_ns - span.start_ns;
  }
  return covered;
}

}  // namespace

bool write_json(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const auto covered = child_time(spans);
  std::map<std::string, SpanTotals> by_name;
  std::fprintf(out, "{\"spans\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"thread\":%u,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"items\":%llu}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent), span.thread,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<unsigned long long>(span.items));
    SpanTotals& t = by_name[span.name];
    const std::int64_t duration = span.end_ns - span.start_ns;
    const auto it = covered.find(span.id);
    ++t.calls;
    t.items += span.items;
    t.total_ns += duration;
    t.self_ns += duration - (it == covered.end() ? 0 : it->second);
  }
  std::fprintf(out, "],\n\"self_times\":{");
  bool first = true;
  for (const auto& [name, t] : by_name) {
    std::fprintf(out,
                 "%s\n\"%s\":{\"calls\":%llu,\"items\":%llu,\"total_ns\":%lld,"
                 "\"self_ns\":%lld}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.calls),
                 static_cast<unsigned long long>(t.items),
                 static_cast<long long>(t.total_ns),
                 static_cast<long long>(t.self_ns));
    first = false;
  }
  std::fprintf(out, "\n}}\n");
  return std::fclose(out) == 0;
}

}  // namespace gb::trace
