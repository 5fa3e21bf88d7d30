#include <sched.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace gb {

void Result::fail(const std::string& what) {
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

unsigned hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::pair<std::uint64_t, std::uint64_t> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return {0, 0};
  std::uint64_t total = 0, steal = 0, value = 0;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already counted in user/nice.
  for (int field = 0; field < 8 && (in >> value); ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlayfs";
    case 0x9123683EUL: return "btrfs";
    case 0x58465342UL: return "xfs";
    default: {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buffer;
    }
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return values[lower] * (1 - weight) + values[upper] * weight;
}

}  // namespace gb
