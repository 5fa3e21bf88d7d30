// gillbench: drives one workload of the collector end to end through its
// public API, checks the outputs and prints the metrics. See README.md.
//
//   gillbench --workload ingest|refresh|query --seed N --seconds S
//             --trace 0|1 --workdir DIR [--trace-dir DIR]
//
// The last line of standard output is the JSON result; the line before it
// describes the host (hardware threads, build type, CPU steal during the
// run, the filesystem behind the archive directory).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: gillbench --workload ingest|refresh|query --seed N "
               "--seconds S --trace 0|1 --workdir DIR [--trace-dir DIR]\n");
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  gb::Options options;
  options.start_ns = gb::now_ns();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--workdir") {
      options.workdir = value;
    } else if (key == "--trace-dir") {
      options.trace_dir = value;
    } else {
      usage();
      return 2;
    }
  }
  if (options.workdir.empty() || options.seconds <= 0 ||
      (options.workload != "ingest" && options.workload != "refresh" &&
       options.workload != "query")) {
    usage();
    return 2;
  }
  gb::trace::enable(options.trace);
  // A peer socket the collector closed must fail the write, not kill us.
  std::signal(SIGPIPE, SIG_IGN);

  const auto steal_before = gb::cpu_steal_jiffies();
  gb::Result result;
  if (options.workload == "ingest") {
    gb::workload_ingest(options, result);
  } else if (options.workload == "refresh") {
    gb::workload_refresh(options, result);
  } else {
    gb::workload_query(options, result);
  }
  const auto steal_after = gb::cpu_steal_jiffies();
  const double steal_share =
      steal_after.second > steal_before.second
          ? static_cast<double>(steal_after.first - steal_before.first) /
                static_cast<double>(steal_after.second - steal_before.second)
          : 0.0;

  if (options.trace && !options.trace_dir.empty()) {
    std::error_code ignored;
    std::filesystem::create_directories(options.trace_dir, ignored);
    const std::string path = options.trace_dir + "/trace-" +
                             options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    if (gb::trace::write_json(gb::trace::collect(), path)) {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
  }

  for (const auto& [name, value] : result.notes) {
    std::printf("%s = %s\n", name.c_str(), json_number(value).c_str());
  }
  std::printf(
      "host: {\"hardware_threads\":%u,\"build_type\":%s,"
      "\"cpu_steal_share\":%s,\"archive_fs\":%s,\"zstd\":%s}\n",
      gb::hardware_threads(), json_string(GILLBENCH_BUILD_TYPE).c_str(),
      json_number(steal_share).c_str(),
      json_string(gb::filesystem_type(options.workdir)).c_str(),
      GILLBENCH_HAVE_ZSTD ? "true" : "false");

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    json += first ? "" : ", ";
    json += json_string(name) + ": {\"value\": " +
            json_number(metric.first) + ", \"unit\": " +
            json_string(metric.second) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
