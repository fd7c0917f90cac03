// Benchmark binary: runs one workload and prints a text report
// followed by one JSON line that perfbench/run.py turns into the result.
//
// Usage: gso_perfbench --workload NAME --seed N --seconds S
//
// Built twice from the same sources: gso_perfbench (untraced) and
// gso_perfbench_traced, which adds the counting allocator and turns on the
// observability registry so the per-layer metrics can be read.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using namespace gso::perfbench;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(metric.value) + ", \"unit\": " + JsonString(metric.unit) +
           ", \"samples\": " + std::to_string(metric.samples) + "}";
    first = false;
  }
  return out + "}";
}

void PrintText(const std::string& heading,
               const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", heading.c_str());
  for (const auto& [name, metric] : metrics) {
    if (metric.samples > 0) {
      std::printf("  %-36s %14.6g %-14s (n=%llu)\n", name.c_str(),
                  metric.value, metric.unit.c_str(),
                  static_cast<unsigned long long>(metric.samples));
    } else {
      std::printf("  %-36s %14.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
}

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "%s\nusage: gso_perfbench --workload "
               "meeting_mesh|controller_replay|fleet_storm --seed N "
               "--seconds S\n",
               problem);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
#if defined(GSO_PERFBENCH_TRACED)
  options.traced = true;
#endif
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') Usage("invalid --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0)) {
        Usage("invalid --seconds");
      }
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }

  Result result;
  if (options.workload == "meeting_mesh") {
    result = RunMeetingMesh(options);
  } else if (options.workload == "controller_replay") {
    result = RunControllerReplay(options);
  } else if (options.workload == "fleet_storm") {
    result = RunFleetStorm(options);
  } else {
    Usage("unknown --workload");
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB on Linux.
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (!options.traced) result.Set("peak_rss_mb", peak_rss_mb, "MB");
  result.Report("peak_rss_mb", peak_rss_mb, "MB");
  const unsigned host_cpus = std::thread::hardware_concurrency();

  std::printf("workload %s  seed %llu  traced %d  host_cpus %u\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.traced ? 1 : 0, host_cpus);
  PrintText("figures:", result.report);
  PrintText(options.traced ? "per-layer metrics:" : "end-to-end metrics:",
            result.metrics);
  for (const std::string& failure : result.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  std::string checks = "{";
  bool first = true;
  for (const auto& [name, value] : result.checks) {
    checks += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  checks += "}";
  std::string failures = "[";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    failures += (i ? ", " : "") + JsonString(result.failures[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %s, \"host_cpus\": %u, "
      "\"attempted\": %llu, \"failed\": %llu, \"checks\": %s, "
      "\"failures\": %s, \"metrics\": %s, \"report\": %s}\n",
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      options.traced ? "true" : "false", host_cpus,
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), checks.c_str(),
      failures.c_str(), MetricsJson(result.metrics).c_str(),
      MetricsJson(result.report).c_str());
  return 0;
}
