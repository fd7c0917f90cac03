// The one writer of the BENCH_*.json documents that tools/perf_gate.py
// compares against the committed baselines.
//
// A document is {label, host: {cpus, model, ...}, rows: [...]}, one row per
// measured value: {name, metric, unit, value}, keyed by (name, metric).
// Metrics read off the host clock are named wall_*; every other metric is
// a virtual-time, count, byte or QoE figure, deterministic per build. A
// committed baseline adds a "gates" block naming the metrics it gates
// (see tools/perf_gate.py).
#ifndef GSO_BENCH_BENCH_JSON_H_
#define GSO_BENCH_BENCH_JSON_H_

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace gso::bench {

class BenchJson {
 public:
  explicit BenchJson(std::string label) : label_(std::move(label)) {}

  // One numeric row, printed with `decimals` digits after the point.
  void Add(const std::string& name, const char* metric, const char* unit,
           double value, int decimals = 0) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    AddRaw(name, metric, unit, buf);
  }

  // One row whose value is a string, e.g. a digest.
  void AddText(const std::string& name, const char* metric, const char* unit,
               const std::string& value) {
    AddRaw(name, metric, unit, Quote(value));
  }

  // One more string field of the `host` block, e.g. the vector ISA a
  // dispatched kernel runs on.
  void AddHostField(const std::string& key, const std::string& value) {
    host_fields_ += ", " + Quote(key) + ": " + Quote(value);
  }

  // Writes the document to `path`; false (reported on stderr) on failure.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"label\": %s,\n", Quote(label_).c_str());
    std::fprintf(f, "  \"host\": {\"cpus\": %u, \"model\": %s%s},\n",
                 std::thread::hardware_concurrency(),
                 Quote(CpuModel()).c_str(), host_fields_.c_str());
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  void AddRaw(const std::string& name, const char* metric, const char* unit,
              const std::string& value) {
    rows_.push_back("{\"name\": " + Quote(name) + ", \"metric\": " +
                    Quote(metric) + ", \"unit\": " + Quote(unit) +
                    ", \"value\": " + value + "}");
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  // The "model name" line of /proc/cpuinfo, or "unknown".
  static std::string CpuModel() {
    std::string model = "unknown";
    std::FILE* f = std::fopen("/proc/cpuinfo", "r");
    if (f == nullptr) return model;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "model name", 10) != 0) continue;
      const char* colon = std::strchr(line, ':');
      if (colon == nullptr) continue;
      model = colon + 1;
      model.erase(0, model.find_first_not_of(" \t"));
      model.erase(model.find_last_not_of(" \t\n") + 1);
      break;
    }
    std::fclose(f);
    return model;
  }

  std::string label_;
  std::string host_fields_;  // ", key: value" pairs after cpus and model
  std::vector<std::string> rows_;  // each row already formatted as JSON
};

}  // namespace gso::bench

#endif  // GSO_BENCH_BENCH_JSON_H_
