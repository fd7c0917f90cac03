// Locks the gso.metrics JSONL export format. The schema is a contract with
// external tooling (plot scripts, bench_smoke.sh): field names, units and
// ordering must not drift without bumping obs::kSchemaVersion.
#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "conference/scenarios.h"
#include "obs/metrics.h"

namespace gso::obs {
namespace {

TEST(ExportSchema, GoldenJsonLines) {
  MetricsRegistry registry;
  Metric* rate = registry.Get("transport.bwe.target", MetricKind::kGauge,
                              "bps", LabelClient(3));
  Metric* stalls =
      registry.Get("media.stall.intervals", MetricKind::kCounter, "intervals");
  rate->Record(Timestamp::Millis(200), 300000);
  stalls->Add(Timestamp::Millis(200), 1);
  rate->Record(Timestamp::Millis(400), 512500.5);

  // The exact bytes are the contract: meta first, then series descriptors
  // in id order, then samples sorted by (t_us, id).
  const std::string expected =
      "{\"type\":\"meta\",\"schema\":\"gso.metrics\",\"version\":1,"
      "\"series\":2,\"samples\":3}\n"
      "{\"type\":\"series\",\"id\":0,\"name\":\"transport.bwe.target\","
      "\"kind\":\"gauge\",\"unit\":\"bps\",\"labels\":{\"client\":\"3\"}}\n"
      "{\"type\":\"series\",\"id\":1,\"name\":\"media.stall.intervals\","
      "\"kind\":\"counter\",\"unit\":\"intervals\",\"labels\":{}}\n"
      "{\"type\":\"sample\",\"id\":0,\"t_us\":200000,\"v\":300000}\n"
      "{\"type\":\"sample\",\"id\":1,\"t_us\":200000,\"v\":1}\n"
      "{\"type\":\"sample\",\"id\":0,\"t_us\":400000,\"v\":512500.5}\n";
  EXPECT_EQ(ToJsonLines(registry), expected);
}

TEST(ExportSchema, GoldenCsv) {
  MetricsRegistry registry;
  Metric* rate = registry.Get("transport.bwe.target", MetricKind::kGauge,
                              "bps", LabelClient(3));
  rate->Record(Timestamp::Millis(200), 300000);
  const std::string expected =
      "name,labels,t_us,value\n"
      "transport.bwe.target,client=3,200000,300000\n";
  EXPECT_EQ(ToCsv(registry), expected);
}

// CSV rows are globally sorted by (t_us, series id) — the same order as the
// JSONL sample stream — so the streaming exporter can append rows
// incrementally and still produce the one-shot bytes.
TEST(ExportSchema, GoldenCsvSortsRowsByTimeThenId) {
  MetricsRegistry registry;
  Metric* rate = registry.Get("transport.bwe.target", MetricKind::kGauge,
                              "bps", LabelClient(3));
  Metric* stalls =
      registry.Get("media.stall.intervals", MetricKind::kCounter, "intervals");
  rate->Record(Timestamp::Millis(200), 300000);
  stalls->Add(Timestamp::Millis(100), 1);
  stalls->Add(Timestamp::Millis(200), 1);
  const std::string expected =
      "name,labels,t_us,value\n"
      "media.stall.intervals,,100000,1\n"
      "transport.bwe.target,client=3,200000,300000\n"
      "media.stall.intervals,,200000,2\n";
  EXPECT_EQ(ToCsv(registry), expected);
}

TEST(ExportSchema, EscapesJsonStrings) {
  MetricsRegistry registry;
  registry.Get("x", MetricKind::kGauge, "a\"b\\c\n", {{"k", "v\t"}});
  const std::string out = ToJsonLines(registry);
  EXPECT_NE(out.find("\"unit\":\"a\\\"b\\\\c\\n\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"labels\":{\"k\":\"v\\t\"}"), std::string::npos) << out;
}

// End-to-end: a short degrading meeting must export a Fig-8-style trace —
// at least 8 distinct series spanning all three planes, every expected
// stream name with its locked unit present, and per-series virtual
// timestamps monotone non-decreasing.
TEST(ExportSchema, ConferenceExportSpansThreePlanes) {
  using namespace gso::conference;
  MetricsRegistry registry;
  ConferenceConfig config;
  config.metrics = &registry;
  auto conference = BuildMeeting(config, 3);
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(8));
  conference->participant(ClientId(3)).SetDownlinkCapacity(DataRate::KilobitsPerSec(600));
  conference->RunFor(TimeDelta::Seconds(4));

  // Locked (name, unit) pairs: renaming or re-uniting any of these breaks
  // downstream consumers and requires a schema version bump.
  const std::map<std::string, std::string> expected_units = {
      {"transport.bwe.target", "bps"},
      {"transport.bwe.loss", "fraction"},
      {"transport.pacer.queue", "packets"},
      {"transport.pacer.queue_delay", "us"},
      {"media.encoder.target", "bps"},
      {"media.jitter.frames_decoded", "frames"},
      {"media.jitter.frames_dropped", "frames"},
      {"media.stall.intervals", "intervals"},
      {"media.receive.rate", "bps"},
      {"control.gtbr.received", "messages"},
      {"control.gtbr.node_retransmissions", "messages"},
      {"control.gtbr.retries", "count"},
      {"control.gtbr.timeouts", "count"},
      {"control.gtbr.stale_acks", "count"},
      {"control.reports.aged_out", "count"},
      {"control.solve.interval", "us"},
      {"control.solve.iterations", "count"},
      {"control.solve.knapsacks", "count"},
      {"control.solve.reductions", "count"},
      {"control.solve.wall", "us"},
      {"control.solve.dirty_subscribers", "count"},
      {"control.solve.cache_hits", "count"},
      {"control.conference.participants", "count"},
      {"gso.robustness.controller_crashes", "count"},
      {"gso.robustness.controller_restarts", "count"},
      {"gso.robustness.reconstruction_latency", "us"},
      {"gso.robustness.resolves_after_restart", "count"},
      {"gso.robustness.rehomed_participants", "count"},
      {"gso.robustness.node_failovers", "count"},
      {"gso.robustness.node_degraded", "bool"},
      {"gso.robustness.client_degraded", "bool"},
      {"gso.robustness.time_in_degraded", "us"},
  };
  std::set<std::string> planes;
  std::set<std::string> names;
  for (const auto& metric : registry.metrics()) {
    names.insert(metric->name());
    planes.insert(metric->name().substr(0, metric->name().find('.')));
    const auto it = expected_units.find(metric->name());
    ASSERT_NE(it, expected_units.end()) << "unexpected series " << metric->name();
    EXPECT_EQ(metric->unit(), it->second) << metric->name();
  }
  for (const auto& [name, unit] : expected_units) {
    EXPECT_TRUE(names.count(name)) << "missing series " << name << " (" << unit
                                   << ")";
  }
  EXPECT_GE(names.size(), 8u);
  EXPECT_EQ(planes,
            (std::set<std::string>{"transport", "media", "control", "gso"}));

  // Replay the exported sample lines: per-series t_us monotone.
  const std::string out = ToJsonLines(registry);
  std::istringstream stream(out);
  std::string line;
  std::map<int, int64_t> last_t;
  int sample_lines = 0;
  while (std::getline(stream, line)) {
    int id = -1;
    long long t_us = -1;
    if (std::sscanf(line.c_str(), "{\"type\":\"sample\",\"id\":%d,\"t_us\":%lld",
                    &id, &t_us) == 2) {
      ++sample_lines;
      const auto it = last_t.find(id);
      if (it != last_t.end()) {
        EXPECT_GE(t_us, it->second) << line;
      }
      last_t[id] = t_us;
    }
  }
  EXPECT_GT(sample_lines, 0);
}

// ---------------------------------------------------------------------------
// Streaming export parity: MetricsStreamWriter must produce the exact bytes
// of the one-shot exporters while keeping only un-flushed samples resident.

// Records an interleaved workload with (t_us, id) ties, counter folds, and
// same-instant bursts — the cases where streaming order could diverge.
// `checkpoint` is invoked at the flush instants a soak harness would use.
template <typename CheckpointFn>
void RecordStreamedWorkload(MetricsRegistry& registry, CheckpointFn checkpoint) {
  Metric* rate = registry.Get("transport.bwe.target", MetricKind::kGauge,
                              "bps", LabelClient(3));
  Metric* stalls =
      registry.Get("media.stall.intervals", MetricKind::kCounter, "intervals");
  rate->Record(Timestamp::Millis(100), 300000);
  stalls->Add(Timestamp::Millis(100), 1);
  rate->Record(Timestamp::Millis(200), 512500.5);
  checkpoint(Timestamp::Millis(200));  // samples at exactly 200ms stay behind
  stalls->Add(Timestamp::Millis(200), 2);
  rate->Record(Timestamp::Millis(250), 400000);
  rate->Record(Timestamp::Millis(250), 410000);  // same-instant burst
  checkpoint(Timestamp::Millis(300));
  // A series first seen after earlier flushes: ids stay dense, header at
  // Close() covers it.
  Metric* late = registry.Get("control.solve.wall", MetricKind::kSeries, "us");
  late->Record(Timestamp::Millis(350), 42);
  stalls->Add(Timestamp::Millis(400), 1);
  checkpoint(Timestamp::Millis(400));
  rate->Record(Timestamp::Millis(450), 350000);
}

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string contents;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  return contents;
}

TEST(StreamingExport, JsonLinesByteIdenticalToOneShot) {
  MetricsRegistry oneshot;
  RecordStreamedWorkload(oneshot, [](Timestamp) {});
  const std::string expected = ToJsonLines(oneshot);

  MetricsRegistry streamed;
  const std::string path = testing::TempDir() + "/stream_parity.jsonl";
  MetricsStreamWriter writer(path, MetricsStreamWriter::Format::kJsonLines);
  size_t peak_resident = 0;
  RecordStreamedWorkload(streamed, [&](Timestamp up_to) {
    ASSERT_TRUE(writer.Flush(streamed, up_to));
    peak_resident = std::max(peak_resident, streamed.total_samples());
  });
  ASSERT_TRUE(writer.Close(streamed));

  EXPECT_EQ(ReadFileOrDie(path), expected);
  // Flushes actually evicted: fewer samples were ever resident than the
  // whole run recorded.
  EXPECT_LT(peak_resident, streamed.total_recorded_samples());
  EXPECT_EQ(writer.samples_flushed(), streamed.total_recorded_samples());
  std::remove(path.c_str());
}

TEST(StreamingExport, CsvByteIdenticalToOneShot) {
  MetricsRegistry oneshot;
  RecordStreamedWorkload(oneshot, [](Timestamp) {});
  const std::string expected = ToCsv(oneshot);

  MetricsRegistry streamed;
  const std::string path = testing::TempDir() + "/stream_parity.csv";
  MetricsStreamWriter writer(path, MetricsStreamWriter::Format::kCsv);
  RecordStreamedWorkload(streamed, [&](Timestamp up_to) {
    ASSERT_TRUE(writer.Flush(streamed, up_to));
  });
  ASSERT_TRUE(writer.Close(streamed));

  EXPECT_EQ(ReadFileOrDie(path), expected);
  std::remove(path.c_str());
}

// Zeroes the "v" payload of sample lines whose series id is in `ids`:
// control.solve.wall records host wall-clock, the one stream that two
// otherwise deterministic runs legitimately disagree on.
std::string MaskSampleValues(const std::string& jsonl,
                             const std::set<int>& ids) {
  std::istringstream stream(jsonl);
  std::string line;
  std::string out;
  while (std::getline(stream, line)) {
    int id = -1;
    if (std::sscanf(line.c_str(), "{\"type\":\"sample\",\"id\":%d,", &id) == 1 &&
        ids.count(id) > 0) {
      const size_t v = line.find("\"v\":");
      if (v != std::string::npos) line = line.substr(0, v) + "\"v\":0}";
    }
    out += line;
    out += '\n';
  }
  return out;
}

std::set<int> WallSeriesIds(const MetricsRegistry& registry) {
  std::set<int> ids;
  for (const auto& metric : registry.metrics()) {
    if (metric->name() == "control.solve.wall") ids.insert(metric->id());
  }
  return ids;
}

// A full meeting streamed with periodic flushes must byte-match the same
// meeting exported one-shot (the simulation is deterministic, so two runs
// record identical samples — except wall-clock values, masked above).
TEST(StreamingExport, ConferenceRunByteIdenticalToOneShot) {
  using namespace gso::conference;
  std::string expected;
  {
    MetricsRegistry registry;
    ConferenceConfig config;
    config.metrics = &registry;
    auto conference = BuildMeeting(config, 3);
    conference->Start();
    conference->RunFor(TimeDelta::Seconds(6));
    expected = MaskSampleValues(ToJsonLines(registry), WallSeriesIds(registry));
  }

  MetricsRegistry registry;
  ConferenceConfig config;
  config.metrics = &registry;
  auto conference = BuildMeeting(config, 3);
  const std::string path = testing::TempDir() + "/stream_conf.jsonl";
  MetricsStreamWriter writer(path, MetricsStreamWriter::Format::kJsonLines);
  conference->Start();
  for (int i = 0; i < 6; ++i) {
    conference->RunFor(TimeDelta::Seconds(1));
    ASSERT_TRUE(writer.Flush(registry, conference->loop().Now()));
  }
  ASSERT_TRUE(writer.Close(registry));

  EXPECT_EQ(MaskSampleValues(ReadFileOrDie(path), WallSeriesIds(registry)),
            expected);
  std::remove(path.c_str());
}

TEST(StreamingExport, CounterTotalSurvivesDrain) {
  MetricsRegistry registry;
  Metric* counter = registry.Get("c", MetricKind::kCounter, "count");
  counter->Add(Timestamp::Millis(1), 5);
  std::vector<Sample> drained;
  EXPECT_EQ(counter->Drain(Timestamp::Millis(10), &drained), 1u);
  EXPECT_TRUE(counter->samples().empty());
  EXPECT_EQ(counter->last_value(), 5.0);
  counter->Add(Timestamp::Millis(20), 2);
  EXPECT_EQ(counter->last_value(), 7.0);
  // A straggler recorded behind the drain floor is clamped onto it so the
  // already-flushed stream stays sorted.
  counter->Record(Timestamp::Millis(5), 9);
  EXPECT_EQ(counter->samples().back().time, Timestamp::Millis(20));
  EXPECT_EQ(counter->total_recorded(), 3u);
  EXPECT_EQ(counter->drained(), 1u);
}

}  // namespace
}  // namespace gso::obs
