// Windowed time-series recorder (obs/timeseries.hpp) and the offline drift
// analyzer (`icc_inspect drift`).
//
// The load-bearing contract: the deterministic series lines (meta + windows)
// are BYTE-IDENTICAL for a given seed at any thread count and the recorder
// never perturbs the run — journal and metrics bytes are unchanged whether
// the series is on or off. The drift analyzer (path injected via
// ICC_INSPECT_BIN) pins the exit-code contract: 0 clean, 1 when --check trips
// a detector (named in the report), 2 on usage/IO/malformed input.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "obs/timeseries.hpp"
#include "test_paths.hpp"

namespace {
using namespace icc;
using testing_paths::test_path;

harness::ClusterOptions base_options(harness::Protocol p, size_t threads, bool series) {
  harness::ClusterOptions o;
  o.n = 4;
  o.t = 1;
  o.protocol = p;
  o.seed = 77;
  o.threads = threads;
  o.obs.enabled = true;
  o.obs.series = series;
  o.obs.series_window_us = 2'000'000;
  o.obs.series_wall = false;  // only the deterministic lines in these tests
  return o;
}

std::string series_bytes(harness::Protocol p, size_t threads) {
  harness::Cluster c(base_options(p, threads, true));
  c.run_for(sim::seconds(30));
  return c.series_jsonl();
}

// Same seed => same series bytes at 1, 2 and 8 threads, for every protocol.
// This is the journal contract extended to the longitudinal stream.
TEST(TimeSeriesTest, BytesIdenticalAcrossThreadCounts) {
  for (harness::Protocol p : {harness::Protocol::kIcc0, harness::Protocol::kIcc1,
                              harness::Protocol::kIcc2}) {
    const std::string t1 = series_bytes(p, 1);
    ASSERT_FALSE(t1.empty());
    EXPECT_EQ(t1, series_bytes(p, 2)) << "protocol " << static_cast<int>(p);
    EXPECT_EQ(t1, series_bytes(p, 8)) << "protocol " << static_cast<int>(p);
  }
}

// Recording the series must not change the run: metrics bytes (which cover
// every counter/gauge/histogram the windows diff) are identical on/off, at
// any thread count.
TEST(TimeSeriesTest, MetricsBytesUnchangedBySeries) {
  for (harness::Protocol p : {harness::Protocol::kIcc0, harness::Protocol::kIcc1,
                              harness::Protocol::kIcc2}) {
    std::string with, without;
    for (size_t threads : {size_t{1}, size_t{8}}) {
      {
        harness::Cluster c(base_options(p, threads, true));
        c.run_for(sim::seconds(20));
        with = c.metrics_json();
      }
      {
        harness::Cluster c(base_options(p, threads, false));
        c.run_for(sim::seconds(20));
        without = c.metrics_json();
      }
      EXPECT_EQ(with, without) << "protocol " << static_cast<int>(p) << " threads "
                               << threads;
    }
  }
}

// The run drains completely (max_round) before the trailing boundaries
// fire, so every counter increment falls inside some closed window: the
// per-window deltas must sum exactly to the final cumulative counters, and
// the dedup'd per-window round counts (with their leader splits) must be
// consistent. (Without the drain, events at exactly the run deadline land
// after the last closed window — by design, a boundary at B closes before
// events at B run.)
TEST(TimeSeriesTest, WindowDeltasSumToFinalCounters) {
  harness::ClusterOptions o = base_options(harness::Protocol::kIcc0, 1, true);
  o.max_round = 400;
  harness::Cluster c(o);
  c.run_for(sim::seconds(60));
  const obs::TimeSeries::Parsed parsed = obs::TimeSeries::parse_jsonl(c.series_jsonl());
  ASSERT_TRUE(parsed.has_meta);
  ASSERT_FALSE(parsed.windows.empty());

  uint64_t rounds_sum = 0, committed_sum = 0, leaders_sum = 0;
  int64_t last_start = -1;
  for (const auto& w : parsed.windows) {
    EXPECT_GT(w.start_us, last_start) << "windows must be time-ordered";
    last_start = w.start_us;
    rounds_sum += w.rounds;
    for (const auto& [party, led] : w.leaders) {
      EXPECT_LT(party, 4u);
      leaders_sum += led;
    }
    for (const auto& [name, delta] : w.counters) {
      EXPECT_GT(delta, 0u) << name << ": zero deltas must be omitted";
      if (name == "consensus.blocks_committed") committed_sum += delta;
    }
  }
  EXPECT_EQ(leaders_sum, rounds_sum) << "every dedup'd round has one leader";

  const obs::Registry& r = c.obs()->registry();
  EXPECT_EQ(committed_sum, r.find_counter("consensus.blocks_committed")->value());
  // Each of the 4 honest parties reports every round; the series counts each
  // round once.
  EXPECT_EQ(rounds_sum * 4, r.find_counter("consensus.rounds")->value());
}

// With a small full-res budget, old windows decimate 10-into-1; the exported
// sequence must stay time-ordered with the merged windows carrying res=10^k
// and total coverage equal to everything that closed.
TEST(TimeSeriesTest, HierarchicalDecimationKeepsCoverage) {
  harness::ClusterOptions o = base_options(harness::Protocol::kIcc0, 1, true);
  o.obs.series_window_us = 1'000'000;
  o.obs.series_full_res = 16;
  harness::Cluster c(o);
  c.run_for(sim::seconds(200));

  obs::TimeSeries* ts = c.series();
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->windows_closed(), 200u);

  uint64_t coverage = 0;
  int64_t last_start = -1;
  bool saw_merged = false;
  uint64_t prev_res = UINT64_MAX;
  for (const obs::SeriesWindow* w : ts->windows()) {
    EXPECT_GT(w->start_us, last_start);
    last_start = w->start_us;
    EXPECT_LE(w->res, prev_res) << "older windows are coarser, never finer";
    prev_res = w->res;
    coverage += w->res;
    if (w->res > 1) {
      saw_merged = true;
      EXPECT_EQ(w->res % 10, 0u) << "merges are exactly 10-into-1";
      EXPECT_EQ(w->end_us - w->start_us,
                static_cast<int64_t>(w->res) * o.obs.series_window_us);
    }
  }
  EXPECT_TRUE(saw_merged);
  EXPECT_EQ(coverage, ts->windows_closed());
  // The in-memory footprint stays near the budget instead of growing with
  // the run: 200 base windows fit in two levels of <= 16 entries each.
  EXPECT_LE(ts->windows().size(), 2 * o.obs.series_full_res);
}

// The stream sink sees every full-resolution window as it closes; with a
// large enough in-memory budget (no decimation) the file must equal the
// in-memory export byte for byte.
TEST(TimeSeriesTest, StreamMatchesInMemoryExport) {
  const std::string path = test_path("stream.jsonl");
  harness::ClusterOptions o = base_options(harness::Protocol::kIcc0, 2, true);
  harness::Cluster c(o);
  ASSERT_TRUE(c.stream_series(path));
  c.run_for(sim::seconds(30));
  c.series()->flush();
  EXPECT_EQ(c.series()->dropped(), 0u);

  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), c.series_jsonl());
}

TEST(TimeSeriesTest, ParseRoundTrip) {
  harness::Cluster c(base_options(harness::Protocol::kIcc2, 1, true));
  c.run_for(sim::seconds(30));
  const std::string text = c.series_jsonl();
  const obs::TimeSeries::Parsed parsed = obs::TimeSeries::parse_jsonl(text);
  ASSERT_TRUE(parsed.has_meta);
  EXPECT_EQ(parsed.meta.n, 4u);
  EXPECT_EQ(parsed.meta.t, 1u);
  EXPECT_EQ(parsed.meta.protocol, "icc2");
  EXPECT_EQ(parsed.meta.seed, 77u);
  EXPECT_EQ(parsed.meta.window_us, 2'000'000);
  EXPECT_EQ(parsed.windows.size(), c.series()->windows().size());
  for (size_t i = 0; i < parsed.windows.size(); ++i) {
    const obs::SeriesWindow* w = c.series()->windows()[i];
    EXPECT_EQ(parsed.windows[i].seq, w->seq);
    EXPECT_EQ(parsed.windows[i].rounds, w->rounds);
    EXPECT_EQ(parsed.windows[i].counters, w->counters);
    EXPECT_EQ(parsed.windows[i].leaders, w->leaders);
  }
}

// Names go through the shared escaper and reader: quotes, backslashes,
// newlines and key-like text inside a counter name survive the round trip.
TEST(TimeSeriesTest, CounterNameWithJsonSyntaxRoundTrips) {
  const std::string name = "odd \"name\" \\ \n\"round\":7";
  obs::Registry registry;
  obs::TimeSeries series(&registry, obs::SeriesConfig{});
  registry.counter(name).add(3);
  series.on_boundary(1'000'000);
  const obs::TimeSeries::Parsed parsed = obs::TimeSeries::parse_jsonl(series.to_jsonl());
  ASSERT_EQ(parsed.error, "");
  ASSERT_EQ(parsed.windows.size(), 1u);
  EXPECT_EQ(parsed.windows[0].counters,
            (std::vector<std::pair<std::string, uint64_t>>{{name, 3}}));
}

// ---------------------------------------------------------------------------
// `icc_inspect drift` exit-code contract, as a real subprocess.

const std::string kDrift = std::string(ICC_INSPECT_BIN) + " drift";

int run_tool(const std::string& cmd) {
  int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WEXITSTATUS(status);
}

std::string run_tool_stdout(const std::string& cmd, const std::string& out_path) {
  int status = std::system((cmd + " >" + out_path + " 2>/dev/null").c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  std::ifstream in(out_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// A synthetic 60-window series: steady rounds and leaders unless biased,
/// flat RSS unless ramped. Shapes the exact failure each detector hunts.
std::string synth_series(bool rss_ramp, bool biased_leader) {
  std::ostringstream s;
  s << "{\"type\":\"meta\",\"schema\":\"icc-series/v1\",\"n\":4,\"t\":1,"
       "\"protocol\":\"icc0\",\"seed\":1,\"window_us\":1000000,\"full_res\":512,"
       "\"wall\":1,\"corrupt\":[]}\n";
  for (int i = 0; i < 60; ++i) {
    const int total = 40;
    const int p0 = biased_leader ? 28 : 10;
    const int rest = (total - p0) / 3;
    s << "{\"type\":\"w\",\"seq\":" << i << ",\"start_us\":" << i * 1000000
      << ",\"end_us\":" << (i + 1) * 1000000
      << ",\"res\":1,\"rounds\":" << total << ",\"leader_block\":" << total
      << ",\"clean\":" << total << ",\"honest_leader\":" << total
      << ",\"corrupt_leader\":0,\"leaders\":[[0," << p0 << "],[1," << rest
      << "],[2," << rest << "],[3," << total - p0 - 2 * rest
      << "]],\"counters\":{\"consensus.blocks_committed\":" << total * 4
      << "},\"gauges\":{},\"hist\":{\"consensus.finalize_us\":{\"count\":" << total
      << ",\"sum\":" << total * 30000
      << ",\"p50\":30000,\"p90\":31000,\"p99\":32000,\"max_le\":32000}}}\n";
    const long rss = rss_ramp ? 100000 + i * 5000 : 100000 + (i % 3) * 16;
    s << "{\"type\":\"wall\",\"seq\":" << i << ",\"rss_kb\":" << rss
      << ",\"peak_rss_kb\":" << rss << ",\"dropped\":0}\n";
  }
  return s.str();
}

// 0: a real (clean) soak series passes --check.
TEST(DriftToolTest, CleanRunPasses) {
  const std::string path = test_path("clean_series.jsonl");
  harness::ClusterOptions o = base_options(harness::Protocol::kIcc0, 1, true);
  o.obs.series_window_us = 1'000'000;
  o.obs.series_wall = true;  // exercise the wall lines + RSS detector
  harness::Cluster c(o);
  ASSERT_TRUE(c.stream_series(path));
  c.run_for(sim::seconds(60));
  c.series()->flush();
  EXPECT_EQ(run_tool(kDrift + " " + path + " --check"), 0);
}

// 1: an RSS ramp trips --check, and the report names the rss detector.
TEST(DriftToolTest, RssRampFailsNamingDetector) {
  const std::string path = test_path("rss_ramp.jsonl");
  write_file(path, synth_series(true, false));
  const std::string report = run_tool_stdout(
      kDrift + " " + path + " --check --quiet", test_path("rss.out"));
  EXPECT_EQ(run_tool(kDrift + " " + path + " --check"), 1);
  EXPECT_NE(report.find("\"failed\":[\"rss\"]"), std::string::npos) << report;
}

// 1: a beacon-bias (one party leading far too often) trips the chi-square
// uniformity detector by name.
TEST(DriftToolTest, BiasedLeaderFailsNamingDetector) {
  const std::string path = test_path("biased.jsonl");
  write_file(path, synth_series(false, true));
  const std::string report = run_tool_stdout(
      kDrift + " " + path + " --check --quiet",
      test_path("biased.out"));
  EXPECT_EQ(run_tool(kDrift + " " + path + " --check"), 1);
  EXPECT_NE(report.find("\"leaders\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"failed\":[\"leaders\"]"), std::string::npos) << report;
}

// The same synthetic stream without the injected defect passes: the
// detectors respond to the defect, not to the fixture's shape.
TEST(DriftToolTest, SynthBaselinePasses) {
  const std::string path = test_path("synth_clean.jsonl");
  write_file(path, synth_series(false, false));
  EXPECT_EQ(run_tool(kDrift + " " + path + " --check"), 0);
}

// 2: usage, missing file, malformed bytes.
TEST(DriftToolTest, MalformedInputsExitTwo) {
  EXPECT_EQ(run_tool(kDrift), 2);
  EXPECT_EQ(run_tool(kDrift + " " + test_path("missing.jsonl")), 2);
  const std::string bad = test_path("malformed.jsonl");
  write_file(bad, "this is not a series\n");
  EXPECT_EQ(run_tool(kDrift + " " + bad), 2);
  // A stream with a meta line but no windows is unusable for trend analysis.
  const std::string empty = test_path("empty.jsonl");
  write_file(empty,
             "{\"type\":\"meta\",\"schema\":\"icc-series/v1\",\"n\":4,\"t\":1,"
             "\"protocol\":\"icc0\",\"seed\":1,\"window_us\":1000000,"
             "\"full_res\":512,\"wall\":0,\"corrupt\":[]}\n");
  EXPECT_EQ(run_tool(kDrift + " " + empty), 2);
  EXPECT_EQ(run_tool(kDrift + " " + empty + " --bogus"), 2);
}

}  // namespace
