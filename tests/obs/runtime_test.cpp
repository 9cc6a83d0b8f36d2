// The runtime observatory's two contracts (obs/runtime.hpp):
//
//  1. It is observation-only: flipping obs.runtime on, at any thread count,
//     must not move a single byte of the deterministic outputs (journal
//     JSONL, metrics JSON). This is the determinism exemption's other half —
//     the profiler may be non-deterministic precisely because nothing it
//     does feeds back into the run.
//  2. Its own artifacts are well-formed under stress: an overflowing span
//     ring reports `spans_dropped` instead of corrupting and leaves the
//     per-kind totals exact, the icc-runtime/v1
//     document round-trips through parse_runtime_report, and the offline
//     tool (`icc_inspect runtime`, path injected via ICC_INSPECT_BIN) pins the
//     CI exit-code contract: 0 clean, 1 failed --check, 2 usage/I-O/parse.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "obs/runtime.hpp"
#include "test_paths.hpp"

namespace icc {
namespace {
using testing_paths::test_path;

const std::string kRuntime = std::string(ICC_INSPECT_BIN) + " runtime";

struct DeterministicBytes {
  std::string journal;
  std::string metrics;
};

harness::ClusterOptions base_options(size_t threads, bool runtime) {
  harness::ClusterOptions o;
  o.n = 8;
  o.t = 2;
  o.seed = 5;
  o.protocol = harness::Protocol::kIcc0;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 128;
  o.threads = threads;
  o.obs.enabled = true;
  o.obs.journal = true;
  o.obs.runtime = runtime;
  o.delay_model = [](size_t, uint64_t) {
    return std::make_unique<sim::FixedDelay>(sim::msec(10));
  };
  return o;
}

DeterministicBytes run_and_export(size_t threads, bool runtime) {
  harness::Cluster c(base_options(threads, runtime));
  c.run_for(sim::seconds(3));
  EXPECT_EQ(c.check_safety(), std::nullopt);
  EXPECT_GT(c.min_honest_committed(), 0u);
  return {c.journal_jsonl(), c.metrics_json()};
}

// Contract 1: the profiler never perturbs the deterministic byte streams.
// Reference = profiler off at 1 thread; every (runtime, threads) combination
// must reproduce it exactly.
TEST(RuntimeDeterminism, JournalAndMetricsBytesUnchangedByProfiler) {
  const DeterministicBytes ref = run_and_export(1, false);
  ASSERT_FALSE(ref.journal.empty());
  ASSERT_NE(ref.metrics, "{}");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (bool runtime : {false, true}) {
      if (threads == 1 && !runtime) continue;  // the reference itself
      const DeterministicBytes got = run_and_export(threads, runtime);
      EXPECT_EQ(got.journal, ref.journal)
          << "journal bytes moved at threads=" << threads
          << " runtime=" << runtime;
      EXPECT_EQ(got.metrics, ref.metrics)
          << "metrics bytes moved at threads=" << threads
          << " runtime=" << runtime;
    }
  }
}

// The profiler only exists when both obs.enabled and obs.runtime are set;
// everywhere else the instrumentation sites see a null pointer.
TEST(RuntimeProfilerTest, NullUnlessEnabled) {
  {
    harness::ClusterOptions o = base_options(1, false);
    harness::Cluster c(o);
    EXPECT_EQ(c.runtime(), nullptr);
    EXPECT_EQ(c.runtime_report_json(), "{}");
    EXPECT_EQ(c.runtime_trace_json(), "{}");
  }
  {
    harness::ClusterOptions o = base_options(1, true);
    o.obs.enabled = false;  // runtime flag alone must not resurrect it
    harness::Cluster c(o);
    EXPECT_EQ(c.runtime(), nullptr);
  }
}

const obs::TaskAgg& task(const obs::WorkerReport& w, obs::TaskKind kind) {
  return w.tasks[static_cast<size_t>(kind)];
}

// Contract 2a: a deliberately tiny span ring overflows and reports the loss
// in spans_dropped, but only the trace loses spans: per-kind counts and
// inclusive and exclusive totals accumulate as each span closes, so they
// cover the whole run. The report still parses.
TEST(RuntimeProfilerTest, RingOverflowSetsDroppedAndReportStillParses) {
  {
    // A known nest through a 4-slot ring: 10 x engine_batch{2 x party_group}.
    obs::RuntimeProfiler rt(4);
    for (int i = 0; i < 10; ++i) {
      obs::SpanScope outer(&rt, obs::TaskKind::kEngineBatch);
      for (int j = 0; j < 2; ++j) obs::SpanScope inner(&rt, obs::TaskKind::kPartyGroup);
    }
    const obs::RuntimeReport rep = rt.make_report();
    ASSERT_EQ(rep.workers.size(), 1u);
    const obs::WorkerReport& w = rep.workers[0];
    const obs::TaskAgg& outer = task(w, obs::TaskKind::kEngineBatch);
    const obs::TaskAgg& inner = task(w, obs::TaskKind::kPartyGroup);
    EXPECT_EQ(w.spans_recorded, 30u);
    EXPECT_EQ(w.spans_dropped, 26u);
    EXPECT_EQ(outer.count, 10u);
    EXPECT_EQ(inner.count, 20u);
    EXPECT_EQ(inner.exclusive_ns, inner.total_ns);
    EXPECT_EQ(outer.exclusive_ns, outer.total_ns - inner.total_ns);
    EXPECT_GE(outer.total_ns, inner.total_ns);
    EXPECT_LE(outer.max_ns, outer.total_ns);
    EXPECT_GE(outer.max_ns * 10, outer.total_ns);
  }

  harness::ClusterOptions o = base_options(2, true);
  o.obs.runtime_span_capacity = 4;
  harness::Cluster c(o);
  c.run_for(sim::seconds(3));
  const obs::RuntimeReport rep = c.runtime_report();
  uint64_t dropped = 0, recorded = 0;
  for (const auto& w : rep.workers) {
    dropped += w.spans_dropped;
    recorded += w.spans_recorded;
    // Every closed span is counted under its kind, not only the ring's tail.
    uint64_t counted = 0;
    int64_t exclusive = 0;
    for (const obs::TaskAgg& t : w.tasks) {
      counted += t.count;
      exclusive += t.exclusive_ns;
      EXPECT_LE(t.exclusive_ns, t.total_ns) << w.name;
    }
    EXPECT_EQ(counted, w.spans_recorded) << w.name;
    // Exclusive times partition the lane's root spans: every span on the
    // main lane runs inside an engine batch, every span on a worker inside
    // a party group.
    const obs::TaskKind root =
        w.name == "main" ? obs::TaskKind::kEngineBatch : obs::TaskKind::kPartyGroup;
    EXPECT_EQ(exclusive, task(w, root).total_ns) << w.name;
  }
  EXPECT_GT(recorded, 4u);
  EXPECT_GT(dropped, 0u) << "a 4-slot ring must overflow on a 3 s run";
  EXPECT_GT(task(rep.workers.at(0), obs::TaskKind::kEngineBatch).count, 4u);

  std::string error;
  auto parsed = obs::parse_runtime_report(c.runtime_report_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const obs::RuntimeAnalysis a = obs::analyze_runtime(*parsed);
  EXPECT_GT(a.serial_fraction, 0.0);
  EXPECT_LE(a.serial_fraction, 1.0);
}

// A profiler built at a freed profiler's address must register a fresh lane
// on a thread that used the old one, not reuse the freed lane array.
TEST(RuntimeProfilerTest, ProfilerAtReusedAddressGetsItsOwnLane) {
  alignas(obs::RuntimeProfiler) unsigned char buf[sizeof(obs::RuntimeProfiler)];
  auto* first = new (buf) obs::RuntimeProfiler(8);
  { obs::SpanScope span(first, obs::TaskKind::kEngineBatch); }
  first->~RuntimeProfiler();

  auto* second = new (buf) obs::RuntimeProfiler(8);
  ASSERT_EQ(static_cast<void*>(first), static_cast<void*>(second));
  { obs::SpanScope span(second, obs::TaskKind::kDeferReplay); }
  const obs::RuntimeReport rep = second->make_report();
  second->~RuntimeProfiler();

  ASSERT_EQ(rep.workers.size(), 1u);
  EXPECT_EQ(rep.workers[0].name, "main");
  EXPECT_EQ(rep.workers[0].spans_recorded, 1u);
  EXPECT_EQ(rep.workers[0].tasks[static_cast<size_t>(obs::TaskKind::kDeferReplay)].count, 1u);
  EXPECT_EQ(rep.workers[0].tasks[static_cast<size_t>(obs::TaskKind::kEngineBatch)].count, 0u);
}

// Contract 2b: the JSON document is an exact inverse of the report for
// every field the analysis consumes.
TEST(RuntimeProfilerTest, ReportRoundTripsThroughJson) {
  harness::ClusterOptions o = base_options(2, true);
  harness::Cluster c(o);
  c.run_for(sim::seconds(3));
  const obs::RuntimeReport rep = c.runtime_report();
  ASSERT_GT(rep.wall_ns, 0);
  ASSERT_EQ(rep.threads, 2u);
  ASSERT_FALSE(rep.workers.empty());

  std::string error;
  auto parsed = obs::parse_runtime_report(obs::runtime_report_json(rep), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->threads, rep.threads);
  EXPECT_EQ(parsed->wall_ns, rep.wall_ns);
  EXPECT_EQ(parsed->defer_high_water, rep.defer_high_water);
  EXPECT_EQ(parsed->has_intern, rep.has_intern);
  EXPECT_EQ(parsed->intern_parses, rep.intern_parses);
  ASSERT_EQ(parsed->workers.size(), rep.workers.size());
  for (size_t i = 0; i < rep.workers.size(); ++i) {
    const auto& a = parsed->workers[i];
    const auto& b = rep.workers[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.busy_ns, b.busy_ns);
    EXPECT_EQ(a.idle_ns, b.idle_ns);
    EXPECT_EQ(a.cpu_ns, b.cpu_ns);
    EXPECT_EQ(a.claimed, b.claimed);
    EXPECT_EQ(a.stolen, b.stolen);
    EXPECT_EQ(a.spans_dropped, b.spans_dropped);
    for (size_t k = 0; k < obs::kTaskKinds; ++k) {
      EXPECT_EQ(a.tasks[k].count, b.tasks[k].count);
      EXPECT_EQ(a.tasks[k].total_ns, b.tasks[k].total_ns);
      EXPECT_EQ(a.tasks[k].exclusive_ns, b.tasks[k].exclusive_ns);
    }
    for (size_t k = 0; k < obs::kLockSites; ++k) {
      EXPECT_EQ(a.locks[k].acquisitions, b.locks[k].acquisitions);
      EXPECT_EQ(a.locks[k].contended, b.locks[k].contended);
      EXPECT_EQ(a.locks[k].wait_ns, b.locks[k].wait_ns);
    }
  }
}

// Worker names go through the shared escaper and reader: quotes,
// backslashes, newlines and key-like text survive the round trip.
TEST(RuntimeParserTest, WorkerNameWithJsonSyntaxRoundTrips) {
  obs::RuntimeReport rep;
  rep.wall_ns = 1000;
  rep.workers.emplace_back().name = "odd \"name\" \\ \n\"round\":7";
  std::string error;
  auto parsed = obs::parse_runtime_report(obs::runtime_report_json(rep), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->workers.size(), 1u);
  EXPECT_EQ(parsed->workers[0].name, rep.workers[0].name);
}

TEST(RuntimeParserTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(obs::parse_runtime_report("", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::parse_runtime_report("not json at all", &error).has_value());
  EXPECT_FALSE(obs::parse_runtime_report("{\"schema\":\"icc-audit/v1\"}", &error)
                   .has_value())
      << "wrong schema must be rejected";
  // Structurally valid but meaningless documents.
  EXPECT_FALSE(obs::parse_runtime_report(
                   "{\"schema\":\"icc-runtime/v1\",\"threads\":0,"
                   "\"wall_ns\":5,\"workers\":[]}",
                   &error)
                   .has_value());
  EXPECT_FALSE(obs::parse_runtime_report(
                   "{\"schema\":\"icc-runtime/v1\",\"threads\":2,"
                   "\"wall_ns\":0,\"workers\":[]}",
                   &error)
                   .has_value());
  // Truncation anywhere must fail cleanly, never crash or accept.
  harness::ClusterOptions o = base_options(2, true);
  harness::Cluster c(o);
  c.run_for(sim::seconds(1));
  const std::string good = c.runtime_report_json();
  ASSERT_TRUE(obs::parse_runtime_report(good, &error).has_value()) << error;
  for (size_t cut : {good.size() / 4, good.size() / 2, good.size() - 2}) {
    EXPECT_FALSE(obs::parse_runtime_report(good.substr(0, cut), &error).has_value())
        << "accepted a document truncated at " << cut;
  }
}

int run_tool(const std::string& cmd) {
  int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WEXITSTATUS(status);
}

// Exit-code contract of the offline analyzer, as a real subprocess.
TEST(RuntimeToolTest, ExitCodeContract) {
  const std::string good_path = test_path("report.json");
  harness::ClusterOptions o = base_options(2, true);
  harness::Cluster c(o);
  c.run_for(sim::seconds(2));
  ASSERT_TRUE(c.dump_runtime_report(good_path));

  // 0: well-formed report, --check passes (serial fraction in (0, 1]).
  EXPECT_EQ(run_tool(kRuntime + " " + good_path), 0);
  EXPECT_EQ(run_tool(kRuntime + " " + good_path + " --check"), 0);

  // 2: usage, missing file, malformed bytes.
  EXPECT_EQ(run_tool(kRuntime), 2);
  EXPECT_EQ(run_tool(kRuntime + " " + test_path("missing.json")), 2);
  const std::string bad_path = test_path("malformed.json");
  std::ofstream(bad_path, std::ios::binary | std::ios::trunc)
      << "{\"schema\":\"icc-runtime/v1\",\"threads\":2,";
  EXPECT_EQ(run_tool(kRuntime + " " + bad_path), 2);
  EXPECT_EQ(run_tool(kRuntime + " " + good_path + " --bogus"), 2);
}

}  // namespace
}  // namespace icc
