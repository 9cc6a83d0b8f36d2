// Telemetry tests: metric primitives, the Chrome trace rendered from the
// journal, the end-to-end cluster wiring (paper-expected round/message
// counters on an all-honest run), and the on/off determinism guarantee.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/cluster.hpp"
#include "harness/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/json.hpp"
#include "test_paths.hpp"

namespace icc {
namespace {
using testing_paths::test_path;

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

TEST(Metrics, CounterMerge) {
  obs::Counter a, b;
  a.add();
  a.add(41);
  b.add(8);
  a.merge(b);
  EXPECT_EQ(a.value(), 50u);
}

TEST(Metrics, HistogramBucketsAndStats) {
  obs::Histogram h(obs::Histogram::linear(10, 4));  // le 10, 20, 30, 40
  h.record(1);
  h.record(10);   // both land in le=10
  h.record(11);   // le=20
  h.record(100);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 122);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Metrics, HistogramMergeRequiresSameBounds) {
  obs::Histogram a(obs::Histogram::linear(10, 4));
  obs::Histogram b(obs::Histogram::linear(10, 4));
  obs::Histogram c(obs::Histogram::linear(5, 4));
  a.record(5);
  b.record(15);
  b.record(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 500);
  EXPECT_EQ(a.overflow(), 1u);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Metrics, HistogramPercentileNearestBucket) {
  obs::Histogram h(obs::Histogram::linear(1, 10));
  for (int i = 0; i < 99; ++i) h.record(1);
  h.record(10);
  EXPECT_EQ(h.percentile(0.5), 1);
  EXPECT_EQ(h.percentile(0.999), 10);
}

TEST(Metrics, ExponentialBoundsStrictlyAscending) {
  auto b = obs::Histogram::exponential(1, 1.01, 32);  // tiny factor stalls
  for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

TEST(Metrics, RegistrySharesByNameAndSnapshots) {
  obs::Registry r;
  r.counter("a.events").add(3);
  r.counter("a.events").add(4);  // same object
  r.gauge("b.depth").set(-2);
  r.histogram("c.lat", obs::Histogram::linear(10, 2)).record(15);

  std::string json = r.snapshot_json();
  EXPECT_NE(json.find("\"counters\":{\"a.events\":7}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"b.depth\":-2}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c.lat\":{\"count\":1,\"sum\":15"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\":[[10,0],[20,1]]"), std::string::npos) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Metrics, RegistryMerge) {
  obs::Registry a, b;
  a.counter("x").add(1);
  b.counter("x").add(2);
  b.counter("y").add(5);
  b.histogram("h", obs::Histogram::linear(1, 4)).record(2);
  a.merge(b);
  EXPECT_EQ(a.find_counter("x")->value(), 3u);
  EXPECT_EQ(a.find_counter("y")->value(), 5u);
  EXPECT_EQ(a.find_histogram("h")->count(), 1u);
}

// ---------------------------------------------------------------------------
// Harness stats satellite (percentile semantics)
// ---------------------------------------------------------------------------

TEST(SummaryStats, PercentileMethods) {
  harness::Summary s;
  for (int i = 1; i <= 10; ++i) s.add(i);
  // Interpolating percentile: generally not an observed sample.
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 5.5);
  // Nearest-rank: always an observed sample.
  EXPECT_DOUBLE_EQ(s.percentile_nearest_rank(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile_nearest_rank(0.91), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile_nearest_rank(1.0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile_nearest_rank(0.0), 1.0);
}

TEST(SummaryStats, ToHistogramHandoff) {
  harness::Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  obs::Histogram h = s.to_histogram(obs::Histogram::linear(25, 4));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.bucket_counts()[0], 25u);
  EXPECT_EQ(h.max(), 100);
}

// ---------------------------------------------------------------------------
// Cluster wiring
// ---------------------------------------------------------------------------

harness::ClusterOptions observed_options(size_t n, bool enabled) {
  harness::ClusterOptions o;
  o.n = n;
  o.t = (n - 1) / 3;
  o.protocol = harness::Protocol::kIcc0;
  o.seed = 7;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 128;
  o.obs.enabled = enabled;
  o.delay_model = [](size_t, uint64_t) {
    return std::make_unique<sim::FixedDelay>(sim::msec(10));
  };
  return o;
}

TEST(ClusterObs, HonestRunMatchesPaperExpectedCounters) {
  const size_t n = 16;
  harness::Cluster cluster(observed_options(n, true));
  cluster.run_for(sim::seconds(10));
  ASSERT_EQ(cluster.check_safety(), std::nullopt);

  const obs::Registry& r = cluster.obs()->registry();
  auto counter = [&](const char* name) -> uint64_t {
    const obs::Counter* c = r.find_counter(name);
    return c ? c->value() : 0;
  };

  // All parties are honest, delays are fixed well under Delta_bnd: every
  // round finishes cleanly on the rank-0 leader's block (the paper's
  // fast path), so the tagged counters must all agree.
  const uint64_t rounds = counter("consensus.rounds");
  ASSERT_GT(rounds, 0u);
  EXPECT_EQ(counter("consensus.rounds_clean"), rounds);
  EXPECT_EQ(counter("consensus.rounds_leader_block"), rounds);
  EXPECT_EQ(counter("consensus.rounds_honest_leader"), rounds);
  EXPECT_EQ(counter("consensus.rounds_corrupt_leader"), 0u);

  // Rounds-to-finalize is exactly 1 on the fast path (paper: O(1) expected;
  // deterministic here) — every recorded gap lands in the first bucket.
  const obs::Histogram* gap = r.find_histogram("consensus.finalize_gap_rounds");
  ASSERT_NE(gap, nullptr);
  ASSERT_GT(gap->count(), 0u);
  EXPECT_EQ(gap->max(), 1);

  // The probe's commit counter must agree exactly with the parties' output
  // queues, and the snapshot's folded network gauges with the simulator's
  // own accounting.
  uint64_t committed = 0;
  for (size_t i = 0; i < n; ++i) committed += cluster.party(i)->committed().size();
  EXPECT_EQ(counter("consensus.blocks_committed"), committed);
  const auto& nm = cluster.sim().network().metrics();
  (void)cluster.metrics_json();  // folds NetworkMetrics into the registry
  ASSERT_NE(r.find_gauge("net.total_messages"), nullptr);
  EXPECT_EQ(static_cast<uint64_t>(r.find_gauge("net.total_messages")->value()),
            nm.total_messages);
  EXPECT_EQ(static_cast<uint64_t>(r.find_gauge("net.total_bytes")->value()),
            nm.total_bytes);

  // Paper message complexity: ICC0 is all-to-all push, O(n^2) wire messages
  // per round (each broadcast costs n-1 sends; a round carries a constant
  // number of broadcast types per party). Assert the per-round average sits
  // in a loose constant band around n^2.
  const uint64_t rounds_reached = cluster.max_honest_round();
  ASSERT_GT(rounds_reached, 1u);
  const double per_round =
      static_cast<double>(nm.total_messages) / static_cast<double>(rounds_reached);
  const double n2 = static_cast<double>(n) * static_cast<double>(n - 1);
  EXPECT_GT(per_round, 2.0 * n2);
  EXPECT_LT(per_round, 12.0 * n2);

  // Latency histograms were fed.
  const obs::Histogram* fin = r.find_histogram("consensus.finalize_us");
  ASSERT_NE(fin, nullptr);
  EXPECT_GT(fin->count(), 0u);

  // Snapshot carries the folded stats structs alongside the live metrics.
  std::string json = cluster.metrics_json();
  EXPECT_NE(json.find("\"consensus.rounds\""), std::string::npos);
  EXPECT_NE(json.find("\"pipeline.decoded\""), std::string::npos);
  EXPECT_NE(json.find("\"verify.cache_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"net.total_messages\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Chrome trace rendered from the journal
// ---------------------------------------------------------------------------

obs::JournalEvent trace_input(const char* type, uint32_t party, uint64_t round, int64_t ts,
                              uint8_t hash_byte = 0, int64_t value = obs::JournalEvent::kNoValue) {
  obs::JournalEvent ev;
  ev.type = type;
  ev.party = party;
  ev.round = round;
  ev.ts = ts;
  if (hash_byte != 0) ev.set_hash(std::array<uint8_t, 32>{hash_byte}.data(), 32);
  ev.value = value;
  return ev;
}

// Each journal-derived trace event, in the Chrome trace_event shape:
// spans carry dur, instants a thread scope, events sort by start time.
TEST(JournalTrace, ChromeTraceEventShape) {
  using namespace obs::journal_type;
  const std::vector<obs::JournalEvent> events = {
      // Party 4 holds round 5's block and notarization before entering the
      // round, so the round ends the moment it starts.
      trace_input(kNotarAgg, 4, 5, 100, 0xcc),
      trace_input(kProposal, 4, 5, 150, 0xcc),
      trace_input(kRoundEnter, 4, 5, 400),
      trace_input(kRoundEnter, 3, 7, 1000),
      trace_input(kProposal, 3, 7, 1100, 0xaa),
      trace_input(kNotarAgg, 3, 7, 1250, 0xaa),
      trace_input(kFinalized, 3, 7, 1300, 0xaa),
      trace_input(kGossipAdvert, 3, 8, 1400, 0xbb),
      trace_input(kGossipRequest, 3, 8, 1450, 0xbb, 1),
      trace_input(kGossipRequest, 3, 8, 1500, 0xbb, 2),
      trace_input(kGossipDeliver, 3, 8, 1600, 0xbb, 4096),
      trace_input(kPropose, 3, 8, 1700, 0xdd),
  };
  EXPECT_EQ(obs::trace_events_json(events),
            "{\"name\":\"round\",\"cat\":\"consensus\",\"ph\":\"X\",\"ts\":400,\"dur\":0,"
            "\"pid\":4,\"tid\":0,\"args\":{\"round\":5}},\n"
            "{\"name\":\"round\",\"cat\":\"consensus\",\"ph\":\"X\",\"ts\":1000,\"dur\":250,"
            "\"pid\":3,\"tid\":0,\"args\":{\"round\":7}},\n"
            "{\"name\":\"finalize\",\"cat\":\"consensus\",\"ph\":\"i\",\"ts\":1300,\"pid\":3,"
            "\"tid\":0,\"s\":\"t\",\"args\":{\"round\":7}},\n"
            "{\"name\":\"fetch\",\"cat\":\"gossip\",\"ph\":\"X\",\"ts\":1400,\"dur\":200,"
            "\"pid\":3,\"tid\":1,\"args\":{\"bytes\":4096}},\n"
            "{\"name\":\"pull-retry\",\"cat\":\"gossip\",\"ph\":\"i\",\"ts\":1500,\"pid\":3,"
            "\"tid\":1,\"s\":\"t\"},\n"
            "{\"name\":\"propose\",\"cat\":\"consensus\",\"ph\":\"i\",\"ts\":1700,\"pid\":3,"
            "\"tid\":0,\"s\":\"t\",\"args\":{\"round\":8}}");
}

// The rendered trace is valid JSON for the shared strict reader, has one
// round span for every round each party finished and one finalize instant
// per finalized journal event, and reports the journal's drop count.
TEST(JournalTrace, RenderedTraceMatchesTheRun) {
  const size_t n = 7;
  auto o = observed_options(n, true);
  o.obs.journal = true;
  harness::Cluster cluster(o);
  cluster.run_for(sim::seconds(5));
  ASSERT_EQ(cluster.check_safety(), std::nullopt);

  support::json::Value doc;
  std::string error;
  ASSERT_TRUE(support::json::parse(cluster.trace_json(), &doc, &error)) << error;
  const support::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  const support::json::Value* meta = doc.find("metadata");
  ASSERT_NE(meta, nullptr);
  uint64_t dropped = 1;
  ASSERT_NE(meta->find("journal_dropped"), nullptr);
  EXPECT_TRUE(meta->find("journal_dropped")->get(&dropped));
  EXPECT_EQ(dropped, 0u);

  std::vector<std::vector<uint64_t>> rounds(n);
  size_t finalize_instants = 0;
  for (const auto& ev : events->array) {
    std::string name;
    uint32_t pid = 0;
    ASSERT_TRUE(ev.find("name")->get(&name));
    ASSERT_TRUE(ev.find("pid")->get(&pid));
    ASSERT_LT(pid, n);
    if (name == "finalize") finalize_instants++;
    if (name != "round") continue;
    uint64_t round = 0;
    ASSERT_TRUE(ev.find("args")->find("round")->get(&round));
    rounds[pid].push_back(round);
  }
  for (size_t p = 0; p < n; ++p) {
    // Rounds 1 .. current-1 are the ones party p finished, each exactly once.
    std::sort(rounds[p].begin(), rounds[p].end());
    std::vector<uint64_t> finished;
    for (uint64_t r = 1; r < cluster.party(p)->current_round(); ++r) finished.push_back(r);
    ASSERT_GT(finished.size(), 10u);
    EXPECT_EQ(rounds[p], finished) << "party " << p;
  }
  size_t finalized = 0;
  for (const auto& ev : cluster.journal()->events())
    finalized += ev.type == obs::journal_type::kFinalized;
  EXPECT_GT(finalized, 0u);
  EXPECT_EQ(finalize_instants, finalized);
}

TEST(JournalTrace, TelemetryOffOrNoJournalHasNoTrace) {
  harness::Cluster off(observed_options(4, false));
  off.run_for(sim::seconds(1));
  EXPECT_EQ(off.trace_json(), "{}");
  harness::Cluster no_journal(observed_options(4, true));
  no_journal.run_for(sim::seconds(1));
  EXPECT_EQ(no_journal.trace_json(), "{}");
  EXPECT_FALSE(no_journal.dump_trace(test_path("no_journal.json")));
}

TEST(ClusterObs, CorruptLeaderRoundsAreTagged) {
  auto o = observed_options(7, true);
  o.corrupt.emplace_back(1, harness::Crashed{});
  o.corrupt.emplace_back(4, harness::Crashed{});
  harness::Cluster cluster(o);
  cluster.run_for(sim::seconds(20));

  const obs::Registry& r = cluster.obs()->registry();
  const obs::Counter* corrupt = r.find_counter("consensus.rounds_corrupt_leader");
  const obs::Counter* honest = r.find_counter("consensus.rounds_honest_leader");
  ASSERT_NE(corrupt, nullptr);
  ASSERT_NE(honest, nullptr);
  // With 2/7 slots crashed, the beacon hands the crashed slots rank 0 in
  // roughly 2/7 of rounds — both tags must fire.
  EXPECT_GT(corrupt->value(), 0u);
  EXPECT_GT(honest->value(), 0u);
}

TEST(ClusterObs, DisabledTelemetryExposesNothing) {
  harness::Cluster cluster(observed_options(4, false));
  cluster.run_for(sim::seconds(2));
  EXPECT_EQ(cluster.obs(), nullptr);
  EXPECT_EQ(cluster.metrics_json(), "{}");
  EXPECT_EQ(cluster.trace_json(), "{}");
  EXPECT_FALSE(cluster.dump_trace("/tmp/icc_obs_should_not_exist.json"));
}

// Enabling telemetry must not change a single protocol decision: the same
// seed must produce bit-identical outputs and traffic with probes on and off.
TEST(ClusterObs, OnOffDeterminism) {
  auto run = [](bool enabled, harness::Protocol proto) {
    auto o = observed_options(7, enabled);
    o.protocol = proto;
    o.corrupt.emplace_back(2, harness::Crashed{});
    harness::Cluster cluster(o);
    cluster.run_for(sim::seconds(10));
    std::vector<std::pair<types::Round, types::Hash>> out;
    for (const auto& b : cluster.party(0)->committed()) out.emplace_back(b.round, b.hash);
    const auto& nm = cluster.sim().network().metrics();
    return std::make_tuple(out, nm.total_messages.load(), nm.total_bytes.load(),
                           cluster.max_honest_round());
  };
  for (auto proto : {harness::Protocol::kIcc0, harness::Protocol::kIcc1}) {
    auto off = run(false, proto);
    auto on = run(true, proto);
    EXPECT_EQ(off, on);
  }
}

TEST(ClusterObs, GossipProbesFireUnderIcc1) {
  auto o = observed_options(7, true);
  o.protocol = harness::Protocol::kIcc1;
  o.payload_size = 8192;  // above push_threshold: forces advert/pull
  harness::Cluster cluster(o);
  cluster.run_for(sim::seconds(10));

  const obs::Registry& r = cluster.obs()->registry();
  ASSERT_NE(r.find_counter("gossip.adverts"), nullptr);
  EXPECT_GT(r.find_counter("gossip.adverts")->value(), 0u);
  EXPECT_GT(r.find_counter("gossip.requests_sent")->value(), 0u);
  EXPECT_GT(r.find_counter("gossip.requests_served")->value(), 0u);
  const obs::Histogram* fetch = r.find_histogram("gossip.fetch_us");
  ASSERT_NE(fetch, nullptr);
  EXPECT_GT(fetch->count(), 0u);
}

TEST(ClusterObs, StageWallTimingIsOptIn) {
  auto base = observed_options(4, true);
  {
    harness::Cluster cluster(base);
    cluster.run_for(sim::seconds(2));
    EXPECT_EQ(cluster.obs()->registry().find_histogram("pipeline.decode_wall_ns"),
              nullptr);
  }
  base.obs.stage_wall_timing = true;
  {
    harness::Cluster cluster(base);
    cluster.run_for(sim::seconds(2));
    const obs::Histogram* h =
        cluster.obs()->registry().find_histogram("pipeline.decode_wall_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_GT(h->count(), 0u);
  }
}

}  // namespace
}  // namespace icc
