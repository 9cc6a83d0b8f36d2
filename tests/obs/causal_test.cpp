// Causal-layer tests: the icc-journal/v2 send/recv edge schema, critical-path
// extraction matching the paper's structural latency claims (3 hops / 3δ for
// ICC0 and ICC1, 4 hops / 4δ for ICC2 under fixed delays), rejection of
// tampered journals with a named causal error, and v2-vs-v1 determinism (the
// causal layer adds events but never changes a protocol decision or stamp).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/cluster.hpp"
#include "obs/audit.hpp"
#include "obs/causal.hpp"
#include "obs/journal.hpp"

namespace icc {
namespace {

// Payload stays below the gossip push threshold so ICC1 pushes full blocks:
// the 3-hop critical path is the pushed fast path (a pulled block adds an
// advert/request round-trip, which the analyzer books as gossip_wait queue
// time — see DESIGN.md §5.2).
harness::ClusterOptions causal_options(size_t n, harness::Protocol proto) {
  harness::ClusterOptions o;
  o.n = n;
  o.t = (n - 1) / 3;
  o.protocol = proto;
  o.seed = 7;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 256;
  o.obs.enabled = true;
  o.obs.journal = true;
  o.delay_model = [](size_t, uint64_t) {
    return std::make_unique<sim::FixedDelay>(sim::msec(10));
  };
  return o;
}

std::string run_jsonl(const harness::ClusterOptions& o, int seconds) {
  harness::Cluster cluster(o);
  cluster.run_for(sim::seconds(seconds));
  EXPECT_EQ(cluster.check_safety(), std::nullopt);
  return cluster.journal_jsonl();
}

// Removes the whole journal line holding the first occurrence of `needle`.
std::string drop_line_with(const std::string& jsonl, const std::string& needle) {
  size_t at = jsonl.find(needle);
  EXPECT_NE(at, std::string::npos) << needle;
  if (at == std::string::npos) return jsonl;
  size_t bol = jsonl.rfind('\n', at);
  bol = bol == std::string::npos ? 0 : bol + 1;
  size_t eol = jsonl.find('\n', at);
  return jsonl.substr(0, bol) + jsonl.substr(eol + 1);
}

// ---------------------------------------------------------------------------
// v2 event schema
// ---------------------------------------------------------------------------

TEST(Causal, EdgeFieldsRoundTripJson) {
  obs::JournalEvent ev;
  ev.type = obs::journal_type::kSend;
  ev.ts = 7890;
  ev.party = 2;
  ev.peer = 11;
  ev.edge = 3;
  const uint8_t hash_bytes[] = {0xde, 0xad};
  ev.set_hash(hash_bytes, sizeof hash_bytes);
  std::string line = obs::Journal::event_json(ev, 5);
  EXPECT_NE(line.find("\"peer\":11"), std::string::npos) << line;
  EXPECT_NE(line.find("\"edge\":3"), std::string::npos) << line;
  const auto back = obs::Journal::parse_jsonl(
      obs::Journal::meta_json(obs::JournalMeta{4, 1, "icc0", 1}, 1, 0) + "\n" + line + "\n");
  ASSERT_EQ(back.error, "");
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].type, obs::journal_type::kSend);
  EXPECT_EQ(back.events[0].peer, 11u);
  EXPECT_EQ(back.events[0].edge, 3u);
  EXPECT_EQ(back.events[0].hash_hex(), "dead");
}

TEST(Causal, SchemaTagTracksCausalSwitch) {
  auto o = causal_options(4, harness::Protocol::kIcc0);
  auto v2 = obs::Journal::parse_jsonl(run_jsonl(o, 2));
  EXPECT_EQ(v2.meta.schema, obs::JournalMeta::kSchemaV2);

  o.obs.journal_causal = false;
  auto v1 = obs::Journal::parse_jsonl(run_jsonl(o, 2));
  EXPECT_EQ(v1.meta.schema, obs::JournalMeta::kSchemaV1);
  for (const auto& ev : v1.events) {
    EXPECT_NE(ev.type, obs::journal_type::kSend);
    EXPECT_NE(ev.type, obs::journal_type::kRecv);
  }
}

// ---------------------------------------------------------------------------
// Structural latency claims (the paper's 3δ / 4δ, §1.1 and §5)
// ---------------------------------------------------------------------------

// Under a fixed 10 ms delay every complete round's critical path must have
// exactly 3 network hops for ICC0/ICC1 (propose → notar shares → final
// shares) and 4 for ICC2 (the erasure-coded echo hop), commit latency must
// equal hops × δ, and with instantaneous processing the decomposition must
// be all network.
TEST(Causal, HonestHopCountsMatchPaper) {
  const std::pair<harness::Protocol, int> cases[] = {
      {harness::Protocol::kIcc0, 3},
      {harness::Protocol::kIcc1, 3},
      {harness::Protocol::kIcc2, 4},
  };
  for (const auto& [proto, expected] : cases) {
    std::string jsonl = run_jsonl(causal_options(16, proto), 5);
    obs::CritPathReport report = obs::analyze_journal_jsonl(jsonl);
    ASSERT_TRUE(report.error.empty()) << report.error;
    ASSERT_GT(report.rounds_complete, 0u);
    EXPECT_EQ(report.rounds_complete, report.rounds_analyzed);
    EXPECT_EQ(obs::CritPathReport::expected_hops(report.meta.protocol), expected);
    std::string violation;
    EXPECT_TRUE(report.check_hops(expected, &violation)) << violation;
    ASSERT_EQ(report.hop_histogram.size(), 1u);
    EXPECT_EQ(report.hop_histogram.begin()->first, expected);
    EXPECT_EQ(report.total.p50, expected * sim::msec(10));
    EXPECT_EQ(report.total.max, expected * sim::msec(10));
    EXPECT_NEAR(report.network_share, 1.0, 1e-9);
    EXPECT_NEAR(report.queue_share + report.crypto_share, 0.0, 1e-9);
    EXPECT_FALSE(report.stragglers.empty());
  }
}

// A corrupt leader journals nothing (corrupt slots carry a null Obs), so its
// rounds walk back to an unrecorded propose: they must be reported incomplete
// and excluded from the hop histogram, while honest rounds still check clean.
TEST(Causal, CorruptLeaderRoundsAreIncompleteNotErrors) {
  auto o = causal_options(7, harness::Protocol::kIcc0);
  o.corrupt.emplace_back(2, harness::Crashed{});
  obs::CritPathReport report = obs::analyze_journal_jsonl(run_jsonl(o, 10));
  ASSERT_TRUE(report.error.empty()) << report.error;
  ASSERT_GT(report.rounds_complete, 0u);
  std::string violation;
  EXPECT_TRUE(report.check_hops(3, &violation)) << violation;
}

// ---------------------------------------------------------------------------
// Tampered journals are rejected with a named causal error
// ---------------------------------------------------------------------------

TEST(Causal, TamperedJournalsRejectedWithNamedError) {
  std::string jsonl = run_jsonl(causal_options(16, harness::Protocol::kIcc0), 5);
  ASSERT_TRUE(obs::analyze_journal_jsonl(jsonl).error.empty());

  // Deleting a recv line gaps that receiver's 1-based delivery index.
  {
    obs::CritPathReport r =
        obs::analyze_journal_jsonl(drop_line_with(jsonl, "\"type\":\"recv\""));
    EXPECT_EQ(r.error.rfind("causal-missing-recv", 0), 0u) << r.error;
  }
  // Deleting a send orphans the matching recv's edge id.
  {
    obs::CritPathReport r =
        obs::analyze_journal_jsonl(drop_line_with(jsonl, "\"type\":\"send\""));
    EXPECT_EQ(r.error.rfind("causal-missing-send", 0), 0u) << r.error;
  }
  // Stripping the causal layer entirely leaves nothing to analyze.
  {
    std::string stripped;
    size_t pos = 0;
    while (pos < jsonl.size()) {
      size_t eol = jsonl.find('\n', pos);
      std::string line = jsonl.substr(pos, eol - pos);
      if (line.find("\"type\":\"send\"") == std::string::npos &&
          line.find("\"type\":\"recv\"") == std::string::npos)
        stripped += line + "\n";
      pos = eol + 1;
    }
    obs::CritPathReport r = obs::analyze_journal_jsonl(stripped);
    EXPECT_EQ(r.error.rfind("causal-no-edges", 0), 0u) << r.error;
  }
}

// A v1 journal (causal layer off) is a valid audit input but not a valid
// critical-path input: the analyzer must name the missing layer rather than
// fabricate paths.
TEST(Causal, V1JournalAuditsButDoesNotAnalyze) {
  auto o = causal_options(7, harness::Protocol::kIcc0);
  o.obs.journal_causal = false;
  std::string jsonl = run_jsonl(o, 5);
  obs::AuditReport audit = obs::audit_jsonl(jsonl);
  EXPECT_TRUE(audit.ok()) << audit.to_json();
  EXPECT_GT(audit.finalized_rounds, 0u);
  obs::CritPathReport report = obs::analyze_journal_jsonl(jsonl);
  EXPECT_EQ(report.error.rfind("causal-no-edges", 0), 0u) << report.error;
}

// ---------------------------------------------------------------------------
// Determinism: the causal layer observes, it never perturbs
// ---------------------------------------------------------------------------

// Toggling the causal sub-switch must not change a protocol decision, a
// timestamp, or message-layer totals; the v2 journal minus its send/recv
// lines must be event-for-event identical to the v1 journal.
TEST(Causal, V2MatchesV1WithEdgesFiltered) {
  auto run = [](bool causal) {
    auto o = causal_options(7, harness::Protocol::kIcc1);
    o.obs.journal_causal = causal;
    return run_jsonl(o, 5);
  };
  auto v2 = obs::Journal::parse_jsonl(run(true));
  auto v1 = obs::Journal::parse_jsonl(run(false));
  ASSERT_GT(v1.events.size(), 0u);
  ASSERT_GT(v2.events.size(), v1.events.size());

  // Re-serialize with a fixed seq: the causal layer shifts global sequence
  // numbers but must leave every protocol event's payload untouched.
  std::vector<std::string> filtered, base;
  for (const auto& ev : v2.events)
    if (ev.type != obs::journal_type::kSend && ev.type != obs::journal_type::kRecv)
      filtered.push_back(obs::Journal::event_json(ev, 0));
  for (const auto& ev : v1.events) base.push_back(obs::Journal::event_json(ev, 0));
  EXPECT_EQ(filtered, base);
}

// Same seed, causal on => byte-identical journals (extends the v1 byte
// determinism guarantee to the v2 edge layer: edge ids and seqs are
// deterministic, no pointer- or hash-order leaks into the file).
TEST(Causal, V2ByteDeterministicAcrossSameSeedRuns) {
  for (auto proto : {harness::Protocol::kIcc0, harness::Protocol::kIcc1,
                     harness::Protocol::kIcc2}) {
    auto o = causal_options(7, proto);
    std::string a = run_jsonl(o, 3);
    std::string b = run_jsonl(o, 3);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "protocol " << static_cast<int>(proto);
  }
}

// Thread-count axis: the v2 edge layer (fingerprints, per-link seqs, order
// keys captured at journal-append time) must survive party-parallel
// stepping byte-for-byte — edges are recorded through the defer queue in
// canonical event order at any thread count (DESIGN.md §6).
TEST(Causal, V2ByteDeterministicAcrossThreadCounts) {
  for (auto proto : {harness::Protocol::kIcc0, harness::Protocol::kIcc2}) {
    auto o = causal_options(7, proto);
    o.threads = 1;
    std::string baseline = run_jsonl(o, 3);
    ASSERT_FALSE(baseline.empty());
    for (size_t threads : {2u, 8u}) {
      o.threads = threads;
      EXPECT_EQ(run_jsonl(o, 3), baseline)
          << "protocol " << static_cast<int>(proto) << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace icc
