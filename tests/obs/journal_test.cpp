// Flight-recorder tests: journal export determinism, the offline auditor's
// pass/fail behaviour (honest runs audit clean for all three protocols; a
// tampered journal fails naming the violated invariant), adversary runs
// producing no false positives, and the drop count in the rendered trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/cluster.hpp"
#include "obs/audit.hpp"
#include "obs/journal.hpp"
#include "support/json.hpp"

namespace icc {
namespace {

harness::ClusterOptions journal_options(size_t n, harness::Protocol proto) {
  harness::ClusterOptions o;
  o.n = n;
  o.t = (n - 1) / 3;
  o.protocol = proto;
  o.seed = 7;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 128;
  o.obs.enabled = true;
  o.obs.journal = true;
  o.delay_model = [](size_t, uint64_t) {
    return std::make_unique<sim::FixedDelay>(sim::msec(10));
  };
  return o;
}

std::string run_journal(const harness::ClusterOptions& o, int seconds = 10) {
  harness::Cluster cluster(o);
  cluster.run_for(sim::seconds(seconds));
  EXPECT_EQ(cluster.check_safety(), std::nullopt);
  return cluster.journal_jsonl();
}

/// Parses one exported event line behind a meta line; the event, or an
/// empty-typed event when the document did not parse.
obs::JournalEvent parse_one_event(const std::string& line) {
  const auto parsed = obs::Journal::parse_jsonl(
      obs::Journal::meta_json(obs::JournalMeta{4, 1, "icc0", 1}, 1, 0) + "\n" + line + "\n");
  EXPECT_EQ(parsed.error, "");
  return parsed.events.size() == 1 ? parsed.events[0] : obs::JournalEvent{};
}

obs::JournalMeta parse_meta(const std::string& line) {
  const auto parsed = obs::Journal::parse_jsonl(line + "\n");
  EXPECT_EQ(parsed.error, "");
  EXPECT_TRUE(parsed.has_meta);
  return parsed.meta;
}

// ---------------------------------------------------------------------------
// Journal core
// ---------------------------------------------------------------------------

TEST(Journal, CapacityBoundCountsDrops) {
  obs::Journal j(2);
  obs::JournalEvent ev;
  ev.type = obs::journal_type::kCommit;
  for (int i = 0; i < 5; ++i) j.append(ev);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.dropped(), 3u);
  EXPECT_NE(j.to_jsonl().find("\"dropped\":3"), std::string::npos);
}

TEST(Journal, CapacityZeroDisables) {
  obs::Journal j(0);
  EXPECT_FALSE(j.enabled());
  obs::JournalEvent ev;
  ev.type = obs::journal_type::kCommit;
  j.append(ev);
  EXPECT_EQ(j.size(), 0u);
}

TEST(Journal, EventJsonRoundTrips) {
  obs::JournalEvent ev;
  ev.type = obs::journal_type::kNotarAgg;
  ev.ts = 123456;
  ev.party = 3;
  ev.round = 9;
  ev.proposer = 1;
  const uint8_t hash_bytes[] = {0xab, 0x12};
  ev.set_hash(hash_bytes, sizeof hash_bytes);
  ev.signers = {0, 2, 5};
  ev.detail = "combined";
  std::string line = obs::Journal::event_json(ev, 42);
  EXPECT_NE(line.find("\"hash\":\"ab12\""), std::string::npos);
  const obs::JournalEvent back = parse_one_event(line);
  EXPECT_EQ(back.type, obs::journal_type::kNotarAgg);  // interned pointer
  EXPECT_EQ(back.ts, 123456);
  EXPECT_EQ(back.party, 3u);
  EXPECT_EQ(back.round, 9u);
  EXPECT_EQ(back.proposer, 1u);
  EXPECT_EQ(back.hash_hex(), "ab12");
  EXPECT_EQ(back.signers, (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_STREQ(back.detail, "combined");
}

// Strings go through the shared escaper and reader: quotes, backslashes,
// newlines and key-like text inside a value survive the round trip.
TEST(Journal, MetaProtocolWithJsonSyntaxRoundTrips) {
  const std::string protocol = "icc1 \"wan\" \\ \n\"round\":7";
  obs::JournalMeta m{16, 5, protocol, 99};
  const obs::JournalMeta back = parse_meta(obs::Journal::meta_json(m, 10, 0));
  EXPECT_EQ(back.protocol, protocol);
  EXPECT_EQ(back.seed, 99u);
}

// Input errors name the line; blank lines are skipped, unknown keys and
// event types are accepted.
TEST(Journal, ParseErrorsNameTheLine) {
  const std::string meta = obs::Journal::meta_json(obs::JournalMeta{4, 1, "icc0", 1}, 2, 0);
  const std::string good = meta + "\n\n{\"seq\":1,\"type\":\"future_type\",\"ts\":5,\"x\":[1]}\n";
  auto parsed = obs::Journal::parse_jsonl(good);
  EXPECT_EQ(parsed.error, "");
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_STREQ(parsed.events[0].type, "future_type");

  EXPECT_EQ(obs::Journal::parse_jsonl("").error, "line 1: no meta record (empty input)");
  EXPECT_EQ(obs::Journal::parse_jsonl("this is not a journal\n").error.rfind("line 1: byte 0:", 0),
            0u);
  EXPECT_EQ(obs::Journal::parse_jsonl(meta + "\n{\"seq\":1,\"type\":\"commit\",\"ts\":12").error,
            "line 2: byte 32: unterminated object");
  EXPECT_EQ(obs::Journal::parse_jsonl(meta + "\n{\"type\":\"commit\",\"ts\":\"12\"}\n").error,
            "line 2: field \"ts\" has the wrong type");
  EXPECT_EQ(obs::Journal::parse_jsonl(good.substr(meta.size() + 2)).error,
            "line 1: not a meta record");
}

TEST(Journal, MetaLineRoundTrips) {
  obs::JournalMeta m{16, 5, "icc1", 99};
  const obs::JournalMeta back = parse_meta(obs::Journal::meta_json(m, 10, 0));
  EXPECT_EQ(back.n, 16u);
  EXPECT_EQ(back.t, 5u);
  EXPECT_EQ(back.quorum(), 11u);
  EXPECT_EQ(back.protocol, "icc1");
  EXPECT_EQ(back.seed, 99u);
}

// ---------------------------------------------------------------------------
// Determinism and cluster wiring
// ---------------------------------------------------------------------------

// Same seed => byte-identical journal file, for every protocol. This is the
// property that makes journals diffable across runs and machines.
TEST(Journal, ByteDeterministicAcrossSameSeedRuns) {
  for (auto proto : {harness::Protocol::kIcc0, harness::Protocol::kIcc1,
                     harness::Protocol::kIcc2}) {
    auto o = journal_options(7, proto);
    std::string a = run_journal(o, 5);
    std::string b = run_journal(o, 5);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "protocol " << static_cast<int>(proto);
  }
}

TEST(Journal, DisabledByDefaultEvenWithObsOn) {
  auto o = journal_options(4, harness::Protocol::kIcc0);
  o.obs.journal = false;
  harness::Cluster cluster(o);
  cluster.run_for(sim::seconds(2));
  EXPECT_EQ(cluster.journal(), nullptr);
  EXPECT_TRUE(cluster.journal_jsonl().empty());
  EXPECT_FALSE(cluster.dump_journal("/tmp/icc_journal_should_not_exist.jsonl"));
}

// Enabling the journal must not change a single protocol decision.
TEST(Journal, JournalOnOffDeterminism) {
  auto run = [](bool journal) {
    auto o = journal_options(7, harness::Protocol::kIcc1);
    o.obs.journal = journal;
    o.corrupt.emplace_back(2, harness::Crashed{});
    harness::Cluster cluster(o);
    cluster.run_for(sim::seconds(10));
    std::vector<std::pair<types::Round, types::Hash>> out;
    for (const auto& b : cluster.party(0)->committed()) out.emplace_back(b.round, b.hash);
    const auto& nm = cluster.sim().network().metrics();
    return std::make_tuple(out, nm.total_messages.load(), nm.total_bytes.load(),
                           cluster.max_honest_round());
  };
  EXPECT_EQ(run(false), run(true));
}

// Thread-count axis (DESIGN.md §6): journal bytes, the metrics document and
// the traffic totals of a party-parallel run must be identical to the
// sequential run — appends ride the defer queue in canonical event order,
// counters are commutative atomics.
TEST(Journal, ByteIdenticalAcrossThreadCounts) {
  auto run = [](size_t threads) {
    auto o = journal_options(7, harness::Protocol::kIcc0);
    o.threads = threads;
    o.corrupt.emplace_back(2, harness::Crashed{});
    harness::Cluster cluster(o);
    cluster.run_for(sim::seconds(10));
    return std::make_pair(cluster.journal_jsonl(), cluster.metrics_json());
  };
  auto baseline = run(1);
  ASSERT_FALSE(baseline.first.empty());
  for (size_t threads : {2u, 8u}) {
    EXPECT_EQ(run(threads), baseline) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Auditor: honest runs audit clean
// ---------------------------------------------------------------------------

TEST(Audit, HonestRunsPassForAllProtocols) {
  for (auto proto : {harness::Protocol::kIcc0, harness::Protocol::kIcc1,
                     harness::Protocol::kIcc2}) {
    std::string jsonl = run_journal(journal_options(16, proto), 10);
    obs::AuditReport report = obs::audit_jsonl(jsonl);
    EXPECT_TRUE(report.has_meta);
    EXPECT_TRUE(report.ok()) << "protocol " << static_cast<int>(proto) << ": "
                             << report.to_json();
    EXPECT_GT(report.finalized_rounds, 0u);
    EXPECT_EQ(report.parties_seen, 16u);
    // Every finalized round gets a complete phase attribution on the honest
    // fast path, and each phase is at least one network hop (10 ms here).
    size_t complete = 0;
    for (const auto& lat : report.round_latencies) complete += lat.complete();
    EXPECT_EQ(complete, report.round_latencies.size());
    EXPECT_GE(report.mean_propose_to_final_us, 10'000);
    // The machine-readable report certifies the checks it ran.
    std::string json = report.to_json();
    EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
    EXPECT_NE(json.find("\"unique-finalization\":0"), std::string::npos);
    EXPECT_NE(json.find("\"quorum-size\":0"), std::string::npos);
    // CSV time series: header + one row per finalized round.
    std::string csv = report.rounds_csv();
    size_t rows = std::count(csv.begin(), csv.end(), '\n');
    EXPECT_EQ(rows, report.round_latencies.size() + 1);
  }
}

// ---------------------------------------------------------------------------
// Auditor: tampered journals fail, naming the invariant
// ---------------------------------------------------------------------------

// Appends a forged finalization for a different block in an already
// finalized round — the auditor must flag unique-finalization (Lemma 7).
TEST(Audit, TamperedDuplicateFinalizationFails) {
  std::string jsonl = run_journal(journal_options(16, harness::Protocol::kIcc0), 10);
  auto parsed = obs::Journal::parse_jsonl(jsonl);
  uint64_t round = 0;
  bool found = false;
  for (const auto& ev : parsed.events) {
    if (ev.type == obs::journal_type::kFinalized) {
      round = ev.round;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  jsonl += "{\"seq\":999999,\"type\":\"finalized\",\"ts\":999999,\"party\":0,\"round\":" +
           std::to_string(round) + ",\"hash\":\"" + std::string(64, 'f') + "\"}\n";

  obs::AuditReport report = obs::audit_jsonl(jsonl);
  EXPECT_FALSE(report.ok());
  ASSERT_GT(report.by_invariant.at("unique-finalization"), 0u);
  bool named = false;
  for (const auto& v : report.violations)
    if (v.invariant == "unique-finalization" && v.round == round) named = true;
  EXPECT_TRUE(named) << report.to_json();
  // The forged notarized-conflict invariant also fires via finalization:
  EXPECT_NE(report.to_json().find("\"ok\":false"), std::string::npos);
}

// Thins a locally combined notarization's signer set below n-t — the
// auditor must flag quorum-size (the definition of a notarization).
TEST(Audit, TamperedThinnedQuorumFails) {
  std::string jsonl = run_journal(journal_options(16, harness::Protocol::kIcc0), 10);
  size_t at = jsonl.find("\"type\":\"notar_agg\"");
  while (at != std::string::npos) {
    size_t eol = jsonl.find('\n', at);
    if (jsonl.substr(at, eol - at).find("\"detail\":\"combined\"") != std::string::npos)
      break;
    at = jsonl.find("\"type\":\"notar_agg\"", eol);
  }
  ASSERT_NE(at, std::string::npos) << "no locally combined notarization recorded";
  size_t sig = jsonl.find("\"signers\":[", at);
  size_t end = jsonl.find(']', sig);
  ASSERT_NE(sig, std::string::npos);
  jsonl.replace(sig, end + 1 - sig, "\"signers\":[0,1]");  // quorum here is 11

  obs::AuditReport report = obs::audit_jsonl(jsonl);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.by_invariant.at("quorum-size"), 0u);
  bool named = false;
  for (const auto& v : report.violations)
    if (v.invariant == "quorum-size" &&
        v.detail.find("2 distinct signers, quorum is 11") != std::string::npos)
      named = true;
  EXPECT_TRUE(named) << report.to_json();
}

// A conflicting notarization share by one party for the same proposer must
// flag the accountability invariant (Fig. 1 (c) forbids it for honest
// parties — a journal showing it is cryptographic evidence of misbehaviour).
TEST(Audit, TamperedConflictingShareFails) {
  std::string jsonl = run_journal(journal_options(7, harness::Protocol::kIcc0), 5);
  auto parsed = obs::Journal::parse_jsonl(jsonl);
  const obs::JournalEvent* share = nullptr;
  for (const auto& ev : parsed.events)
    if (ev.type == obs::journal_type::kNotarShare) {
      share = &ev;
      break;
    }
  ASSERT_NE(share, nullptr);
  jsonl += "{\"seq\":999999,\"type\":\"notar_share\",\"ts\":999999,\"party\":" +
           std::to_string(share->party) + ",\"round\":" + std::to_string(share->round) +
           ",\"proposer\":" + std::to_string(share->proposer) + ",\"hash\":\"" +
           std::string(64, 'e') + "\"}\n";
  obs::AuditReport report = obs::audit_jsonl(jsonl);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.by_invariant.at("no-conflicting-notar-share"), 0u);
}

// ---------------------------------------------------------------------------
// Auditor: adversary runs produce no false positives
// ---------------------------------------------------------------------------

// Only honest parties journal (corrupt slots get a null Obs), so equivocating
// and crashed adversaries must not trip any invariant: the whole point of the
// paper's safety argument is that honest behaviour stays clean under attack.
TEST(Audit, ByzantineAdversariesProduceNoFalsePositives) {
  struct Case {
    const char* name;
    harness::CorruptBehavior behavior;
  };
  consensus::ByzantineBehavior equivocate;
  equivocate.equivocate = true;
  consensus::ByzantineBehavior empty_payload;
  empty_payload.empty_payload = true;
  const Case cases[] = {
      {"crash", harness::Crashed{}},
      {"equivocate", equivocate},
      {"empty_payload", empty_payload},
  };
  for (const auto& c : cases) {
    auto o = journal_options(7, harness::Protocol::kIcc0);
    o.corrupt.emplace_back(1, c.behavior);
    o.corrupt.emplace_back(4, c.behavior);
    std::string jsonl = run_journal(o, 15);
    obs::AuditReport report = obs::audit_jsonl(jsonl);
    EXPECT_TRUE(report.ok()) << c.name << ": " << report.to_json();
  }
}

// ---------------------------------------------------------------------------
// Trace rendered from the journal: self-describing drop accounting
// ---------------------------------------------------------------------------

TEST(JournalTrace, JsonEmbedsJournalDrops) {
  obs::Journal j(2);
  obs::JournalEvent ev;
  ev.type = obs::journal_type::kFinalized;
  ev.party = 0;
  for (int i = 0; i < 5; ++i) {
    ev.ts = i;
    j.append(ev);
  }
  const std::string json = j.trace_json();
  EXPECT_NE(json.find("\"metadata\":{\"journal_dropped\":3}"), std::string::npos) << json;
  // Still a valid Chrome trace document, holding the two kept events.
  support::json::Value doc;
  std::string error;
  ASSERT_TRUE(support::json::parse(json, &doc, &error)) << error;
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_EQ(doc.find("traceEvents")->array.size(), 2u);
  EXPECT_EQ(json.rfind("\"displayTimeUnit\":\"ms\"}"),
            json.size() - std::string("\"displayTimeUnit\":\"ms\"}").size());
}

}  // namespace
}  // namespace icc
