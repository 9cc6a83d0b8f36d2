// Cluster-shared artifact interning (DESIGN.md §7): the InternStore parses
// each distinct wire payload exactly once and never conflates equivocating
// payloads, the shared verdict and beacon memos stay bounded, the beacon
// memo combines each round once per cluster and never remembers a failed
// combine, and — the core contract —
// interning is behaviour-neutral: committed sequences, logical verifier
// stats and journal bytes (icc-journal/v2 with causal edges) are identical
// with interning on or off, at 1, 2 and 8 threads, for all three protocols
// and for ICC1 with real crypto and pulled blocks, including under an
// equivocating leader.
#include "pipeline/intern.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/provider.hpp"
#include "harness/cluster.hpp"
#include "obs/journal.hpp"
#include "types/messages.hpp"

namespace icc::pipeline {
namespace {

using types::Block;
using types::Message;

Block make_block(types::Round round, types::PartyIndex proposer,
                 const std::string& payload) {
  Block b;
  b.round = round;
  b.proposer = proposer;
  b.parent_hash = types::root_hash();
  b.payload = str_bytes(payload);
  return b;
}

std::shared_ptr<const Bytes> wire_of(const Message& m) {
  return std::make_shared<const Bytes>(types::serialize_message(m));
}

// ---------------------------------------------------------------------------
// InternStore unit behaviour
// ---------------------------------------------------------------------------

TEST(InternStore, OneParsePerDistinctPayload) {
  InternStore store;
  types::NotarizationShareMsg share{1, 0, make_block(1, 0, "p").hash(), 2,
                                    str_bytes("signature")};
  auto wire = wire_of(Message{share});

  auto a = store.intern(wire);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(a->msg, nullptr);
  EXPECT_EQ(a->artifact_id, types::artifact_id(*wire));
  EXPECT_FALSE(a->sender_scoped);
  EXPECT_EQ(store.stats().parses, 1u);

  // A second receiver holding a *different allocation* of the same bytes
  // (the non-broadcast case) still lands on the same interned entry.
  auto b = store.intern(std::make_shared<const Bytes>(*wire));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->msg.get(), b->msg.get());
  EXPECT_EQ(store.stats().parses, 1u);
  EXPECT_EQ(store.stats().decode_hits, 1u);
}

TEST(InternStore, EquivocatingPayloadsNeverConflate) {
  // Equivocation-shaped input: same round, same proposer, different payload
  // bytes. The near-identical wires must intern as distinct entries with
  // distinct artifact ids — different bytes are different artifacts, always.
  InternStore store;
  types::ProposalMsg p1, p2;
  p1.block = make_block(3, 1, "fork A");
  p2.block = make_block(3, 1, "fork B");
  p1.authenticator = p2.authenticator = Bytes(64, 9);

  auto a = store.intern(wire_of(Message{p1}));
  auto b = store.intern(wire_of(Message{p2}));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a->artifact_id, b->artifact_id);
  ASSERT_NE(a->msg, nullptr);
  ASSERT_NE(b->msg, nullptr);
  EXPECT_NE(std::get<types::ProposalMsg>(*a->msg).block.hash(),
            std::get<types::ProposalMsg>(*b->msg).block.hash());
  EXPECT_EQ(store.stats().parses, 2u);
  EXPECT_EQ(store.stats().decode_hits, 0u);
}

TEST(InternStore, MalformedPayloadInternsOnceAsNull) {
  InternStore store;
  auto junk = std::make_shared<const Bytes>(Bytes{0xEE, 1, 2, 3});
  auto a = store.intern(junk);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->msg, nullptr);  // null msg = malformed, decided once
  auto b = store.intern(std::make_shared<const Bytes>(*junk));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(store.stats().parses, 1u);
  EXPECT_EQ(store.stats().decode_hits, 1u);
}

TEST(InternStore, SenderScopedFlagMatchesWireHelper) {
  InternStore store;
  types::AdvertMsg advert{1, 4, make_block(4, 0, "p").hash(), 1000};
  auto a = store.intern(wire_of(Message{advert}));
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->sender_scoped);  // adverts bypass dedup per sender
}

TEST(InternStore, ArtifactTableStaysBounded) {
  InternStore store;
  const uint32_t payloads = 3 * InternStore::kArtifactCapacity;
  for (uint32_t i = 0; i < payloads; ++i) {
    types::NotarizationShareMsg s{1 + i, 0, make_block(1 + i, 0, "p").hash(), 0,
                                  str_bytes("s")};
    store.intern(wire_of(Message{s}));
  }
  EXPECT_EQ(store.stats().parses, payloads);
  EXPECT_GT(store.interned_artifacts(), 0u);
  EXPECT_LE(store.interned_artifacts(), InternStore::kArtifactCapacity);
}

TEST(InternStore, VerdictMemoRemembersPrimesAndStaysBounded) {
  InternStore store;
  size_t checks = 0;
  auto verdict = [&](bool v) {
    return [&checks, v] {
      ++checks;
      return v;
    };
  };
  auto must_not_run = [] {
    ADD_FAILURE() << "the memo should have answered";
    return false;
  };

  types::Hash good = crypto::Sha256::hash("good key");
  types::Hash bad = crypto::Sha256::hash("bad key");
  EXPECT_TRUE(store.verify_once(good, verdict(true)));
  EXPECT_FALSE(store.verify_once(bad, verdict(false)));
  EXPECT_EQ(checks, 2u);
  EXPECT_TRUE(store.verify_once(good, must_not_run));
  EXPECT_FALSE(store.verify_once(bad, must_not_run));
  EXPECT_EQ(store.stats().real_verifications, 2u);
  EXPECT_EQ(store.stats().verdict_memo_hits, 2u);

  types::Hash primed = crypto::Sha256::hash("primed key");
  store.prime_verdict(primed);
  EXPECT_TRUE(store.verify_once(primed, must_not_run));
  EXPECT_EQ(store.stats().verdicts_primed, 1u);

  const uint32_t keys = 3 * InternStore::kVerdictCapacity;
  for (uint32_t i = 0; i < keys; ++i) {
    store.verify_once(crypto::Sha256::hash("k" + std::to_string(i)), verdict(true));
  }
  EXPECT_EQ(checks, 2u + keys);
  EXPECT_GT(store.cached_verdicts(), 0u);
  EXPECT_LE(store.cached_verdicts(), InternStore::kVerdictCapacity);
}

TEST(InternStore, BeaconMemoStaysBoundedAndNeverRemembersAFailedCombine) {
  InternStore store;
  size_t combines = 0;
  auto value_of = [&](const Bytes& m) {
    return [&, m] {
      ++combines;
      return crypto::sha256(m);
    };
  };
  auto must_not_run = [] {
    ADD_FAILURE() << "the memo should have answered";
    return Bytes{};
  };

  const Bytes m0 = str_bytes("round 0");
  EXPECT_TRUE(store.beacon(m0, [&] {
                ++combines;
                return Bytes{};
              }).empty());
  EXPECT_EQ(store.cached_beacons(), 0u);
  EXPECT_EQ(store.beacon(m0, value_of(m0)), crypto::sha256(m0));  // combines again
  EXPECT_EQ(store.beacon(m0, must_not_run), crypto::sha256(m0));
  EXPECT_EQ(combines, 2u);
  EXPECT_EQ(store.stats().beacon_combines, 2u);

  const uint32_t rounds = 4 * InternStore::kBeaconCapacity;
  for (uint32_t i = 1; i <= rounds; ++i) {
    const Bytes m = str_bytes("round " + std::to_string(i));
    EXPECT_EQ(store.beacon(m, value_of(m)), crypto::sha256(m));
  }
  EXPECT_EQ(store.stats().beacon_combines, rounds + 2u);
  EXPECT_LE(store.cached_beacons(), InternStore::kBeaconCapacity);
  const Bytes last = str_bytes("round " + std::to_string(rounds));
  EXPECT_EQ(store.beacon(last, must_not_run), crypto::sha256(last));
}

TEST(InternStore, VerifierMemoizesOnlyThresholdCombinesAndKeepsLogicalStats) {
  auto provider = crypto::make_real_provider(4, 1, 9);  // beacon threshold 2
  const Bytes msg = types::beacon_message(3, Bytes(32, 7));
  std::vector<std::pair<crypto::PartyIndex, Bytes>> shares;
  for (crypto::PartyIndex i = 0; i < 2; ++i)
    shares.emplace_back(i, provider->beacon_sign_share(i, msg));
  auto tampered = shares[1];
  tampered.second[80] ^= 1;  // a DLEQ proof byte
  const std::vector<std::pair<crypto::PartyIndex, Bytes>> short_of_threshold = {shares[0],
                                                                               tampered};

  InternStore store;
  Verifier lone(*provider, PipelineOptions{});
  Verifier first(*provider, PipelineOptions{});
  Verifier second(*provider, PipelineOptions{});
  first.attach_intern(&store);
  second.attach_intern(&store);

  // One valid share and one invalid one: the combine fails and the memo
  // stays empty.
  EXPECT_TRUE(first.beacon_combine(msg, short_of_threshold).empty());
  EXPECT_EQ(store.cached_beacons(), 0u);
  EXPECT_EQ(store.stats().beacon_combines, 0u);

  const Bytes value = lone.beacon_combine(msg, shares);
  ASSERT_FALSE(value.empty());
  EXPECT_EQ(first.beacon_combine(msg, shares), value);
  EXPECT_EQ(second.beacon_combine(msg, shares), value);  // from the memo
  EXPECT_EQ(store.stats().beacon_combines, 1u);
  EXPECT_EQ(store.cached_beacons(), 1u);

  // The memo answers only after the party's own checks: its logical stats
  // are those of a lone party.
  const Verifier::Stats a = second.stats(), b = lone.stats();
  EXPECT_EQ(a.provider_verifications, b.provider_verifications);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.combine_share_checks_skipped, b.combine_share_checks_skipped);
}

// ---------------------------------------------------------------------------
// Behaviour neutrality: intern {on,off} × threads {1,2,8} × protocol
// ---------------------------------------------------------------------------

struct RunResult {
  std::vector<std::vector<std::pair<harness::Round, types::Hash>>> committed;
  std::string journal;  ///< icc-journal/v2 bytes (causal edges on)
  Verifier::Stats vstats;
  std::vector<Verifier::Stats> party_vstats;  ///< per honest party
  PipelineStats pstats;
  InternStore::Stats istats;
};

/// One cluster shape of the matrix. The default is fast crypto and 300-byte
/// blocks, which ICC1 pushes whole.
struct Leg {
  harness::Protocol protocol;
  harness::CryptoKind crypto = harness::CryptoKind::kFast;
  size_t payload_size = 300;
  sim::Duration run = sim::seconds(5);
  size_t n = 7;
  size_t t = 2;
  bool wan = false;  ///< sim::WanDelay instead of 3-18 ms uniform links
};

// An equivocating leader is part of every run: the store must keep the two
// fork payloads distinct while every honest party still shares one parse of
// each, and the verdict memo must serve verdicts for *both* forks' shares.
RunResult run_cluster(const Leg& leg, bool intern, size_t threads) {
  harness::ClusterOptions o;
  o.n = leg.n;
  o.t = leg.t;
  // Seed mirrors pipeline_test: avoids a pre-existing seed-dependent Icc2
  // liveness stall that reproduces identically with interning on or off.
  o.seed = 501 + static_cast<uint64_t>(leg.protocol);
  o.protocol = leg.protocol;
  o.crypto = leg.crypto;
  o.delta_bnd = sim::msec(120);
  o.payload_size = leg.payload_size;
  o.intern = intern;
  o.threads = threads;
  o.obs.enabled = true;
  o.obs.journal = true;  // journal_causal defaults on → v2 with edges
  o.delay_model = [wan = leg.wan](size_t n, uint64_t seed) -> std::unique_ptr<sim::DelayModel> {
    if (!wan) return std::make_unique<sim::UniformDelay>(sim::msec(3), sim::msec(18));
    sim::WanDelay::Config cfg;
    cfg.n = n;
    cfg.seed = seed;
    return std::make_unique<sim::WanDelay>(cfg);
  };
  consensus::ByzantineBehavior eq;
  eq.equivocate = true;
  o.corrupt = {{1, eq}};

  harness::Cluster c(o);
  c.run_for(leg.run);
  EXPECT_FALSE(c.check_safety().has_value());

  RunResult r;
  for (size_t i = 0; i < o.n; ++i) {
    std::vector<std::pair<harness::Round, types::Hash>> seq;
    if (c.is_honest(i) && c.party(i)) {
      for (const auto& blk : c.party(i)->committed())
        seq.emplace_back(blk.round, blk.hash);
      EXPECT_GE(seq.size(), 4u) << "party " << i << " barely progressed";
      r.party_vstats.push_back(c.party(i)->verifier().stats());
    }
    r.committed.push_back(std::move(seq));
  }
  r.journal = c.journal_jsonl();
  r.vstats = c.verifier_stats();
  r.pstats = c.pipeline_stats();
  r.istats = c.intern_stats();
  return r;
}

void expect_equal(const RunResult& a, const RunResult& b, const std::string& what) {
  EXPECT_EQ(a.committed, b.committed) << what;
  EXPECT_EQ(a.journal, b.journal) << what << " (journal bytes differ)";
  // Logical stats: what a lone party *would* have verified/decoded — the
  // F-PIPE / Table 1 numbers must not notice the shared store.
  EXPECT_EQ(a.vstats.provider_verifications, b.vstats.provider_verifications) << what;
  EXPECT_EQ(a.vstats.cache_hits, b.vstats.cache_hits) << what;
  EXPECT_EQ(a.vstats.primed, b.vstats.primed) << what;
  EXPECT_EQ(a.vstats.combine_share_checks_skipped, b.vstats.combine_share_checks_skipped)
      << what;
  ASSERT_EQ(a.party_vstats.size(), b.party_vstats.size()) << what;
  for (size_t i = 0; i < a.party_vstats.size(); ++i) {
    EXPECT_EQ(a.party_vstats[i].provider_verifications, b.party_vstats[i].provider_verifications)
        << what << ", honest party #" << i;
    EXPECT_EQ(a.party_vstats[i].cache_hits, b.party_vstats[i].cache_hits)
        << what << ", honest party #" << i;
  }
  EXPECT_EQ(a.pstats.decoded, b.pstats.decoded) << what;
  EXPECT_EQ(a.pstats.duplicates, b.pstats.duplicates) << what;
  EXPECT_EQ(a.pstats.malformed, b.pstats.malformed) << what;
  EXPECT_EQ(a.pstats.dedup_exempt, b.pstats.dedup_exempt) << what;
}

void expect_neutral_across_intern_and_threads(const Leg& leg) {
  RunResult baseline = run_cluster(leg, /*intern=*/false, /*threads=*/1);
  ASSERT_FALSE(baseline.journal.empty());
  for (bool intern : {false, true}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      if (!intern && threads == 1) continue;  // that is the baseline itself
      RunResult r = run_cluster(leg, intern, threads);
      expect_equal(r, baseline,
                   std::string(intern ? "intern on" : "intern off") + ", " +
                       std::to_string(threads) + " threads");
    }
  }
}

class InternMatrixTest : public ::testing::TestWithParam<harness::Protocol> {};

TEST_P(InternMatrixTest, JournalAndCommitsIdenticalInternOnOffAcrossThreads) {
  expect_neutral_across_intern_and_threads(Leg{GetParam()});
}

// The ICC1 leg with real crypto and blocks above the gossip push threshold,
// so they are advertised and pulled. Real EdDSA notarizations depend on
// which quorum of shares a party combined first; this is the shape in which
// a clause (c) echo that re-wrapped a peer's block would have had different
// bytes at every party.
TEST(InternMatrixTest, Icc1RealCryptoPulledBlocksIdenticalInternOnOffAcrossThreads) {
  Leg leg{harness::Protocol::kIcc1, harness::CryptoKind::kReal, 6000, sim::seconds(3)};
  ASSERT_GT(leg.payload_size, gossip::GossipConfig{}.push_threshold);
  expect_neutral_across_intern_and_threads(leg);
}

TEST_P(InternMatrixTest, InternActuallyShares) {
  // The neutrality matrix would pass trivially if the store were never
  // consulted. At 1 thread the counters are exact: 6 honest receivers of
  // every broadcast must collapse to ~1 parse, and the shared memo must
  // absorb most per-party cache misses.
  RunResult r = run_cluster(Leg{GetParam()}, /*intern=*/true, /*threads=*/1);
  EXPECT_GT(r.istats.parses, 0u);
  EXPECT_GT(r.istats.decode_hits, r.istats.parses)
      << "expected most decodes to be shared";
  EXPECT_GT(r.istats.verdict_memo_hits, r.istats.real_verifications)
      << "expected most verifications to be shared";
  // Logical accounting is unchanged: the per-party counters still describe
  // a lone verifier, so they dominate the real cluster-wide work.
  EXPECT_GT(r.vstats.provider_verifications, r.istats.real_verifications);

  RunResult off = run_cluster(Leg{GetParam()}, /*intern=*/false, /*threads=*/1);
  EXPECT_EQ(off.istats.parses, 0u);
  EXPECT_EQ(off.istats.real_verifications, 0u);
}

// The beacon memo at the perfbench WAN shape: ICC1, n = 32, real crypto,
// one thread, with an equivocating party. Each round's beacon is combined
// once for the whole cluster, while every party's logical verifier stats and
// the journal stay those of the run without interning.
TEST(InternBeaconMemo, Icc1RealCryptoWanCombinesEachRoundOnce) {
  Leg leg{harness::Protocol::kIcc1, harness::CryptoKind::kReal, 4096, sim::seconds(4)};
  leg.n = 32;
  leg.t = 10;
  leg.wan = true;
  const RunResult on = run_cluster(leg, /*intern=*/true, /*threads=*/1);
  const RunResult off = run_cluster(leg, /*intern=*/false, /*threads=*/1);
  expect_equal(on, off, "intern on vs off");

  // Rounds whose beacon some honest party combined (party 1 equivocates).
  std::set<uint64_t> rounds;
  for (const auto& ev : obs::Journal::parse_jsonl(on.journal).events)
    if (std::string_view(ev.type) == obs::journal_type::kBeacon && ev.party != 1)
      rounds.insert(ev.round);
  ASSERT_GE(rounds.size(), 4u);
  EXPECT_EQ(on.istats.beacon_combines, rounds.size());
  EXPECT_EQ(off.istats.beacon_combines, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, InternMatrixTest,
                         ::testing::Values(harness::Protocol::kIcc0,
                                           harness::Protocol::kIcc1,
                                           harness::Protocol::kIcc2),
                         [](const auto& info) {
                           return info.param == harness::Protocol::kIcc0   ? "Icc0"
                                  : info.param == harness::Protocol::kIcc1 ? "Icc1"
                                                                           : "Icc2";
                         });

}  // namespace
}  // namespace icc::pipeline
