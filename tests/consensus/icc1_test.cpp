// Protocol ICC1: consensus correctness plus the gossip sub-layer's bandwidth
// properties (the leader-bottleneck relief the paper designed it for).
#include "consensus/icc1.hpp"

#include <gtest/gtest.h>

#include "harness/cluster.hpp"

namespace icc::harness {
namespace {

using consensus::ByzantineBehavior;

ClusterOptions icc1_options(size_t n, size_t t, uint64_t seed = 1) {
  ClusterOptions o;
  o.n = n;
  o.t = t;
  o.seed = seed;
  o.protocol = Protocol::kIcc1;
  o.delta_bnd = sim::msec(100);
  o.payload_size = 512;
  o.prune_lag = 0;
  o.gossip.request_jitter = sim::msec(10);
  o.delay_model = [](size_t, uint64_t) {
    return std::make_unique<sim::FixedDelay>(sim::msec(10));
  };
  return o;
}

void expect_invariants(const Cluster& c) {
  auto safety = c.check_safety();
  EXPECT_FALSE(safety.has_value()) << *safety;
  auto p2 = c.check_p2();
  EXPECT_FALSE(p2.has_value()) << *p2;
}

TEST(Icc1Test, HappyPathCommits) {
  Cluster c(icc1_options(4, 1));
  c.run_for(sim::seconds(5));
  EXPECT_GE(c.min_honest_committed(), 8u);
  expect_invariants(c);
}

class Icc1ParamTest : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(Icc1ParamTest, ProgressAndSafety) {
  auto [n, t] = GetParam();
  Cluster c(icc1_options(n, t, 50 + n));
  c.run_for(sim::seconds(5));
  EXPECT_GE(c.min_honest_committed(), 5u) << "n=" << n;
  expect_invariants(c);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Icc1ParamTest,
                         ::testing::Values(std::pair<size_t, size_t>{4, 1},
                                           std::pair<size_t, size_t>{7, 2},
                                           std::pair<size_t, size_t>{13, 4}));

TEST(Icc1Test, ToleratesCrashes) {
  auto o = icc1_options(7, 2, 3);
  o.corrupt = {{2, Crashed{}}, {5, Crashed{}}};
  Cluster c(o);
  c.run_for(sim::seconds(10));
  EXPECT_GE(c.min_honest_committed(), 5u);
  expect_invariants(c);
}

TEST(Icc1Test, ToleratesEquivocation) {
  auto o = icc1_options(7, 2, 4);
  ByzantineBehavior eq;
  eq.equivocate = true;
  o.corrupt = {{1, eq}, {4, eq}};
  Cluster c(o);
  c.run_for(sim::seconds(10));
  EXPECT_GE(c.min_honest_committed(), 5u);
  expect_invariants(c);
}

TEST(Icc1Test, SurvivesAsynchrony) {
  Cluster c(icc1_options(4, 1, 5));
  c.sim().network().synchrony().add_async_window(sim::seconds(1), sim::seconds(3));
  c.run_for(sim::seconds(8));
  EXPECT_GE(c.min_honest_committed(), 5u);
  expect_invariants(c);
}

TEST(Icc1Test, GossipReducesLeaderByteBottleneck) {
  // With large blocks, the max-bytes-sent-by-any-party (the bottleneck
  // measure of [35]) must be much lower under ICC1 than under ICC0, where
  // the proposer and every echoing party push full copies to everyone.
  const size_t payload = 200 * 1024;
  auto run = [&](Protocol proto) {
    auto o = icc1_options(7, 2, 9);
    o.protocol = proto;
    o.payload_size = payload;
    o.max_round = 10;
    o.record_payloads = false;
    o.prune_lag = 4;
    Cluster c(o);
    c.run_for(sim::seconds(30));
    EXPECT_GE(c.min_honest_committed(), 5u);
    auto safety = c.check_safety();
    EXPECT_FALSE(safety.has_value()) << *safety;
    return c.sim().network().metrics().max_bytes_sent();
  };
  uint64_t icc0_max = run(Protocol::kIcc0);
  uint64_t icc1_max = run(Protocol::kIcc1);
  EXPECT_LT(icc1_max, icc0_max / 2)
      << "ICC0 bottleneck " << icc0_max << " vs ICC1 " << icc1_max;
}

TEST(Icc1Test, BlocksTravelOncePerPartyNotOncePerEcho) {
  // Total traffic for ICC1 should be near n block-copies per round, not n^2.
  // Fast crypto under a fixed delay: every party's notarization of a block
  // has the same bytes, so a re-wrapped clause (c) echo would be
  // byte-identical to the proposal and gossip would drop it as held. This
  // test therefore bounds gossip's fan-out only; the echo itself is pinned
  // by PulledBlocksStoredOncePerPartyUnderWanWithRealCrypto.
  const size_t payload = 100 * 1024;
  auto o = icc1_options(10, 3, 10);
  o.payload_size = payload;
  o.max_round = 8;
  o.record_payloads = false;
  o.prune_lag = 4;
  Cluster c(o);
  c.run_for(sim::seconds(20));
  size_t rounds = c.party(0)->current_round();
  ASSERT_GE(rounds, 8u);
  uint64_t total = c.sim().network().metrics().total_bytes;
  // Upper bound: ~3x (n-1) block transfers per round would already be very
  // lossy gossip; ICC0 would be ~ (n-1)^2 copies (about 8 MB/round here).
  double per_round = static_cast<double>(total) / 8.0;
  EXPECT_LT(per_round, 3.0 * 9 * payload);
}

ClusterOptions wan_options(size_t n, size_t t, uint64_t seed,
                           double loss_probability = sim::WanDelay::Config{}.loss_probability) {
  ClusterOptions o;
  o.n = n;
  o.t = t;
  o.seed = seed;
  o.protocol = Protocol::kIcc1;
  o.crypto = CryptoKind::kReal;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 4096;  // with its header, above the push threshold: pulled
  o.prune_lag = 0;
  o.delay_model = [loss_probability](size_t n, uint64_t seed) {
    sim::WanDelay::Config wan;
    wan.n = n;
    wan.seed = seed;
    wan.loss_probability = loss_probability;
    return std::make_unique<sim::WanDelay>(wan);
  };
  return o;
}

TEST(Icc1Test, PulledBlocksStoredOncePerPartyUnderWanWithRealCrypto) {
  // Real EdDSA notarizations are multisignatures whose bytes depend on which
  // quorum of shares a party combined first, and under WAN jitter that
  // differs per party. A clause (c) echo that re-wraps a peer's block with
  // the echoer's own parent notarization has new bytes at every echoer, and
  // gossip stores, advertises and pulls each such echo as a new artifact
  // (~26·n² messages per committed block on this run, against ~7·n² when
  // only the proposer sends the block). Each party must store one artifact
  // per block it holds.
  const size_t n = 32;
  auto o = wan_options(n, 10, 1);
  ASSERT_TRUE(o.intern);
  ASSERT_GE(o.payload_size, o.gossip.push_threshold);
  Cluster c(o);
  c.run_for(sim::seconds(1));
  const size_t blocks = c.min_honest_committed();
  ASSERT_GE(blocks, 4u);
  expect_invariants(c);
  for (size_t i = 0; i < n; ++i) {
    const auto* p = dynamic_cast<const consensus::Icc1Party*>(c.party(i));
    ASSERT_NE(p, nullptr);
    EXPECT_LE(p->gossip().stored_count(), p->pool().block_count()) << "party " << i;
  }
  const double messages_per_block =
      static_cast<double>(c.sim().network().metrics().total_messages) /
      static_cast<double>(blocks);
  EXPECT_LE(messages_per_block, 8.0 * n * n);
}

TEST(Icc1Test, PulledBlocksSurviveLossEquivocationAndCrash) {
  // Clause (c)'s echo was a second delivery path for a block. Without it,
  // adverts from every holder plus pull retries must deliver both blocks of
  // an equivocating rank on their own, with one party silent and 2% of
  // transfers retransmitted (WanDelay models loss as a retransmission).
  auto o = wan_options(7, 2, 12, 0.02);
  ByzantineBehavior eq;
  eq.equivocate = true;
  o.corrupt = {{1, eq}, {4, Crashed{}}};
  Cluster c(o);
  c.run_for(sim::seconds(10));
  EXPECT_GE(c.min_honest_committed(), 5u);
  expect_invariants(c);
}

TEST(Icc1Test, DeterministicAcrossRuns) {
  auto run = [] {
    Cluster c(icc1_options(7, 2, 77));
    c.run_for(sim::seconds(3));
    std::vector<types::Hash> h;
    for (const auto& b : c.party(0)->committed()) h.push_back(b.hash);
    return h;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace icc::harness
