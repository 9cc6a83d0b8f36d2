// Behavioural contract of CryptoProvider, run against BOTH implementations.
// Every protocol-visible property the consensus layer relies on must hold
// identically for the real Ed25519 provider and the fast simulation oracle.
#include "crypto/provider.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/ed25519.hpp"

namespace icc::crypto {
namespace {

// 64-bit so that ProviderCase has no padding: gtest prints the parameter's
// raw bytes into the test name, and uninitialised padding bytes would give the
// same case a different name in every build.
enum class Kind : uint64_t { kReal, kFast };

struct ProviderCase {
  Kind kind;
  size_t n;
  size_t t;
};

std::unique_ptr<CryptoProvider> make(const ProviderCase& c, uint64_t seed = 77) {
  return c.kind == Kind::kReal ? make_real_provider(c.n, c.t, seed)
                               : make_fast_provider(c.n, c.t, seed);
}

class ProviderTest : public ::testing::TestWithParam<ProviderCase> {};

TEST_P(ProviderTest, Parameters) {
  auto p = make(GetParam());
  EXPECT_EQ(p->n(), GetParam().n);
  EXPECT_EQ(p->t(), GetParam().t);
  EXPECT_EQ(p->quorum(), GetParam().n - GetParam().t);
  EXPECT_EQ(p->beacon_threshold(), GetParam().t + 1);
}

TEST_P(ProviderTest, SignVerify) {
  auto p = make(GetParam());
  Bytes msg = str_bytes("authenticate block");
  Bytes sig = p->sign(0, msg);
  EXPECT_EQ(sig.size(), p->wire_sizes().signature);
  EXPECT_TRUE(p->verify(0, msg, sig));
  EXPECT_FALSE(p->verify(1, msg, sig));                   // wrong signer
  EXPECT_FALSE(p->verify(0, str_bytes("other"), sig));    // wrong message
  Bytes bad = sig;
  bad[0] ^= 1;
  EXPECT_FALSE(p->verify(0, msg, bad));                   // tampered
}

TEST_P(ProviderTest, ThresholdShareVerify) {
  auto p = make(GetParam());
  Bytes msg = str_bytes("notarization payload");
  Bytes share = p->threshold_sign_share(Scheme::kNotary, 2, msg);
  EXPECT_EQ(share.size(), p->wire_sizes().threshold_share);
  EXPECT_TRUE(p->threshold_verify_share(Scheme::kNotary, 2, msg, share));
  EXPECT_FALSE(p->threshold_verify_share(Scheme::kNotary, 1, msg, share));
  // Cross-scheme replay must fail: a notarization share is not a
  // finalization share on the same message.
  EXPECT_FALSE(p->threshold_verify_share(Scheme::kFinal, 2, msg, share));
}

TEST_P(ProviderTest, ThresholdCombineAndVerify) {
  auto p = make(GetParam());
  Bytes msg = str_bytes("block hash xyz");
  std::vector<std::pair<PartyIndex, Bytes>> shares;
  for (PartyIndex i = 0; i < p->quorum(); ++i)
    shares.emplace_back(i, p->threshold_sign_share(Scheme::kNotary, i, msg));
  Bytes agg = p->threshold_combine(Scheme::kNotary, msg, shares);
  ASSERT_FALSE(agg.empty());
  EXPECT_EQ(agg.size(), p->wire_sizes().threshold_agg);
  EXPECT_TRUE(p->threshold_verify(Scheme::kNotary, msg, agg));
  EXPECT_FALSE(p->threshold_verify(Scheme::kFinal, msg, agg));
  EXPECT_FALSE(p->threshold_verify(Scheme::kNotary, str_bytes("other"), agg));
}

TEST_P(ProviderTest, ThresholdCombineRequiresQuorum) {
  auto p = make(GetParam());
  Bytes msg = str_bytes("m");
  std::vector<std::pair<PartyIndex, Bytes>> shares;
  for (PartyIndex i = 0; i + 1 < p->quorum(); ++i)
    shares.emplace_back(i, p->threshold_sign_share(Scheme::kNotary, i, msg));
  EXPECT_TRUE(p->threshold_combine(Scheme::kNotary, msg, shares).empty());
}

TEST_P(ProviderTest, ThresholdCombineIgnoresDuplicatesAndJunk) {
  auto p = make(GetParam());
  Bytes msg = str_bytes("m");
  std::vector<std::pair<PartyIndex, Bytes>> shares;
  Bytes s0 = p->threshold_sign_share(Scheme::kNotary, 0, msg);
  for (size_t i = 0; i < p->quorum(); ++i) shares.emplace_back(0, s0);  // duplicates
  shares.emplace_back(1, Bytes(p->wire_sizes().threshold_share, 0xee));  // junk
  EXPECT_TRUE(p->threshold_combine(Scheme::kNotary, msg, shares).empty());
}

TEST_P(ProviderTest, BeaconShareFlow) {
  auto p = make(GetParam());
  Bytes msg = str_bytes("beacon prev value");
  std::vector<std::pair<PartyIndex, Bytes>> shares;
  for (PartyIndex i = 0; i < p->beacon_threshold(); ++i) {
    Bytes s = p->beacon_sign_share(i, msg);
    EXPECT_EQ(s.size(), p->wire_sizes().beacon_share);
    EXPECT_TRUE(p->beacon_verify_share(i, msg, s));
    EXPECT_FALSE(p->beacon_verify_share(i, str_bytes("x"), s));
    shares.emplace_back(i, s);
  }
  Bytes value = p->beacon_combine(msg, shares);
  ASSERT_FALSE(value.empty());
  EXPECT_EQ(value.size(), p->wire_sizes().beacon_value);
  EXPECT_TRUE(p->beacon_verify(msg, value));
  EXPECT_FALSE(p->beacon_verify(str_bytes("x"), value));
}

TEST_P(ProviderTest, BeaconIsUniqueAcrossQuorums) {
  auto p = make(GetParam());
  if (p->beacon_threshold() >= p->n()) GTEST_SKIP() << "needs spare shares";
  Bytes msg = str_bytes("round 9");
  std::vector<std::pair<PartyIndex, Bytes>> q1, q2;
  for (PartyIndex i = 0; i < p->beacon_threshold(); ++i)
    q1.emplace_back(i, p->beacon_sign_share(i, msg));
  for (PartyIndex i = 1; i <= p->beacon_threshold(); ++i)
    q2.emplace_back(i, p->beacon_sign_share(i, msg));
  Bytes v1 = p->beacon_combine(msg, q1);
  Bytes v2 = p->beacon_combine(msg, q2);
  ASSERT_FALSE(v1.empty());
  EXPECT_EQ(v1, v2);
}

TEST_P(ProviderTest, BeaconCombineRequiresThreshold) {
  auto p = make(GetParam());
  if (p->beacon_threshold() < 2) GTEST_SKIP() << "t = 0 combines from one share";
  Bytes msg = str_bytes("m");
  std::vector<std::pair<PartyIndex, Bytes>> shares;
  for (PartyIndex i = 0; i + 1 < p->beacon_threshold(); ++i)
    shares.emplace_back(i, p->beacon_sign_share(i, msg));
  EXPECT_TRUE(p->beacon_combine(msg, shares).empty());
}

// The preverified combine decodes only the sigmas it uses, two at a time.
// Any order, repeated signers, malformed entries and odd counts must give the
// verifying combine's value, and fewer than t+1 signers must give nothing.
TEST_P(ProviderTest, PreverifiedBeaconCombineMatchesVerifyingCombine) {
  auto p = make(GetParam());
  const Bytes msg = str_bytes("round 12");
  std::vector<std::pair<PartyIndex, Bytes>> all;
  for (PartyIndex i = 0; i < p->n(); ++i) all.emplace_back(i, p->beacon_sign_share(i, msg));
  const Bytes value = p->beacon_combine(msg, all);
  ASSERT_FALSE(value.empty());

  // A truncated share, then every share twice in reverse order.
  std::vector<std::pair<PartyIndex, Bytes>> mixed;
  mixed.emplace_back(all[1].first, Bytes(all[1].second.begin(), all[1].second.end() - 1));
  for (size_t i = all.size(); i-- > 0;) {
    mixed.push_back(all[i]);
    mixed.push_back(all[i]);
  }
  EXPECT_EQ(p->beacon_combine_preverified(msg, mixed), value);

  const size_t need = p->beacon_threshold();
  for (size_t k = 1; k <= need; ++k) {
    const std::span<const std::pair<PartyIndex, Bytes>> first(all.data(), k);
    EXPECT_EQ(p->beacon_combine_preverified(msg, first), k < need ? Bytes{} : value)
        << k << " shares";
  }

  if (GetParam().kind != Kind::kReal) return;
  // A share whose sigma is not a curve point is skipped, here while paired
  // with a good one, and a later share from the same signer still counts:
  // exactly t+1 decodable signers follow it.
  Bytes bad = all[0].second;
  for (uint8_t y = 2;; ++y) {
    std::fill(bad.begin() + 4, bad.begin() + 36, 0);
    bad[4] = y;
    if (!Point::decompress(BytesView(bad).subspan(4, 32))) break;
  }
  std::vector<std::pair<PartyIndex, Bytes>> with_bad = {{0, bad}, all[1], all[0]};
  with_bad.insert(with_bad.end(), all.begin() + 2, all.begin() + need);
  EXPECT_EQ(p->beacon_combine_preverified(msg, with_bad), value);
  with_bad.erase(with_bad.begin() + 2);  // without signer 0's good share: t signers
  EXPECT_TRUE(p->beacon_combine_preverified(msg, with_bad).empty());
}

TEST_P(ProviderTest, DeterministicAcrossInstancesWithSameSeed) {
  auto p1 = make(GetParam(), 123);
  auto p2 = make(GetParam(), 123);
  Bytes msg = str_bytes("m");
  EXPECT_EQ(p1->sign(0, msg), p2->sign(0, msg));
  // Cross-verification also works: same seed -> same keys.
  EXPECT_TRUE(p2->verify(0, msg, p1->sign(0, msg)));
}

TEST_P(ProviderTest, DifferentSeedsGiveIndependentKeys) {
  auto p1 = make(GetParam(), 1);
  auto p2 = make(GetParam(), 2);
  Bytes msg = str_bytes("m");
  EXPECT_FALSE(p2->verify(0, msg, p1->sign(0, msg)));
}

INSTANTIATE_TEST_SUITE_P(
    Providers, ProviderTest,
    ::testing::Values(ProviderCase{Kind::kReal, 4, 1}, ProviderCase{Kind::kReal, 7, 2},
                      ProviderCase{Kind::kFast, 4, 1}, ProviderCase{Kind::kFast, 7, 2},
                      ProviderCase{Kind::kFast, 13, 4}, ProviderCase{Kind::kFast, 40, 13}),
    [](const auto& info) {
      const auto& c = info.param;
      return std::string(c.kind == Kind::kReal ? "Real" : "Fast") + "_n" +
             std::to_string(c.n) + "t" + std::to_string(c.t);
    });

}  // namespace
}  // namespace icc::crypto
