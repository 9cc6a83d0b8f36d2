// Randomized equivalence tests for the scalar-multiplication kernels.
//
// Every optimized kernel (wNAF mul, constant-time mul_ct, comb mul_base,
// Straus mul_double / mul_double_base, Straus/Pippenger mul_multi_base) is
// checked against the retained naive reference kernels (mul_naive,
// mul_base_ladder) on random inputs and on the algebraic edge cases:
// k = 0, k = 1, k = l - 1, the identity point, and the small-order torsion
// points. Also pins down the Barrett scalar reduction with wide-input
// identities, and checks the beacon combine (batched Lagrange coefficients
// plus one multi-scalar multiplication) against the per-share reference:
// one lagrange_at_zero and one Point::mul per share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <unordered_set>
#include <vector>

#include "crypto/beacon.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sha512.hpp"
#include "crypto/shamir.hpp"

namespace icc::crypto {
namespace {

// Deterministic "random" scalar stream: H(domain || counter).
Sc25519 fuzz_scalar(uint64_t i) {
  Sha512 h;
  h.update("kernel-equivalence-scalar");
  uint8_t le[8];
  for (int j = 0; j < 8; ++j) le[j] = static_cast<uint8_t>(i >> (8 * j));
  h.update(BytesView(le, 8));
  return Sc25519::from_bytes_wide(h.digest().data());
}

Point fuzz_point(uint64_t i) {
  Sha512 h;
  h.update("kernel-equivalence-point");
  uint8_t le[8];
  for (int j = 0; j < 8; ++j) le[j] = static_cast<uint8_t>(i >> (8 * j));
  h.update(BytesView(le, 8));
  return Point::mul_base_ladder(Sc25519::from_bytes_wide(h.digest().data()));
}

std::vector<Point> small_order_points() {
  // All valid small-order encodings (see ed25519_adversarial_test.cpp).
  const char* hexes[] = {
      "0100000000000000000000000000000000000000000000000000000000000000",  // id
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // ord 2
      "0000000000000000000000000000000000000000000000000000000000000000",  // ord 4
      "0000000000000000000000000000000000000000000000000000000000000080",
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",  // ord 8
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
      "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
      "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
  };
  std::vector<Point> pts;
  for (const char* hex : hexes) {
    uint8_t enc[32];
    for (int i = 0; i < 32; ++i) {
      auto nib = [&](char c) -> uint8_t {
        return c <= '9' ? static_cast<uint8_t>(c - '0')
                        : static_cast<uint8_t>(c - 'a' + 10);
      };
      enc[i] = static_cast<uint8_t>(nib(hex[2 * i]) << 4 | nib(hex[2 * i + 1]));
    }
    auto p = Point::decompress(enc);
    EXPECT_TRUE(p.has_value());
    if (p) pts.push_back(*p);
  }
  return pts;
}

TEST(KernelEquivalence, VariableBaseKernelsMatchNaive) {
  // The headline fuzz loop: 1000 random (point, scalar) pairs through every
  // variable-base kernel.
  for (uint64_t i = 0; i < 1000; ++i) {
    Point p = fuzz_point(i);
    Sc25519 k = fuzz_scalar(i);
    Point expected = p.mul_naive(k);
    EXPECT_EQ(p.mul(k), expected) << "wNAF mismatch at iteration " << i;
    EXPECT_EQ(p.mul_ct(k), expected) << "mul_ct mismatch at iteration " << i;
  }
}

TEST(KernelEquivalence, FixedBaseKernelsMatch) {
  for (uint64_t i = 0; i < 300; ++i) {
    Sc25519 k = fuzz_scalar(1000 + i);
    Point expected = Point::mul_base_ladder(k);
    EXPECT_EQ(Point::mul_base(k), expected) << "comb mismatch at iteration " << i;
    EXPECT_EQ(Point::base().mul(k), expected);
  }
}

TEST(KernelEquivalence, EdgeScalars) {
  const Sc25519 zero = Sc25519::zero();
  const Sc25519 one = Sc25519::one();
  const Sc25519 l_minus_1 = one.negate();  // l - 1 == -1 mod l
  Point p = fuzz_point(42);

  for (const Sc25519& k : {zero, one, l_minus_1}) {
    Point expected = p.mul_naive(k);
    EXPECT_EQ(p.mul(k), expected);
    EXPECT_EQ(p.mul_ct(k), expected);
    EXPECT_EQ(Point::mul_base(k), Point::mul_base_ladder(k));
  }
  EXPECT_TRUE(p.mul(zero).is_identity());
  EXPECT_EQ(p.mul(one), p);
  EXPECT_EQ(p.mul(l_minus_1), p.negate());

  // Identity point in, identity out, for every scalar.
  Point id;
  EXPECT_TRUE(id.mul(fuzz_scalar(7)).is_identity());
  EXPECT_TRUE(id.mul_ct(fuzz_scalar(7)).is_identity());
}

TEST(KernelEquivalence, SmallOrderPoints) {
  // Torsion points exercise the completeness of the unified formulas; the
  // optimized kernels must agree with the naive ladder on them bit for bit.
  for (const Point& p : small_order_points()) {
    for (uint64_t i = 0; i < 16; ++i) {
      Sc25519 k = i < 8 ? Sc25519::from_u64(i) : fuzz_scalar(2000 + i);
      Point expected = p.mul_naive(k);
      EXPECT_EQ(p.mul(k), expected);
      EXPECT_EQ(p.mul_ct(k), expected);
    }
  }
}

TEST(KernelEquivalence, DoubleScalarKernels) {
  for (uint64_t i = 0; i < 100; ++i) {
    Sc25519 s = fuzz_scalar(3000 + i);
    Sc25519 k = fuzz_scalar(4000 + i);
    Point a = fuzz_point(3000 + i);
    Point b = fuzz_point(4000 + i);
    EXPECT_EQ(Point::mul_double_base(s, k, a),
              Point::mul_base_ladder(s) + a.mul_naive(k));
    EXPECT_EQ(Point::mul_double(s, a, k, b), a.mul_naive(s) + b.mul_naive(k));
  }
  // Degenerate scalar combinations.
  Point a = fuzz_point(1);
  Sc25519 z = Sc25519::zero(), m1 = Sc25519::one().negate();
  EXPECT_TRUE(Point::mul_double_base(z, z, a).is_identity());
  EXPECT_EQ(Point::mul_double_base(z, m1, a), a.negate());
  EXPECT_EQ(Point::mul_double(m1, a, z, a), a.negate());
}

TEST(KernelEquivalence, SplitVerifyKernel) {
  // mul_verify_scaled returns v (s B - k A - R) for some secret v coprime
  // to l. Its contract is the cofactored predicate: 8 * result == identity
  // exactly when 8 * (s B - k A - R) == identity.
  for (uint64_t i = 0; i < 100; ++i) {
    Sc25519 s = fuzz_scalar(5000 + i);
    Sc25519 k = fuzz_scalar(6000 + i);
    Point a = fuzz_point(5000 + i);
    // Valid equation: R := s B - k A.
    Point r = Point::mul_base_ladder(s) - a.mul_naive(k);
    EXPECT_TRUE(Point::mul_verify_scaled(s, k, a, r).mul_cofactor().is_identity())
        << "valid equation rejected at iteration " << i;
    // The cofactored predicate tolerates torsion offsets of R.
    Point r_tor = r + small_order_points()[4];  // + order-8 point
    EXPECT_TRUE(Point::mul_verify_scaled(s, k, a, r_tor).mul_cofactor().is_identity());
    // Any prime-order-subgroup perturbation must be caught.
    Point r_bad = r + fuzz_point(6000 + i);
    EXPECT_FALSE(Point::mul_verify_scaled(s, k, a, r_bad).mul_cofactor().is_identity())
        << "perturbed equation accepted at iteration " << i;
  }
  // Degenerate scalars: k = 0 (split hits u = 0, v = 1) and s = 0.
  Point a = fuzz_point(77);
  Sc25519 z = Sc25519::zero(), s = fuzz_scalar(77);
  Point r = Point::mul_base_ladder(s);
  EXPECT_TRUE(Point::mul_verify_scaled(s, z, a, r).mul_cofactor().is_identity());
  EXPECT_TRUE(
      Point::mul_verify_scaled(z, z, a, Point()).mul_cofactor().is_identity());
  EXPECT_FALSE(Point::mul_verify_scaled(z, z, a, r).mul_cofactor().is_identity());
}

TEST(KernelEquivalence, MultiScalarStraus) {
  // Sizes below the Pippenger threshold, including empty and singleton.
  for (size_t m : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{20}}) {
    Sc25519 s = fuzz_scalar(5000 + m);
    std::vector<Sc25519> ks;
    std::vector<Point> ps;
    Point expected = Point::mul_base_ladder(s);
    for (size_t i = 0; i < m; ++i) {
      ks.push_back(fuzz_scalar(6000 + 100 * m + i));
      ps.push_back(fuzz_point(6000 + 100 * m + i));
      expected = expected + ps.back().mul_naive(ks.back());
    }
    EXPECT_EQ(Point::mul_multi_base(s, ks, ps), expected) << "m = " << m;
  }
}

TEST(KernelEquivalence, MultiScalarWithEdgeScalarsAndTorsion) {
  Sc25519 s = fuzz_scalar(7000);
  std::vector<Sc25519> ks = {Sc25519::zero(), Sc25519::one().negate(), fuzz_scalar(7001)};
  std::vector<Point> ps = {fuzz_point(7000), fuzz_point(7001), small_order_points()[4]};
  Point expected = Point::mul_base_ladder(s);
  for (size_t i = 0; i < ks.size(); ++i) expected = expected + ps[i].mul_naive(ks[i]);
  EXPECT_EQ(Point::mul_multi_base(s, ks, ps), expected);
}

TEST(KernelEquivalence, MultiScalarPippenger) {
  // Past the threshold (192 points) the bucket method takes over.
  constexpr size_t kM = 200;
  Sc25519 s = fuzz_scalar(8000);
  std::vector<Sc25519> ks;
  std::vector<Point> ps;
  Point expected = Point::mul_base_ladder(s);
  for (size_t i = 0; i < kM; ++i) {
    ks.push_back(fuzz_scalar(9000 + i));
    ps.push_back(fuzz_point(9000 + i));
    expected = expected + ps.back().mul_naive(ks.back());
  }
  EXPECT_EQ(Point::mul_multi_base(s, ks, ps), expected);
}

TEST(BarrettReduction, WideInputIdentities) {
  // 2^512 - 1 = (2^256 - 1) * 2^256 + (2^256 - 1): the widest possible
  // input to from_bytes_wide must be consistent with narrow reductions and
  // scalar arithmetic (both independently tested).
  uint8_t ff32[32], ff64[64];
  std::memset(ff32, 0xff, sizeof(ff32));
  std::memset(ff64, 0xff, sizeof(ff64));
  Sc25519 a = Sc25519::from_bytes_mod_l(ff32);      // 2^256 - 1 mod l
  Sc25519 two256 = a + Sc25519::one();              // 2^256 mod l
  EXPECT_EQ(Sc25519::from_bytes_wide(ff64), a * two256 + a);

  // l itself reduces to zero; l - 1 and l + 1 straddle it.
  uint8_t lb[32];
  Sc25519 l_minus_1 = Sc25519::one().negate();
  l_minus_1.to_bytes(lb);
  EXPECT_TRUE(Sc25519::is_canonical(lb));
  lb[0] += 1;  // l (no carry: l - 1 ends in 0xec)
  EXPECT_FALSE(Sc25519::is_canonical(lb));
  EXPECT_TRUE(Sc25519::from_bytes_mod_l(lb).is_zero());
  lb[0] += 1;  // l + 1
  EXPECT_FALSE(Sc25519::is_canonical(lb));
  EXPECT_EQ(Sc25519::from_bytes_mod_l(lb), Sc25519::one());
}

TEST(BatchInversion, MatchesInvertElementByElement) {
  const Sc25519 l_minus_1 = Sc25519::one().negate();
  for (size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{40}}) {
    std::vector<Sc25519> xs;
    for (size_t i = 0; i < k; ++i) xs.push_back(fuzz_scalar(10000 + 100 * k + i));
    if (k >= 7) {  // edge elements, zeros included (they must stay zero)
      xs[0] = Sc25519::zero();
      xs[2] = Sc25519::one();
      xs[4] = l_minus_1;
      xs[6] = Sc25519::zero();
    }
    std::vector<Sc25519> batch = xs;
    Sc25519::batch_invert(batch);
    for (size_t i = 0; i < k; ++i)
      EXPECT_EQ(batch[i], xs[i].invert()) << "k = " << k << ", element " << i;
  }
  std::vector<Sc25519> zeros(3);
  Sc25519::batch_invert(zeros);
  for (const Sc25519& z : zeros) EXPECT_TRUE(z.is_zero());
}

TEST(BatchInversion, LagrangeCoefficientsMatchPerIndex) {
  Xoshiro256 rng(11);
  for (size_t k : {size_t{1}, size_t{2}, size_t{5}, size_t{34}}) {
    std::vector<uint32_t> points;
    std::unordered_set<uint32_t> used;
    while (points.size() < k) {
      const uint32_t x = static_cast<uint32_t>(1 + rng.below(1000));
      if (used.insert(x).second) points.push_back(x);
    }
    const std::vector<Sc25519> all = lagrange_coefficients_at_zero(points);
    ASSERT_EQ(all.size(), k);
    for (size_t j = 0; j < k; ++j)
      EXPECT_EQ(all[j], lagrange_at_zero(points, j)) << "k = " << k << ", j = " << j;
  }
  EXPECT_TRUE(lagrange_coefficients_at_zero(std::vector<uint32_t>{}).empty());
  EXPECT_THROW(lagrange_coefficients_at_zero(std::vector<uint32_t>{3, 5, 3}),
               std::invalid_argument);
}

// The combine as it was before the batched kernel: the first `threshold`
// distinct signers, one inversion and one variable-base mul per share.
std::optional<Point> reference_beacon_combine(std::span<const BeaconShare> shares,
                                              const BeaconPublic& pub) {
  std::vector<const BeaconShare*> chosen;
  std::unordered_set<uint32_t> seen;
  for (const auto& s : shares) {
    if (seen.insert(s.signer).second) chosen.push_back(&s);
    if (chosen.size() == pub.threshold) break;
  }
  if (chosen.size() < pub.threshold) return std::nullopt;
  std::vector<uint32_t> points;
  for (const auto* s : chosen) points.push_back(s->signer + 1);
  Point sigma;
  for (size_t j = 0; j < chosen.size(); ++j)
    sigma = sigma + chosen[j]->sigma.mul(lagrange_at_zero(points, j));
  return sigma;
}

TEST(BeaconCombineEquivalence, MatchesPerShareReference) {
  for (size_t n : {size_t{4}, size_t{16}, size_t{32}, size_t{100}}) {
    const size_t t = (n - 1) / 3;
    Xoshiro256 rng(1000 + n);
    const BeaconKeys keys = beacon_keygen(n, t, rng);
    const Bytes msg = rng.bytes(32);
    std::vector<BeaconShare> all;
    for (uint32_t i = 0; i < n; ++i)
      all.push_back(beacon_sign_share(msg, i, keys.secret_shares[i], keys.pub));
    const Point truth = *reference_beacon_combine(all, keys.pub);

    for (int trial = 0; trial < 12; ++trial) {
      // A shuffled random subset: sometimes short of the threshold, always
      // holding signer n - 1 on even trials.
      std::vector<BeaconShare> subset = all;
      std::shuffle(subset.begin(), subset.end(), rng);
      const size_t take = trial % 4 == 3 ? t : t + 1 + rng.below(n - t);
      subset.resize(take);
      if (trial % 2 == 0 && take > 0 &&
          std::none_of(subset.begin(), subset.end(),
                       [&](const BeaconShare& s) { return s.signer == n - 1; }))
        subset[rng.below(take)] = all[n - 1];
      // Duplicate signers: repeat a share, and on odd trials put a bogus
      // share ahead of its signer's real one. The first occurrence of a
      // signer wins in both implementations, so odd trials combine to a
      // wrong value — the same wrong value.
      subset.insert(subset.begin() + 1, subset[0]);
      if (trial % 2 == 1) {
        BeaconShare bogus = subset[0];
        bogus.sigma = bogus.sigma + Point::base();
        subset.insert(subset.begin(), bogus);
      }

      const auto expected = reference_beacon_combine(subset, keys.pub);
      const auto got = beacon_combine(subset, keys.pub);
      ASSERT_EQ(got.has_value(), expected.has_value()) << "n = " << n << ", trial " << trial;
      if (!expected) continue;
      EXPECT_EQ(*got, *expected) << "n = " << n << ", trial " << trial;
      EXPECT_EQ(*got == truth, trial % 2 == 0) << "n = " << n << ", trial " << trial;
    }
  }
}

}  // namespace
}  // namespace icc::crypto
