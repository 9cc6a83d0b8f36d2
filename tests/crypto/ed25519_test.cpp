#include "crypto/ed25519.hpp"

#include <gtest/gtest.h>

#include "crypto/shamir.hpp"
#include "support/rng.hpp"

namespace icc::crypto {
namespace {

struct Rfc8032Vector {
  const char* name;
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

// RFC 8032 Section 7.1, TEST 1-3.
const Rfc8032Vector kVectors[] = {
    {"TEST1", "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"TEST2", "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"TEST3", "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

// Without this gtest prints the vector as its raw bytes, i.e. the string
// pointers, and the test names would change with every build and load address.
void PrintTo(const Rfc8032Vector& v, std::ostream* os) { *os << v.name; }

class Rfc8032Test : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Rfc8032Test, KeyDerivation) {
  const auto& v = GetParam();
  Bytes seed = from_hex(v.seed);
  auto kp = ed25519_keypair(seed.data());
  EXPECT_EQ(to_hex(BytesView(kp.public_key.data(), 32)), v.public_key);
}

TEST_P(Rfc8032Test, Signature) {
  const auto& v = GetParam();
  Bytes seed = from_hex(v.seed);
  auto kp = ed25519_keypair(seed.data());
  Bytes msg = from_hex(v.message);
  auto sig = ed25519_sign(kp, msg);
  EXPECT_EQ(to_hex(BytesView(sig.data(), 64)), v.signature);
}

TEST_P(Rfc8032Test, Verification) {
  const auto& v = GetParam();
  Bytes pk = from_hex(v.public_key);
  Bytes msg = from_hex(v.message);
  Bytes sig = from_hex(v.signature);
  EXPECT_TRUE(ed25519_verify(pk.data(), msg, sig.data()));
}

TEST_P(Rfc8032Test, TamperedSignatureRejected) {
  const auto& v = GetParam();
  Bytes pk = from_hex(v.public_key);
  Bytes msg = from_hex(v.message);
  Bytes sig = from_hex(v.signature);
  sig[0] ^= 1;
  EXPECT_FALSE(ed25519_verify(pk.data(), msg, sig.data()));
}

TEST_P(Rfc8032Test, TamperedMessageRejected) {
  const auto& v = GetParam();
  Bytes pk = from_hex(v.public_key);
  Bytes msg = from_hex(v.message);
  msg.push_back(0x42);
  Bytes sig = from_hex(v.signature);
  EXPECT_FALSE(ed25519_verify(pk.data(), msg, sig.data()));
}

INSTANTIATE_TEST_SUITE_P(Rfc8032, Rfc8032Test, ::testing::ValuesIn(kVectors));

TEST(PointTest, IdentityIsNeutral) {
  Point id;
  EXPECT_TRUE(id.is_identity());
  EXPECT_EQ(Point::base() + id, Point::base());
}

TEST(PointTest, DoubleMatchesAdd) {
  Point b = Point::base();
  EXPECT_EQ(b.dbl(), b + b);
  EXPECT_EQ(b.dbl().dbl(), b + b + b + b);
}

TEST(PointTest, AdditionCommutes) {
  Point b = Point::base();
  Point p = b.dbl();
  EXPECT_EQ(b + p, p + b);
}

TEST(PointTest, NegateCancels) {
  Point b = Point::base();
  EXPECT_TRUE((b - b).is_identity());
  EXPECT_TRUE((b + b.negate()).is_identity());
}

TEST(PointTest, MulBaseMatchesGenericMul) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10; ++i) {
    Sc25519 k = random_scalar(rng);
    EXPECT_EQ(Point::mul_base(k), Point::base().mul(k));
  }
}

TEST(PointTest, MulDistributesOverScalarAdd) {
  Xoshiro256 rng(8);
  Sc25519 a = random_scalar(rng), b = random_scalar(rng);
  EXPECT_EQ(Point::mul_base(a + b), Point::mul_base(a) + Point::mul_base(b));
}

TEST(PointTest, CompressDecompressRoundTrip) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10; ++i) {
    Point p = Point::mul_base(random_scalar(rng));
    auto enc = p.compress();
    auto q = Point::decompress(enc.data());
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(*q, p);
  }
}

TEST(PointTest, DecompressRejectsNonCurvePoints) {
  int rejected = 0;
  Xoshiro256 rng(10);
  for (int i = 0; i < 64; ++i) {
    Bytes b = rng.bytes(32);
    if (!Point::decompress(b.data())) ++rejected;
  }
  // Roughly half of all y values are not on the curve.
  EXPECT_GT(rejected, 10);
}

TEST(PointTest, BasePointEncoding) {
  auto enc = Point::base().compress();
  EXPECT_EQ(to_hex(BytesView(enc.data(), 32)),
            "5866666666666666666666666666666666666666666666666666666666666666");
}

TEST(PointTest, MulByZeroIsIdentity) {
  EXPECT_TRUE(Point::base().mul(Sc25519::zero()).is_identity());
  EXPECT_TRUE(Point::mul_base(Sc25519::zero()).is_identity());
}

TEST(HashToPointTest, DeterministicAndInSubgroup) {
  Bytes m = str_bytes("round-42");
  Point p1 = hash_to_point("domain", m);
  Point p2 = hash_to_point("domain", m);
  EXPECT_EQ(p1, p2);
  EXPECT_FALSE(p1.is_identity());
}

TEST(HashToPointTest, DomainSeparation) {
  Bytes m = str_bytes("message");
  EXPECT_FALSE(hash_to_point("a", m) == hash_to_point("b", m));
}

TEST(HashToPointTest, MessageSeparation) {
  EXPECT_FALSE(hash_to_point("d", str_bytes("x")) == hash_to_point("d", str_bytes("y")));
}

TEST(Ed25519Test, WrongKeyRejected) {
  Xoshiro256 rng(11);
  Bytes s1 = rng.bytes(32), s2 = rng.bytes(32);
  auto kp1 = ed25519_keypair(s1.data());
  auto kp2 = ed25519_keypair(s2.data());
  Bytes msg = str_bytes("hello");
  auto sig = ed25519_sign(kp1, msg);
  EXPECT_TRUE(ed25519_verify(kp1.public_key.data(), msg, sig.data()));
  EXPECT_FALSE(ed25519_verify(kp2.public_key.data(), msg, sig.data()));
}

TEST(Ed25519Test, NonCanonicalScalarRejected) {
  Xoshiro256 rng(12);
  Bytes s = rng.bytes(32);
  auto kp = ed25519_keypair(s.data());
  Bytes msg = str_bytes("m");
  auto sig = ed25519_sign(kp, msg);
  // Add l to S — same value mod l, non-canonical encoding; must be rejected.
  Bytes l = from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  uint16_t carry = 0;
  for (int i = 0; i < 32; ++i) {
    uint16_t sum = static_cast<uint16_t>(sig[32 + i]) + l[i] + carry;
    sig[32 + i] = static_cast<uint8_t>(sum);
    carry = sum >> 8;
  }
  EXPECT_FALSE(ed25519_verify(kp.public_key.data(), msg, sig.data()));
}

}  // namespace
}  // namespace icc::crypto
