// Scalar arithmetic modulo the Ed25519 group order
//   l = 2^252 + 27742317777372353535851937790883648493.
//
// Scalars are the exponent space of every signature, Shamir share and
// Lagrange coefficient in this library. Representation: four 64-bit
// little-endian words, always fully reduced (< l). Reduction of wide
// (512-bit) products uses binary shift-subtract long division — simple,
// obviously correct, and fast enough for a simulation-grade library.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "support/bytes.hpp"

namespace icc::crypto {

class Xoshiro256Ref;  // fwd not needed; scalars are sampled via bytes

class Sc25519 {
 public:
  /// Zero scalar.
  constexpr Sc25519() : v_{0, 0, 0, 0} {}

  static Sc25519 zero() { return Sc25519(); }
  static Sc25519 one() { return from_u64(1); }
  static Sc25519 from_u64(uint64_t x);

  /// Reduce a 32-byte little-endian value mod l.
  static Sc25519 from_bytes_mod_l(const uint8_t bytes[32]);
  /// True iff the 32-byte little-endian value is already canonical (< l).
  /// Much cheaper than a reduce-and-compare round trip; used to reject
  /// non-canonical signature S values before any point work.
  static bool is_canonical(const uint8_t bytes[32]);
  /// Reduce a 64-byte little-endian value mod l (hash outputs).
  static Sc25519 from_bytes_wide(const uint8_t bytes[64]);
  static Sc25519 from_bytes_wide(BytesView bytes);

  /// Serialize to 32 little-endian bytes (canonical, < l).
  void to_bytes(uint8_t out[32]) const;
  Bytes to_bytes() const;

  Sc25519 operator+(const Sc25519& o) const;
  Sc25519 operator-(const Sc25519& o) const;
  Sc25519 operator*(const Sc25519& o) const;
  Sc25519 negate() const;

  /// Multiplicative inverse via Fermat (undefined for zero; returns zero).
  Sc25519 invert() const;

  /// Invert every element in place with a single invert() (Montgomery's
  /// trick: 3(k - 1) multiplications replace k - 1 inversions). Element-wise
  /// equal to invert(), zeros included.
  static void batch_invert(std::span<Sc25519> xs);

  bool is_zero() const;
  bool operator==(const Sc25519& o) const = default;

  /// Word access for tests.
  const std::array<uint64_t, 4>& words() const { return v_; }

 private:
  std::array<uint64_t, 4> v_;
};

}  // namespace icc::crypto
