// Shamir secret sharing over Z_l (the Ed25519 scalar field).
//
// Used to share the random-beacon group secret (paper Section 2.3, approach
// (iii)): a degree-t polynomial f with f(0) = secret; party i holds f(i+1).
// Any t+1 shares reconstruct via Lagrange interpolation at zero; t shares
// reveal nothing (information-theoretically).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sc25519.hpp"
#include "support/rng.hpp"

namespace icc::crypto {

struct ShamirShare {
  uint32_t index;  ///< evaluation point, >= 1 (party i holds index i+1)
  Sc25519 value;
};

/// Split `secret` into n shares with reconstruction threshold t+1
/// (degree-t polynomial). Requires t < n.
std::vector<ShamirShare> shamir_share(const Sc25519& secret, size_t t, size_t n,
                                      Xoshiro256& rng);

/// Lagrange coefficient lambda_j for interpolating at zero from the given
/// evaluation points: lambda_j = prod_{m != j} x_m / (x_m - x_j).
Sc25519 lagrange_at_zero(std::span<const uint32_t> points, size_t j);

/// Every Lagrange coefficient at zero: element j equals
/// lagrange_at_zero(points, j), but the k denominators share one scalar
/// inversion (Sc25519::batch_invert) instead of one each. Throws
/// std::invalid_argument on duplicate points.
std::vector<Sc25519> lagrange_coefficients_at_zero(std::span<const uint32_t> points);

/// Reconstruct the secret from any t+1 (or more) distinct shares.
Sc25519 shamir_reconstruct(std::span<const ShamirShare> shares);

/// Sample a uniformly random scalar.
Sc25519 random_scalar(Xoshiro256& rng);

}  // namespace icc::crypto
