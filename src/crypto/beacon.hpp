// Threshold random beacon: a (t, t+1, n) unique threshold signature scheme
// (paper Section 2.3, approach (iii)).
//
// Construction (DDH-based distributed VRF; see DESIGN.md for the
// substitution rationale vs the paper's threshold BLS):
//   * a dealer Shamir-shares a group secret s; party i holds s_i and
//     publishes PK_i = s_i * B;
//   * a signature share on message m is sigma_i = s_i * H2C(m) together with
//     a DLEQ proof that log_B(PK_i) = log_{H2C(m)}(sigma_i);
//   * any t+1 verified shares combine (Lagrange in the exponent) to
//     sigma = s * H2C(m) — *unique* regardless of which shares were used;
//   * the beacon value is SHA-256 of the compressed sigma.
//
// Fewer than t+1 shares give no information about sigma (DDH), so the
// adversary (holding t shares) cannot predict the beacon without an honest
// party's share — exactly the property Section 2.3 demands.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "crypto/dleq.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/shamir.hpp"

namespace icc::crypto {

struct BeaconPublic {
  Point group_pk;                ///< s * B
  std::vector<Point> share_pks;  ///< s_i * B for party i (0-based)
  size_t threshold = 0;          ///< shares needed to combine = t + 1
};

struct BeaconKeys {
  BeaconPublic pub;
  std::vector<Sc25519> secret_shares;  ///< s_i for party i (0-based)
};

/// Trusted-dealer key generation (the paper likewise assumes a trusted setup
/// or a DKG for the correlated keys; Section 3.1).
BeaconKeys beacon_keygen(size_t n, size_t t, Xoshiro256& rng);

struct BeaconShare {
  static constexpr size_t kSize = 4 + 32 + 64;  ///< signer ‖ sigma ‖ DLEQ proof

  uint32_t signer = 0;  ///< 0-based party index
  Point sigma;          ///< s_i * H2C(m)
  DleqProof proof;

  Bytes serialize() const;
  static std::optional<BeaconShare> deserialize(BytesView bytes);
};

/// Produce party `signer`'s share on `message`.
BeaconShare beacon_sign_share(BytesView message, uint32_t signer, const Sc25519& share,
                              const BeaconPublic& pub);

/// Publicly verify a share against the share public keys.
bool beacon_verify_share(BytesView message, const BeaconShare& share,
                         const BeaconPublic& pub);

/// Combine >= threshold verified shares into sigma = s * H2C(m).
/// The first `threshold` distinct signers are used; later shares are ignored.
std::optional<Point> beacon_combine(std::span<const BeaconShare> shares,
                                    const BeaconPublic& pub);

/// Lagrange interpolation in the exponent at zero: sum_j lambda_j sigmas[j],
/// where sigmas[j] is the share of 0-based party signers[j]. All coefficients
/// share one scalar inversion (lagrange_coefficients_at_zero) and the sum is
/// one Straus multi-scalar multiplication. Throws std::invalid_argument on
/// duplicate signers. The kernel behind beacon_combine.
Point beacon_interpolate(std::span<const uint32_t> signers, std::span<const Point> sigmas);

/// The beacon value: SHA-256 of the compressed combined point.
Bytes beacon_value(const Point& sigma);

/// Hash-to-curve domain used by the beacon.
Point beacon_message_point(BytesView message);

}  // namespace icc::crypto
