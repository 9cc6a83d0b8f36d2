// Pluggable cryptography for the consensus layer.
//
// The ICC protocols (Section 3.2) use four primitives: an individual
// signature scheme S_auth, two (t, n-t, n)-threshold schemes S_notary and
// S_final, and a (t, t+1, n) unique-threshold scheme S_beacon. Consensus
// code talks to them only through this interface, which lets the simulator
// swap between
//   * RealCryptoProvider — Ed25519 signatures, aggregated multi-signatures,
//     DDH-based threshold beacon (everything implemented in this repo,
//     no external libraries), and
//   * FastCryptoProvider — a simulation oracle producing SHA-256 tags with
//     *configurable wire sizes*; semantically equivalent for protocol logic
//     (unforgeable by construction inside the simulation, unique beacon),
//     but ~10^3x faster, enabling 40-node x hundreds-of-rounds experiments.
//
// A single provider instance holds the key material of ALL parties, playing
// the role of the paper's trusted dealer (Section 3.1). Party code only ever
// signs under its own index; adversarial code only under corrupt indices.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace icc::crypto {

using PartyIndex = uint32_t;

/// Which threshold instance a share belongs to.
enum class Scheme : uint8_t { kNotary = 0, kFinal = 1 };

/// Byte sizes of the artifacts a provider puts on the wire. Traffic
/// accounting in the simulator uses the *actual* serialized sizes, which
/// the providers guarantee to match these numbers.
struct WireSizes {
  size_t signature;        ///< S_auth signature
  size_t threshold_share;  ///< S_notary / S_final share
  size_t threshold_agg;    ///< combined notarization/finalization signature
  size_t beacon_share;
  size_t beacon_value;
};

class CryptoProvider {
 public:
  virtual ~CryptoProvider() = default;

  virtual size_t n() const = 0;
  virtual size_t t() const = 0;
  /// Shares required for S_notary / S_final: n - t.
  size_t quorum() const { return n() - t(); }
  /// Shares required for the beacon: t + 1.
  size_t beacon_threshold() const { return t() + 1; }

  virtual WireSizes wire_sizes() const = 0;

  // --- S_auth ---
  virtual Bytes sign(PartyIndex signer, BytesView message) = 0;
  virtual bool verify(PartyIndex signer, BytesView message, BytesView signature) const = 0;

  // --- S_notary / S_final ---
  virtual Bytes threshold_sign_share(Scheme scheme, PartyIndex signer,
                                     BytesView message) = 0;
  virtual bool threshold_verify_share(Scheme scheme, PartyIndex signer, BytesView message,
                                      BytesView share) const = 0;
  /// Combine shares (signer, share-bytes) into an aggregate signature.
  /// Returns empty on failure (fewer than quorum() distinct valid signers).
  virtual Bytes threshold_combine(Scheme scheme, BytesView message,
                                  std::span<const std::pair<PartyIndex, Bytes>> shares) = 0;
  /// Like threshold_combine but the CALLER vouches that every share has
  /// already been verified (e.g. by the ingress pipeline's memoized
  /// verifier), so no per-share signature checks are repeated. Structural
  /// checks (share size, distinct signers, quorum count) still apply.
  /// Default falls back to the verifying combine.
  virtual Bytes threshold_combine_preverified(
      Scheme scheme, BytesView message,
      std::span<const std::pair<PartyIndex, Bytes>> shares);
  virtual bool threshold_verify(Scheme scheme, BytesView message,
                                BytesView aggregate) const = 0;

  // --- S_beacon ---
  virtual Bytes beacon_sign_share(PartyIndex signer, BytesView message) = 0;
  virtual bool beacon_verify_share(PartyIndex signer, BytesView message,
                                   BytesView share) const = 0;
  /// Combine beacon shares into the (unique) beacon value (32 bytes).
  /// Returns empty on failure.
  virtual Bytes beacon_combine(BytesView message,
                               std::span<const std::pair<PartyIndex, Bytes>> shares) = 0;
  /// Preverified variant of beacon_combine (see threshold_combine_preverified):
  /// skips the per-share DLEQ checks the caller already performed. Default
  /// falls back to the verifying combine.
  virtual Bytes beacon_combine_preverified(
      BytesView message, std::span<const std::pair<PartyIndex, Bytes>> shares);
  virtual bool beacon_verify(BytesView message, BytesView value) const = 0;
};

/// Full Ed25519 + multisig + DVRF provider (dealer keygen from `seed`).
std::unique_ptr<CryptoProvider> make_real_provider(size_t n, size_t t, uint64_t seed);

/// Simulation-oracle provider. `sizes` controls modeled wire sizes; defaults
/// approximate the compact BLS deployment of the paper (48-byte threshold
/// signatures, 64-byte Ed25519 authenticators).
std::unique_ptr<CryptoProvider> make_fast_provider(size_t n, size_t t, uint64_t seed);
std::unique_ptr<CryptoProvider> make_fast_provider(size_t n, size_t t, uint64_t seed,
                                                   const WireSizes& sizes);

}  // namespace icc::crypto
