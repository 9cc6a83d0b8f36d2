#include "crypto/provider.hpp"

#include <cstring>
#include <map>
#include <stdexcept>

#include "crypto/beacon.hpp"
#include "crypto/multisig.hpp"
#include "crypto/sha256.hpp"
#include "support/serial.hpp"

namespace icc::crypto {

Bytes CryptoProvider::threshold_combine_preverified(
    Scheme scheme, BytesView message,
    std::span<const std::pair<PartyIndex, Bytes>> shares) {
  return threshold_combine(scheme, message, shares);
}

Bytes CryptoProvider::beacon_combine_preverified(
    BytesView message, std::span<const std::pair<PartyIndex, Bytes>> shares) {
  return beacon_combine(message, shares);
}

namespace {

// ---------------------------------------------------------------------------
// RealCryptoProvider
// ---------------------------------------------------------------------------

class RealCryptoProvider final : public CryptoProvider {
 public:
  RealCryptoProvider(size_t n, size_t t, uint64_t seed) : n_(n), t_(t) {
    if (n == 0 || t >= n) throw std::invalid_argument("provider: need 0 <= t < n");
    Xoshiro256 rng(seed);
    keypairs_.reserve(n);
    public_keys_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Bytes s = rng.bytes(32);
      auto kp = ed25519_keypair(s.data());
      keypairs_.push_back(kp);
      public_keys_.push_back(kp.public_key);
    }
    beacon_ = beacon_keygen(n, t, rng);
  }

  size_t n() const override { return n_; }
  size_t t() const override { return t_; }

  WireSizes wire_sizes() const override {
    // Real sizes: Ed25519 sig = 64; multisig share = 64; aggregate =
    // 4 + bitmap + 64 * quorum; beacon share = 4 + 32 + 64; value = 32.
    return WireSizes{64, 64, 4 + (n_ + 7) / 8 + 64 * quorum(), 100, 32};
  }

  Bytes sign(PartyIndex signer, BytesView message) override {
    auto sig = ed25519_sign(kp(signer), message);
    return Bytes(sig.begin(), sig.end());
  }

  bool verify(PartyIndex signer, BytesView message, BytesView signature) const override {
    if (signer >= n_ || signature.size() != 64) return false;
    return ed25519_verify(public_keys_[signer].data(), message, signature.data());
  }

  Bytes threshold_sign_share(Scheme scheme, PartyIndex signer, BytesView message) override {
    // Domain-separate the two instances so a notarization share can never be
    // replayed as a finalization share.
    return sign(signer, tagged(scheme, message));
  }

  bool threshold_verify_share(Scheme scheme, PartyIndex signer, BytesView message,
                              BytesView share) const override {
    return verify(signer, tagged(scheme, message), share);
  }

  Bytes threshold_combine(Scheme scheme, BytesView message,
                          std::span<const std::pair<PartyIndex, Bytes>> shares) override {
    // Batch-verify all well-formed shares at once (the common case is that
    // every share is valid); fall back to per-share verification only when
    // the combined check fails, to identify and drop the bad ones.
    Bytes msg = tagged(scheme, message);
    std::vector<MultiSigShare> candidates;
    std::vector<Ed25519BatchItem> items;
    candidates.reserve(shares.size());
    items.reserve(shares.size());
    for (const auto& [signer, data] : shares) {
      if (signer >= n_ || data.size() != 64) continue;
      MultiSigShare s;
      s.signer = signer;
      std::memcpy(s.signature.data(), data.data(), 64);
      candidates.push_back(s);
      items.push_back({BytesView(public_keys_[signer].data(), 32), BytesView(msg),
                       BytesView(data)});
    }
    std::vector<MultiSigShare> ms_shares;
    if (ed25519_verify_batch(items)) {
      ms_shares = std::move(candidates);
    } else {
      ms_shares.reserve(candidates.size());
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (ed25519_verify(items[i].public_key, items[i].message, items[i].signature))
          ms_shares.push_back(candidates[i]);
      }
    }
    auto ms = multisig_combine(ms_shares, quorum(), n_);
    if (!ms) return {};
    return ms->serialize();
  }

  Bytes threshold_combine_preverified(
      Scheme scheme, BytesView message,
      std::span<const std::pair<PartyIndex, Bytes>> shares) override {
    (void)scheme;
    (void)message;
    std::vector<MultiSigShare> ms_shares;
    ms_shares.reserve(shares.size());
    for (const auto& [signer, data] : shares) {
      if (signer >= n_ || data.size() != 64) continue;
      MultiSigShare s;
      s.signer = signer;
      std::memcpy(s.signature.data(), data.data(), 64);
      ms_shares.push_back(s);
    }
    auto ms = multisig_combine(ms_shares, quorum(), n_);
    if (!ms) return {};
    return ms->serialize();
  }

  bool threshold_verify(Scheme scheme, BytesView message, BytesView aggregate) const override {
    auto ms = MultiSig::deserialize(aggregate);
    if (!ms) return false;
    return multisig_verify(*ms, public_keys_, tagged(scheme, message), quorum());
  }

  Bytes beacon_sign_share(PartyIndex signer, BytesView message) override {
    if (signer >= n_) throw std::invalid_argument("beacon_sign_share: bad signer");
    return icc::crypto::beacon_sign_share(message, signer, beacon_.secret_shares[signer],
                                          beacon_.pub)
        .serialize();
  }

  bool beacon_verify_share(PartyIndex signer, BytesView message,
                           BytesView share) const override {
    auto s = BeaconShare::deserialize(share);
    if (!s || s->signer != signer) return false;
    return icc::crypto::beacon_verify_share(message, *s, beacon_.pub);
  }

  Bytes beacon_combine(BytesView message,
                       std::span<const std::pair<PartyIndex, Bytes>> shares) override {
    std::vector<BeaconShare> parsed;
    parsed.reserve(shares.size());
    for (const auto& [signer, data] : shares) {
      auto s = BeaconShare::deserialize(data);
      if (!s || s->signer != signer) continue;
      if (!icc::crypto::beacon_verify_share(message, *s, beacon_.pub)) continue;
      parsed.push_back(*s);
    }
    auto sigma = icc::crypto::beacon_combine(parsed, beacon_.pub);
    if (!sigma) return {};
    return icc::crypto::beacon_value(*sigma);
  }

  Bytes beacon_combine_preverified(
      BytesView message, std::span<const std::pair<PartyIndex, Bytes>> shares) override {
    (void)message;
    // No DLEQ re-check: the caller vouches. Only the sigmas the combine uses
    // are decoded — those of the first `threshold` distinct signers whose
    // encoding is a point — two at a time, so the square roots overlap
    // (Point::decompress_pair).
    const size_t need = beacon_.pub.threshold;
    std::vector<uint32_t> signers;
    std::vector<Point> sigmas;
    std::vector<uint8_t> taken(n_, 0);  // signer chosen, or pending decode
    std::vector<std::pair<uint32_t, const uint8_t*>> pending;
    auto decode_pending = [&] {
      Point a, b;
      if (pending.size() == 2 &&
          Point::decompress_pair(pending[0].second, pending[1].second, a, b)) {
        signers.insert(signers.end(), {pending[0].first, pending[1].first});
        sigmas.insert(sigmas.end(), {a, b});
      } else {
        for (const auto& [signer, enc] : pending) {
          if (auto p = Point::decompress(enc)) {
            signers.push_back(signer);
            sigmas.push_back(*p);
          } else {
            taken[signer] = 0;  // a later share from this signer may still count
          }
        }
      }
      pending.clear();
    };
    for (const auto& [signer, data] : shares) {
      if (data.size() != BeaconShare::kSize || signer >= n_ ||
          get_u32le(data.data()) != signer || taken[signer])
        continue;
      taken[signer] = 1;
      pending.emplace_back(signer, data.data() + 4);
      if (pending.size() == 2 || signers.size() + pending.size() == need) decode_pending();
      if (signers.size() == need) break;
    }
    decode_pending();
    if (signers.size() < need) return {};
    return icc::crypto::beacon_value(icc::crypto::beacon_interpolate(signers, sigmas));
  }

  bool beacon_verify(BytesView message, BytesView value) const override {
    // Without pairings the combined value is not compactly verifiable; the
    // protocol always re-derives it from verified shares, so this check only
    // needs to confirm the value against the dealer's ground truth. We
    // recompute sigma from the dealt shares (dealer role; see header).
    std::vector<BeaconShare> shares;
    for (size_t i = 0; i < beacon_.pub.threshold; ++i) {
      shares.push_back(icc::crypto::beacon_sign_share(message, static_cast<uint32_t>(i),
                                                      beacon_.secret_shares[i], beacon_.pub));
    }
    auto sigma = icc::crypto::beacon_combine(shares, beacon_.pub);
    if (!sigma) return false;
    Bytes expect = icc::crypto::beacon_value(*sigma);
    return value.size() == expect.size() &&
           std::memcmp(value.data(), expect.data(), expect.size()) == 0;
  }

 private:
  const Ed25519KeyPair& kp(PartyIndex i) const {
    if (i >= n_) throw std::invalid_argument("provider: bad party index");
    return keypairs_[i];
  }

  static Bytes tagged(Scheme scheme, BytesView message) {
    Bytes out;
    out.push_back(scheme == Scheme::kNotary ? 0x01 : 0x02);
    append(out, message);
    return out;
  }

  size_t n_, t_;
  std::vector<Ed25519KeyPair> keypairs_;
  std::vector<std::array<uint8_t, 32>> public_keys_;
  BeaconKeys beacon_;
};

// ---------------------------------------------------------------------------
// FastCryptoProvider
// ---------------------------------------------------------------------------
//
// A simulation oracle: "signatures" are SHA-256 tags keyed by per-party
// secrets held inside the provider. Unforgeability holds *by construction*
// within a simulation because only the provider can compute tags, and party
// code only requests tags for its own index. Artifacts are padded/truncated
// to the configured wire sizes so traffic accounting matches the modeled
// deployment (compact BLS threshold signatures in the paper).

class FastCryptoProvider final : public CryptoProvider {
 public:
  FastCryptoProvider(size_t n, size_t t, uint64_t seed, const WireSizes& sizes)
      : n_(n), t_(t), sizes_(sizes) {
    if (n == 0 || t >= n) throw std::invalid_argument("provider: need 0 <= t < n");
    Xoshiro256 rng(seed);
    master_ = rng.bytes(32);
  }

  size_t n() const override { return n_; }
  size_t t() const override { return t_; }
  WireSizes wire_sizes() const override { return sizes_; }

  Bytes sign(PartyIndex signer, BytesView message) override {
    return tag("auth", signer, message, sizes_.signature);
  }
  bool verify(PartyIndex signer, BytesView message, BytesView signature) const override {
    return signer < n_ && matches(signature, tag("auth", signer, message, sizes_.signature));
  }

  Bytes threshold_sign_share(Scheme scheme, PartyIndex signer, BytesView message) override {
    return tag(scheme_name(scheme), signer, message, sizes_.threshold_share);
  }
  bool threshold_verify_share(Scheme scheme, PartyIndex signer, BytesView message,
                              BytesView share) const override {
    return signer < n_ &&
           matches(share, tag(scheme_name(scheme), signer, message, sizes_.threshold_share));
  }

  Bytes threshold_combine(Scheme scheme, BytesView message,
                          std::span<const std::pair<PartyIndex, Bytes>> shares) override {
    std::map<PartyIndex, bool> distinct;
    for (const auto& [signer, data] : shares) {
      if (threshold_verify_share(scheme, signer, message, data)) distinct[signer] = true;
    }
    if (distinct.size() < quorum()) return {};
    // The aggregate tag is message-determined (models a unique threshold
    // signature); signer identities are deliberately not encoded so that the
    // aggregate is the same no matter which quorum produced it.
    return tag(scheme_name(scheme), 0xffffffffu, message, sizes_.threshold_agg);
  }

  Bytes threshold_combine_preverified(
      Scheme scheme, BytesView message,
      std::span<const std::pair<PartyIndex, Bytes>> shares) override {
    std::map<PartyIndex, bool> distinct;
    for (const auto& [signer, data] : shares) {
      (void)data;  // caller vouches for validity; count distinct signers only
      if (signer < n_) distinct[signer] = true;
    }
    if (distinct.size() < quorum()) return {};
    return tag(scheme_name(scheme), 0xffffffffu, message, sizes_.threshold_agg);
  }

  bool threshold_verify(Scheme scheme, BytesView message, BytesView aggregate) const override {
    return matches(aggregate,
                   tag(scheme_name(scheme), 0xffffffffu, message, sizes_.threshold_agg));
  }

  Bytes beacon_sign_share(PartyIndex signer, BytesView message) override {
    return tag("beacon-share", signer, message, sizes_.beacon_share);
  }
  bool beacon_verify_share(PartyIndex signer, BytesView message,
                           BytesView share) const override {
    return signer < n_ &&
           matches(share, tag("beacon-share", signer, message, sizes_.beacon_share));
  }

  Bytes beacon_combine(BytesView message,
                       std::span<const std::pair<PartyIndex, Bytes>> shares) override {
    std::map<PartyIndex, bool> distinct;
    for (const auto& [signer, data] : shares) {
      if (beacon_verify_share(signer, message, data)) distinct[signer] = true;
    }
    if (distinct.size() < beacon_threshold()) return {};
    return tag("beacon-value", 0xffffffffu, message, sizes_.beacon_value);
  }

  Bytes beacon_combine_preverified(
      BytesView message, std::span<const std::pair<PartyIndex, Bytes>> shares) override {
    std::map<PartyIndex, bool> distinct;
    for (const auto& [signer, data] : shares) {
      (void)data;
      if (signer < n_) distinct[signer] = true;
    }
    if (distinct.size() < beacon_threshold()) return {};
    return tag("beacon-value", 0xffffffffu, message, sizes_.beacon_value);
  }

  bool beacon_verify(BytesView message, BytesView value) const override {
    return matches(value, tag("beacon-value", 0xffffffffu, message, sizes_.beacon_value));
  }

 private:
  static const char* scheme_name(Scheme s) {
    return s == Scheme::kNotary ? "notary" : "final";
  }

  Bytes tag(std::string_view domain, PartyIndex signer, BytesView message,
            size_t size) const {
    Sha256 h;
    h.update(BytesView(master_));
    h.update(domain);
    uint8_t idx[4] = {static_cast<uint8_t>(signer), static_cast<uint8_t>(signer >> 8),
                      static_cast<uint8_t>(signer >> 16), static_cast<uint8_t>(signer >> 24)};
    h.update(BytesView(idx, 4));
    h.update(message);
    auto d = h.digest();
    Bytes out(size, 0);
    std::memcpy(out.data(), d.data(), std::min<size_t>(size, d.size()));
    return out;
  }

  static bool matches(BytesView a, const Bytes& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
  }

  size_t n_, t_;
  WireSizes sizes_;
  Bytes master_;
};

}  // namespace

std::unique_ptr<CryptoProvider> make_real_provider(size_t n, size_t t, uint64_t seed) {
  return std::make_unique<RealCryptoProvider>(n, t, seed);
}

std::unique_ptr<CryptoProvider> make_fast_provider(size_t n, size_t t, uint64_t seed,
                                                   const WireSizes& sizes) {
  return std::make_unique<FastCryptoProvider>(n, t, seed, sizes);
}

std::unique_ptr<CryptoProvider> make_fast_provider(size_t n, size_t t, uint64_t seed) {
  // Defaults model the paper's deployment: 64-byte Ed25519 authenticators,
  // 48-byte BLS(-like) threshold shares and compact combined signatures.
  return make_fast_provider(n, t, seed, WireSizes{64, 48, 48, 48, 32});
}

}  // namespace icc::crypto
