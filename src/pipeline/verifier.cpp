#include "pipeline/verifier.hpp"

#include "crypto/sha256.hpp"
#include "pipeline/intern.hpp"

namespace icc::pipeline {

namespace {
// Relaxed suffices for all counter cells: they are commutative increments
// read only at quiescent points (obs/metrics.hpp memory-order contract).
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

types::Hash Verifier::cache_key(Domain domain, crypto::PartyIndex signer, BytesView message,
                                BytesView signature) {
  crypto::Sha256 h;
  uint8_t header[5] = {static_cast<uint8_t>(domain), static_cast<uint8_t>(signer),
                       static_cast<uint8_t>(signer >> 8), static_cast<uint8_t>(signer >> 16),
                       static_cast<uint8_t>(signer >> 24)};
  h.update(BytesView(header, sizeof(header)));
  // Length-prefix the message so (message, signature) boundaries are
  // unambiguous — without it, moving bytes across the boundary would alias.
  uint8_t len[8];
  for (int i = 0; i < 8; ++i) len[i] = static_cast<uint8_t>(message.size() >> (8 * i));
  h.update(BytesView(len, sizeof(len)));
  h.update(message);
  h.update(signature);
  return h.digest();
}

template <typename Check>
bool Verifier::memoized(Domain domain, crypto::PartyIndex signer, BytesView message,
                        BytesView signature, Check&& check) {
  if (!options_.stages) {
    stats_.provider_verifications.fetch_add(1, kRelaxed);
    return check();
  }
  types::Hash key = cache_key(domain, signer, message, signature);
  if (auto verdict = cache_.find(key)) {
    stats_.cache_hits.fetch_add(1, kRelaxed);
    return *verdict;
  }
  // Logical accounting first: a lone party would verify here, and the
  // per-party stats must not depend on whether the shared memo answers.
  stats_.provider_verifications.fetch_add(1, kRelaxed);
  const bool verdict = intern_ != nullptr ? intern_->verify_once(key, check) : check();
  cache_.insert(key, verdict);
  return verdict;
}

void Verifier::prime(const types::Hash& key) {
  cache_.insert(key, true);
  stats_.primed.fetch_add(1, kRelaxed);
  if (intern_ != nullptr) intern_->prime_verdict(key);
}

bool Verifier::verify_auth(crypto::PartyIndex signer, BytesView message,
                           BytesView signature) {
  return memoized(Domain::kAuth, signer, message, signature,
                  [&] { return provider_->verify(signer, message, signature); });
}

bool Verifier::verify_threshold_share(crypto::Scheme scheme, crypto::PartyIndex signer,
                                      BytesView message, BytesView share) {
  return memoized(share_domain(scheme), signer, message, share, [&] {
    return provider_->threshold_verify_share(scheme, signer, message, share);
  });
}

bool Verifier::verify_threshold(crypto::Scheme scheme, BytesView message,
                                BytesView aggregate) {
  // Aggregates have no single signer; index 0xffffffff marks "combined".
  return memoized(agg_domain(scheme), 0xffffffffu, message, aggregate,
                  [&] { return provider_->threshold_verify(scheme, message, aggregate); });
}

bool Verifier::verify_beacon_share(crypto::PartyIndex signer, BytesView message,
                                   BytesView share) {
  return memoized(Domain::kBeaconShare, signer, message, share,
                  [&] { return provider_->beacon_verify_share(signer, message, share); });
}

// Sign-and-prime: our own signature is valid by construction, so neither
// this party nor (through the shared memo) any other ever re-verifies it.
Bytes Verifier::sign_auth(crypto::PartyIndex signer, BytesView message) {
  Bytes sig = provider_->sign(signer, message);
  if (options_.stages) prime(cache_key(Domain::kAuth, signer, message, sig));
  return sig;
}

Bytes Verifier::threshold_sign_share(crypto::Scheme scheme, crypto::PartyIndex signer,
                                     BytesView message) {
  Bytes share = provider_->threshold_sign_share(scheme, signer, message);
  if (options_.stages) prime(cache_key(share_domain(scheme), signer, message, share));
  return share;
}

Bytes Verifier::beacon_sign_share(crypto::PartyIndex signer, BytesView message) {
  Bytes share = provider_->beacon_sign_share(signer, message);
  if (options_.stages) prime(cache_key(Domain::kBeaconShare, signer, message, share));
  return share;
}

Bytes Verifier::threshold_combine(
    crypto::Scheme scheme, BytesView message,
    std::span<const std::pair<crypto::PartyIndex, Bytes>> shares) {
  if (!options_.stages) {
    // Without memoization the provider's own verify-and-combine is exactly
    // the pre-pipeline behaviour.
    stats_.provider_verifications.fetch_add(shares.size(), kRelaxed);
    return provider_->threshold_combine(scheme, message, shares);
  }
  std::vector<std::pair<crypto::PartyIndex, Bytes>> valid;
  valid.reserve(shares.size());
  for (const auto& s : shares) {
    if (verify_threshold_share(scheme, s.first, message, s.second)) valid.push_back(s);
  }
  stats_.combine_share_checks_skipped.fetch_add(valid.size(), kRelaxed);
  Bytes agg = provider_->threshold_combine_preverified(scheme, message, valid);
  // Prime the aggregate's verdict: our own broadcast of it echoes back.
  // Threshold signatures are unique, so every party combining the same
  // quorum produces these bytes — priming the shared memo saves the
  // aggregate check for the whole cluster.
  if (!agg.empty()) prime(cache_key(agg_domain(scheme), 0xffffffffu, message, agg));
  return agg;
}

Bytes Verifier::beacon_combine(
    BytesView message, std::span<const std::pair<crypto::PartyIndex, Bytes>> shares) {
  if (!options_.stages) {
    stats_.provider_verifications.fetch_add(shares.size(), kRelaxed);
    return provider_->beacon_combine(message, shares);
  }
  std::vector<std::pair<crypto::PartyIndex, Bytes>> valid;
  valid.reserve(shares.size());
  for (const auto& s : shares) {
    if (verify_beacon_share(s.first, message, s.second)) valid.push_back(s);
  }
  stats_.combine_share_checks_skipped.fetch_add(valid.size(), kRelaxed);
  auto combine = [&] { return provider_->beacon_combine_preverified(message, valid); };
  if (intern_ == nullptr) return combine();
  // The beacon is unique: every t+1 valid shares from distinct signers
  // combine to the same value, so the cluster-wide memo may answer once this
  // party holds that many. With fewer the combine fails and is not memoized.
  std::vector<uint8_t> seen(n(), 0);
  size_t distinct = 0;
  for (const auto& [signer, share] : valid) {
    if (signer < seen.size() && !seen[signer]) {
      seen[signer] = 1;
      ++distinct;
    }
  }
  if (distinct < beacon_threshold()) return combine();
  return intern_->beacon(message, combine);
}

Verifier::Stats Verifier::stats() const {
  Stats s;
  s.provider_verifications = stats_.provider_verifications.load(kRelaxed);
  s.cache_hits = stats_.cache_hits.load(kRelaxed);
  s.primed = stats_.primed.load(kRelaxed);
  s.combine_share_checks_skipped = stats_.combine_share_checks_skipped.load(kRelaxed);
  return s;
}

size_t Verifier::cached_verdicts() const { return cache_.size(); }

}  // namespace icc::pipeline
