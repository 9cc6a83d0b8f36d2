#include "pipeline/verifier.hpp"

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

std::optional<bool> Verifier::lookup(const types::Hash& key) {
  if (!options_.cache) return std::nullopt;
  Shard& s = shard_for(key);
  obs::SampledLock lk(s.mu, runtime_, obs::LockSite::kVerifierCache);
  if (auto it = s.current.find(key); it != s.current.end()) return it->second;
  if (auto it = s.previous.find(key); it != s.previous.end()) return it->second;
  return std::nullopt;
}

void Verifier::remember(const types::Hash& key, bool verdict) {
  if (!options_.cache || options_.cache_capacity == 0) return;
  Shard& s = shard_for(key);
  obs::SampledLock lk(s.mu, runtime_, obs::LockSite::kVerifierCache);
  if (s.current.size() >= rotate_threshold()) {
    s.previous = std::move(s.current);
    s.current.clear();
  }
  s.current[key] = verdict;
}

template <typename Check>
bool Verifier::memoized(Domain domain, crypto::PartyIndex signer, BytesView message,
                        BytesView signature, Check&& check) {
  if (!options_.cache) {
    stats_.provider_verifications.fetch_add(1, kRelaxed);
    return check();
  }
  types::Hash key = cache_key(domain, signer, message, signature);
  if (auto verdict = lookup(key)) {
    stats_.cache_hits.fetch_add(1, kRelaxed);
    return *verdict;
  }
  // Logical accounting first: a lone party would verify here, and the
  // per-party stats must not depend on whether the shared memo answers.
  stats_.provider_verifications.fetch_add(1, kRelaxed);
  bool verdict;
  if (intern_ != nullptr) {
    if (auto shared = intern_->verdict(key)) {
      intern_->count_memo_hit();
      verdict = *shared;
    } else {
      intern_->count_real(1);
      verdict = check();
      intern_->remember_verdict(key, verdict);
    }
  } else {
    verdict = check();
  }
  remember(key, verdict);
  return verdict;
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

Bytes Verifier::sign_auth(crypto::PartyIndex signer, BytesView message) {
  Bytes sig = provider_->sign(signer, message);
  if (options_.cache) {
    types::Hash key = cache_key(Domain::kAuth, signer, message, sig);
    remember(key, true);
    stats_.primed.fetch_add(1, kRelaxed);
    // Sign-and-prime the shared memo too: our signature is valid by
    // construction, so no party in the cluster ever re-verifies it.
    if (intern_ != nullptr) intern_->prime_verdict(key);
  }
  return sig;
}

Bytes Verifier::threshold_sign_share(crypto::Scheme scheme, crypto::PartyIndex signer,
                                     BytesView message) {
  Bytes share = provider_->threshold_sign_share(scheme, signer, message);
  if (options_.cache) {
    types::Hash key = cache_key(share_domain(scheme), signer, message, share);
    remember(key, true);
    stats_.primed.fetch_add(1, kRelaxed);
    if (intern_ != nullptr) intern_->prime_verdict(key);
  }
  return share;
}

Bytes Verifier::beacon_sign_share(crypto::PartyIndex signer, BytesView message) {
  Bytes share = provider_->beacon_sign_share(signer, message);
  if (options_.cache) {
    types::Hash key = cache_key(Domain::kBeaconShare, signer, message, share);
    remember(key, true);
    stats_.primed.fetch_add(1, kRelaxed);
    if (intern_ != nullptr) intern_->prime_verdict(key);
  }
  return share;
}

std::vector<uint8_t> Verifier::verify_shares_batch(
    crypto::Scheme scheme, BytesView message,
    std::span<const std::pair<crypto::PartyIndex, Bytes>> shares) {
  std::vector<uint8_t> verdicts(shares.size(), 0);
  std::vector<size_t> misses;  // indices not answered by the cache
  std::vector<types::Hash> miss_keys;
  for (size_t i = 0; i < shares.size(); ++i) {
    const auto& [signer, share] = shares[i];
    types::Hash key = cache_key(share_domain(scheme), signer, message, share);
    if (auto verdict = lookup(key)) {
      stats_.cache_hits.fetch_add(1, kRelaxed);
      verdicts[i] = *verdict ? 1 : 0;
    } else {
      misses.push_back(i);
      miss_keys.push_back(key);
    }
  }
  if (misses.empty()) return verdicts;

  if (options_.batch && misses.size() > 1) {
    std::vector<std::pair<crypto::PartyIndex, Bytes>> pending;
    pending.reserve(misses.size());
    for (size_t i : misses) pending.push_back(shares[i]);
    // Stats are accounted *logically* — one batch call, miss-count provider
    // verifications, one histogram sample — whether or not the work is
    // sliced or partially answered by the shared memo below. Metrics
    // therefore cannot depend on the thread count or on interning.
    stats_.batch_calls.fetch_add(1, kRelaxed);
    if (batch_size_hist_) batch_size_hist_->record(static_cast<int64_t>(pending.size()));
    stats_.provider_verifications.fetch_add(pending.size(), kRelaxed);

    std::vector<uint8_t> batch(misses.size(), 0);
    if (intern_ != nullptr) {
      // Answer what the cluster has already verified; batch only the rest.
      std::vector<size_t> real_idx;
      for (size_t j = 0; j < misses.size(); ++j) {
        if (auto shared = intern_->verdict(miss_keys[j])) {
          intern_->count_memo_hit();
          batch[j] = *shared ? 1 : 0;
        } else {
          real_idx.push_back(j);
        }
      }
      if (!real_idx.empty()) {
        std::vector<std::pair<crypto::PartyIndex, Bytes>> real_pending;
        real_pending.reserve(real_idx.size());
        for (size_t j : real_idx) real_pending.push_back(pending[j]);
        intern_->count_real(real_pending.size());
        std::vector<uint8_t> out = run_share_batch(scheme, message, real_pending);
        for (size_t k = 0; k < real_idx.size(); ++k) {
          batch[real_idx[k]] = out[k];
          intern_->remember_verdict(miss_keys[real_idx[k]], out[k] != 0);
        }
      }
    } else {
      batch = run_share_batch(scheme, message, pending);
    }

    // Merge and memoize on the calling thread, in submission order — cache
    // rotation stays deterministic across thread counts.
    bool all_ok = true;
    for (size_t j = 0; j < misses.size(); ++j) {
      verdicts[misses[j]] = batch[j];
      remember(miss_keys[j], batch[j] != 0);
      all_ok = all_ok && batch[j];
    }
    // The combined equation fails iff some share is invalid, in which case
    // the provider fell back to per-item checks to identify it. (Logical:
    // counted over all misses even when the memo answered some.)
    if (!all_ok) stats_.batch_fallbacks.fetch_add(1, kRelaxed);
    return verdicts;
  }
  for (size_t j = 0; j < misses.size(); ++j) {
    const auto& [signer, share] = shares[misses[j]];
    stats_.provider_verifications.fetch_add(1, kRelaxed);
    bool ok;
    if (intern_ != nullptr) {
      if (auto shared = intern_->verdict(miss_keys[j])) {
        intern_->count_memo_hit();
        ok = *shared;
      } else {
        intern_->count_real(1);
        ok = provider_->threshold_verify_share(scheme, signer, message, share);
        intern_->remember_verdict(miss_keys[j], ok);
      }
    } else {
      ok = provider_->threshold_verify_share(scheme, signer, message, share);
    }
    remember(miss_keys[j], ok);
    verdicts[misses[j]] = ok ? 1 : 0;
  }
  return verdicts;
}

std::vector<uint8_t> Verifier::run_share_batch(
    crypto::Scheme scheme, BytesView message,
    std::span<const std::pair<crypto::PartyIndex, Bytes>> pending) {
  size_t slices = 1;
  if (executor_ != nullptr && executor_->threads() > 1)
    slices = std::min(executor_->threads(), pending.size() / kMinSliceShares);
  if (slices <= 1) {
    obs::SpanScope span(runtime_, obs::TaskKind::kVerifySlice, pending.size());
    return provider_->threshold_verify_share_batch(scheme, message, pending);
  }
  // Slice the pending set into near-equal contiguous chunks; each pool
  // job runs the provider's batch equation over its chunk and writes
  // verdicts into a disjoint range. Crypto providers are stateless
  // after construction, so concurrent calls are safe.
  std::vector<uint8_t> batch(pending.size(), 0);
  const size_t base = pending.size() / slices;
  const size_t extra = pending.size() % slices;
  std::vector<size_t> begin(slices + 1, 0);
  for (size_t c = 0; c < slices; ++c) begin[c + 1] = begin[c] + base + (c < extra ? 1 : 0);
  executor_->parallel_for(slices, [&](size_t c) {
    auto chunk = pending.subspan(begin[c], begin[c + 1] - begin[c]);
    obs::SpanScope span(runtime_, obs::TaskKind::kVerifySlice, chunk.size());
    std::vector<uint8_t> out = provider_->threshold_verify_share_batch(scheme, message, chunk);
    std::copy(out.begin(), out.end(), batch.begin() + static_cast<ptrdiff_t>(begin[c]));
  });
  return batch;
}

Bytes Verifier::threshold_combine(
    crypto::Scheme scheme, BytesView message,
    std::span<const std::pair<crypto::PartyIndex, Bytes>> shares) {
  if (!options_.cache) {
    // Without memoization the provider's own verify-and-combine is exactly
    // the pre-pipeline behaviour (the shared memo keys off the per-party
    // cache keys, so it is not consulted either; the real checks inside the
    // provider still count toward F-INTERN).
    stats_.provider_verifications.fetch_add(shares.size(), kRelaxed);
    if (intern_ != nullptr) intern_->count_real(shares.size());
    return provider_->threshold_combine(scheme, message, shares);
  }
  std::vector<uint8_t> verdicts = verify_shares_batch(scheme, message, shares);
  std::vector<std::pair<crypto::PartyIndex, Bytes>> valid;
  valid.reserve(shares.size());
  for (size_t i = 0; i < shares.size(); ++i) {
    if (verdicts[i]) valid.push_back(shares[i]);
  }
  stats_.combine_share_checks_skipped.fetch_add(valid.size(), kRelaxed);
  Bytes agg = provider_->threshold_combine_preverified(scheme, message, valid);
  if (!agg.empty()) {
    // Prime the aggregate's verdict: our own broadcast of it echoes back.
    // Threshold signatures are unique, so every party combining the same
    // quorum produces these bytes — priming the shared memo saves the
    // aggregate check for the whole cluster.
    types::Hash key = cache_key(agg_domain(scheme), 0xffffffffu, message, agg);
    remember(key, true);
    stats_.primed.fetch_add(1, kRelaxed);
    if (intern_ != nullptr) intern_->prime_verdict(key);
  }
  return agg;
}

Bytes Verifier::beacon_combine(
    BytesView message, std::span<const std::pair<crypto::PartyIndex, Bytes>> shares) {
  if (!options_.cache) {
    stats_.provider_verifications.fetch_add(shares.size(), kRelaxed);
    if (intern_ != nullptr) intern_->count_real(shares.size());
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
  s.batch_calls = stats_.batch_calls.load(kRelaxed);
  s.batch_fallbacks = stats_.batch_fallbacks.load(kRelaxed);
  s.combine_share_checks_skipped = stats_.combine_share_checks_skipped.load(kRelaxed);
  return s;
}

size_t Verifier::cached_verdicts() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    obs::SampledLock lk(s.mu, runtime_, obs::LockSite::kVerifierCache);
    total += s.current.size() + s.previous.size();
  }
  return total;
}

void Verifier::attach_obs(obs::Obs* obs) {
  if (obs == nullptr || !obs->enabled()) return;
  batch_size_hist_ =
      &obs->registry().histogram("verify.batch_size", obs::Histogram::linear(1, 64));
}

}  // namespace icc::pipeline
