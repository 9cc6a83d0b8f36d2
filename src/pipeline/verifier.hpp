// Centralized signature verification for the ingress pipeline.
//
// Every signature check of the consensus layer flows through a Verifier
// wrapping the crypto::CryptoProvider. The wrapper adds what the raw
// provider deliberately does not have:
//
//   * a bounded memoization cache keyed on H(domain ‖ signer ‖ message ‖
//     signature). In committee-based BFT the same artifact reaches a party
//     many times (echoes, share floods, combine-time re-checks), and
//     signature verification dominates CPU (Li–Sonnino–Jovanovic, PAPERS.md);
//     a cache hit replaces an Ed25519 verification with one SHA-256. Both
//     verdicts are cached, so a replayed *invalid* artifact is also free.
//     Keys cover the signature bytes, so equivocation (same message, a
//     different signature) can never be conflated with a cached verdict.
//   * sign-and-prime helpers: a party's own signatures are inserted into the
//     cache at creation time, making the self-delivery of its broadcasts and
//     the combine-time re-check of its own shares free.
//   * combine wrappers that check each share through the memoized single
//     check and pass only the valid ones to the provider's *_preverified
//     combine, eliminating the second full verification of every share that
//     the plain combine performs. Shares reach the pool only after their
//     ingest-time check, so in a consensus run every combine-time check is a
//     cache hit.
//
// The cache is per-party (each simulated party owns one Verifier) and is a
// MemoTable (memo.hpp): sharded by the key's first byte so concurrent pool
// workers never serialize on one lock (DESIGN.md §6), and bounded by
// two-generation rotation. Stats are relaxed atomics (commutative
// increments; same contract as obs/metrics.hpp).
#pragma once

#include <atomic>
#include <span>
#include <utility>

#include "crypto/provider.hpp"
#include "pipeline/memo.hpp"
#include "types/block.hpp"

namespace icc::pipeline {

class InternStore;

/// The staged ingress pipeline's switch (decode → dedup → verify → apply).
/// Lives here so crypto-layer consumers need not pull in the pipeline
/// itself.
struct PipelineOptions {
  /// Drop exact-duplicate wire artifacts and memoize verification verdicts.
  /// Off reproduces the pre-pipeline verify-on-insert behaviour.
  bool stages = true;
};

class Verifier {
 public:
  struct Stats {
    uint64_t provider_verifications = 0;  ///< checks that reached real crypto
    uint64_t cache_hits = 0;              ///< checks answered from the cache
    uint64_t primed = 0;                  ///< verdicts inserted at sign time
    uint64_t combine_share_checks_skipped = 0;  ///< combine re-checks avoided

    Stats& operator+=(const Stats& o) {
      provider_verifications += o.provider_verifications;
      cache_hits += o.cache_hits;
      primed += o.primed;
      combine_share_checks_skipped += o.combine_share_checks_skipped;
      return *this;
    }
  };

  /// Cached verdicts per party.
  static constexpr size_t kCacheCapacity = 1 << 14;

  Verifier(crypto::CryptoProvider& provider, const PipelineOptions& options)
      : provider_(&provider), options_(options) {}

  crypto::CryptoProvider& provider() { return *provider_; }
  size_t n() const { return provider_->n(); }
  size_t t() const { return provider_->t(); }
  size_t quorum() const { return provider_->quorum(); }
  size_t beacon_threshold() const { return provider_->beacon_threshold(); }

  // --- memoized verification ---
  bool verify_auth(crypto::PartyIndex signer, BytesView message, BytesView signature);
  bool verify_threshold_share(crypto::Scheme scheme, crypto::PartyIndex signer,
                              BytesView message, BytesView share);
  bool verify_threshold(crypto::Scheme scheme, BytesView message, BytesView aggregate);
  bool verify_beacon_share(crypto::PartyIndex signer, BytesView message, BytesView share);

  // --- sign-and-prime (our own artifacts never need re-verification) ---
  Bytes sign_auth(crypto::PartyIndex signer, BytesView message);
  Bytes threshold_sign_share(crypto::Scheme scheme, crypto::PartyIndex signer,
                             BytesView message);
  Bytes beacon_sign_share(crypto::PartyIndex signer, BytesView message);

  // --- combine without the provider's second per-share verification ---
  Bytes threshold_combine(crypto::Scheme scheme, BytesView message,
                          std::span<const std::pair<crypto::PartyIndex, Bytes>> shares);
  Bytes beacon_combine(BytesView message,
                       std::span<const std::pair<crypto::PartyIndex, Bytes>> shares);

  /// Snapshot of the counters (by value: the live cells are atomics).
  Stats stats() const;
  size_t cached_verdicts() const;

  /// Attach the wall-clock profiler (obs/runtime.hpp): verdict-shard lock
  /// waits are sampled. Observation only — verdicts, stats and rotation are
  /// unchanged. Not owned.
  void attach_runtime(obs::RuntimeProfiler* runtime) { cache_.set_runtime(runtime); }

  /// Attach the cluster-shared intern store (DESIGN.md §7). Its verdict memo
  /// is consulted *after* a per-party cache miss and filled alongside every
  /// real verification / sign-time prime, so one party's work answers every
  /// other party's check. The per-party logical stats above are computed
  /// before the memo is consulted and are byte-identical with or without it.
  /// The memo shares the per-party cache keys, so with the stages off it is
  /// never attached. Its beacon memo answers beacon_combine once this
  /// party's own checks have passed t+1 shares, so each round's beacon is
  /// combined once per cluster.
  void attach_intern(InternStore* intern) {
    if (options_.stages) intern_ = intern;
  }

 private:
  // Verdict-cache key domains (distinct per signature scheme/usage).
  enum class Domain : uint8_t {
    kAuth = 1,
    kNotaryShare = 2,
    kFinalShare = 3,
    kNotaryAgg = 4,
    kFinalAgg = 5,
    kBeaconShare = 6,
  };
  static Domain share_domain(crypto::Scheme s) {
    return s == crypto::Scheme::kNotary ? Domain::kNotaryShare : Domain::kFinalShare;
  }
  static Domain agg_domain(crypto::Scheme s) {
    return s == crypto::Scheme::kNotary ? Domain::kNotaryAgg : Domain::kFinalAgg;
  }

  static types::Hash cache_key(Domain domain, crypto::PartyIndex signer, BytesView message,
                               BytesView signature);

  /// Memoize `check()` under (domain, signer, message, signature).
  template <typename Check>
  bool memoized(Domain domain, crypto::PartyIndex signer, BytesView message,
                BytesView signature, Check&& check);
  /// Remember our own valid artifact, in this cache and the shared memo.
  void prime(const types::Hash& key);

  crypto::CryptoProvider* provider_;
  PipelineOptions options_;
  InternStore* intern_ = nullptr;

  struct StatsCells {
    std::atomic<uint64_t> provider_verifications{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> primed{0};
    std::atomic<uint64_t> combine_share_checks_skipped{0};
  };
  StatsCells stats_;
  MemoTable<bool> cache_{kCacheCapacity, obs::LockSite::kVerifierCache};
};

}  // namespace icc::pipeline
