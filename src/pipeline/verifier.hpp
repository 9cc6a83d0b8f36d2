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
//   * a batch API: k pending shares over one message are checked in a single
//     provider call (Ed25519 batch equation under kReal); if the batch
//     fails, a per-item pass identifies the bad shares. With an attached
//     support::Executor the pending shares are additionally sliced into
//     near-equal chunks verified concurrently on the pool, with verdicts
//     merged back in submission order — and with *logical* stats accounting
//     (one batch call, one histogram sample, miss-count verifications)
//     independent of the slicing, so metrics stay identical at any thread
//     count.
//   * combine wrappers that pass only cache-validated shares to the
//     provider's *_preverified combine, eliminating the second full
//     verification of every share that the plain combine performs.
//
// The cache is per-party (each simulated party owns one Verifier), bounded
// by two-generation rotation, and *sharded*: the key's first byte selects
// one of kCacheShards shards, each with its own mutex and generation pair,
// so concurrent pool workers never serialize on a single cache lock
// (DESIGN.md §6). Cache mutations on the batch path happen on the calling
// thread after the parallel join, in submission order — shard rotation (and
// therefore eviction, hit counts, and every downstream metric) is
// deterministic regardless of thread count. Stats are relaxed atomics
// (commutative increments; same contract as obs/metrics.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/provider.hpp"
#include "crypto/sha256.hpp"
#include "obs/obs.hpp"
#include "support/executor.hpp"
#include "types/block.hpp"

namespace icc::pipeline {

class InternStore;

/// Tuning knobs for the staged ingress pipeline (decode → dedup → verify →
/// apply). Lives here so crypto-layer consumers need not pull in the
/// pipeline itself.
struct PipelineOptions {
  bool dedup = true;            ///< drop exact-duplicate wire artifacts
  bool cache = true;            ///< memoize verification verdicts
  bool batch = true;            ///< batch-verify pending shares at combine
  size_t dedup_capacity = 8192;   ///< recent wire hashes remembered per party
  size_t cache_capacity = 16384;  ///< cached verdicts per party
};

class Verifier {
 public:
  struct Stats {
    uint64_t provider_verifications = 0;  ///< checks that reached real crypto
    uint64_t cache_hits = 0;              ///< checks answered from the cache
    uint64_t primed = 0;                  ///< verdicts inserted at sign time
    uint64_t batch_calls = 0;             ///< batch verifications issued
    uint64_t batch_fallbacks = 0;         ///< batches that failed per-item
    uint64_t combine_share_checks_skipped = 0;  ///< combine re-checks avoided

    Stats& operator+=(const Stats& o) {
      provider_verifications += o.provider_verifications;
      cache_hits += o.cache_hits;
      primed += o.primed;
      batch_calls += o.batch_calls;
      batch_fallbacks += o.batch_fallbacks;
      combine_share_checks_skipped += o.combine_share_checks_skipped;
      return *this;
    }
  };

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

  /// Verify k shares over one message. Returns one verdict per share. All
  /// cache misses go to the provider as a single batch (sliced across the
  /// attached executor's pool when profitable); a failed batch falls back to
  /// per-item verification to identify the bad shares.
  std::vector<uint8_t> verify_shares_batch(
      crypto::Scheme scheme, BytesView message,
      std::span<const std::pair<crypto::PartyIndex, Bytes>> shares);

  // --- combine without the provider's second per-share verification ---
  Bytes threshold_combine(crypto::Scheme scheme, BytesView message,
                          std::span<const std::pair<crypto::PartyIndex, Bytes>> shares);
  Bytes beacon_combine(BytesView message,
                       std::span<const std::pair<crypto::PartyIndex, Bytes>> shares);

  /// Snapshot of the counters (by value: the live cells are atomics).
  Stats stats() const;
  size_t cached_verdicts() const;

  /// Attach telemetry: a batch-size histogram recorded per batch call.
  void attach_obs(obs::Obs* obs);

  /// Attach a worker pool; batch verifications with enough cache misses are
  /// then sliced into pool jobs. Null (or a 1-thread pool) keeps the
  /// single-call path. The verifier does not own the executor.
  void attach_executor(support::Executor* executor) { executor_ = executor; }

  /// Attach the wall-clock profiler (obs/runtime.hpp): verdict-shard lock
  /// waits are sampled and batch slices get wall-time spans. Observation
  /// only — verdicts, stats and rotation are unchanged. Not owned.
  void attach_runtime(obs::RuntimeProfiler* runtime) { runtime_ = runtime; }

  /// Attach the cluster-shared intern store (DESIGN.md §7). Its verdict memo
  /// is consulted *after* a per-party cache miss and filled alongside every
  /// real verification / sign-time prime, so one party's work answers every
  /// other party's check. The per-party logical stats above are computed
  /// before the memo is consulted and are byte-identical with or without it.
  /// Requires options.cache (the memo shares the per-party cache keys); the
  /// harness only attaches it when the verdict cache stage is on. Its beacon
  /// memo answers beacon_combine once this party's own checks have passed
  /// t+1 shares, so each round's beacon is combined once per cluster.
  void attach_intern(InternStore* intern) { intern_ = intern; }

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

  /// Cache lookup; nullopt on miss (or cache disabled).
  std::optional<bool> lookup(const types::Hash& key);
  void remember(const types::Hash& key, bool verdict);

  /// Memoize `check()` under (domain, signer, message, signature).
  template <typename Check>
  bool memoized(Domain domain, crypto::PartyIndex signer, BytesView message,
                BytesView signature, Check&& check);

  /// Minimum misses per pool slice: below this the slicing overhead (and
  /// the lost batch-equation amortization) outweighs the parallelism.
  static constexpr size_t kMinSliceShares = 8;

  /// Run the provider's (possibly executor-sliced) batch equation over
  /// `pending`; one verdict per entry. Wall-clock only — callers account
  /// logical stats themselves.
  std::vector<uint8_t> run_share_batch(
      crypto::Scheme scheme, BytesView message,
      std::span<const std::pair<crypto::PartyIndex, Bytes>> pending);

  crypto::CryptoProvider* provider_;
  PipelineOptions options_;
  support::Executor* executor_ = nullptr;
  InternStore* intern_ = nullptr;
  obs::RuntimeProfiler* runtime_ = nullptr;
  obs::Histogram* batch_size_hist_ = nullptr;

  struct StatsCells {
    std::atomic<uint64_t> provider_verifications{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> primed{0};
    std::atomic<uint64_t> batch_calls{0};
    std::atomic<uint64_t> batch_fallbacks{0};
    std::atomic<uint64_t> combine_share_checks_skipped{0};
  };
  StatsCells stats_;

  /// One cache shard: a mutex plus a two-generation bounded map. Inserts
  /// fill current_; when it reaches half the shard's capacity share, it
  /// rotates into previous_ (whose entries remain visible until the next
  /// rotation evicts them). The shard index is the key's first hash byte,
  /// so SHA-256 spreads load uniformly.
  static constexpr size_t kCacheShards = 8;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<types::Hash, bool, types::HashHasher> current;
    std::unordered_map<types::Hash, bool, types::HashHasher> previous;
  };
  std::array<Shard, kCacheShards> shards_;

  /// Tiny capacities collapse to one shard so the global bound
  /// (cached_verdicts() <= cache_capacity) holds with the same slack the
  /// unsharded two-generation scheme had.
  size_t shard_count() const {
    return options_.cache_capacity >= 2 * kCacheShards ? kCacheShards : 1;
  }
  size_t rotate_threshold() const {
    return std::max<size_t>(1, options_.cache_capacity / (2 * shard_count()));
  }
  Shard& shard_for(const types::Hash& key) { return shards_[key[0] % shard_count()]; }
};

}  // namespace icc::pipeline
