// Cluster-wide artifact interning (DESIGN.md §7).
//
// A broadcast payload is delivered to n receivers as one shared buffer
// (sim/network), but before this layer every receiver still parsed, hashed
// and signature-checked those bytes independently — O(n) redundant decodes
// and O(n) redundant verifies per artifact, O(n²) per round. Decode results
// and signature verdicts are pure functions of the bytes, so one
// cluster-shared store can answer all n receivers:
//
//   * the *artifact table* interns (wire bytes → parsed types::Message):
//     parse_message runs once per distinct payload, under the owning shard's
//     lock, and every receiver gets the same immutable
//     std::shared_ptr<const Message>. Entries are keyed by the same 64-bit
//     content fingerprint the causal layer stamps on edges, with full
//     byte-equality chained behind it — so a fingerprint collision costs a
//     bucket scan, never a wrong answer, and two *different* payloads from
//     the same sender (equivocation) can never conflate.
//   * the *verdict memo* shares (domain ‖ signer ‖ message ‖ signature)
//     verification verdicts across all honest parties' Verifiers: a
//     broadcast share costs ~1 real verification cluster-wide instead of n.
//     Per-party Verifier stats stay *logical* (they count what a lone party
//     would have verified), so F-PIPE/Table 1 reporting and the journal are
//     byte-identical with interning on or off.
//   * the *beacon memo* maps SHA-256(types::beacon_message(round, prev)) to
//     the round's 32-byte beacon value. The beacon is a unique threshold
//     signature: any t+1 valid shares combine to the same value, so after a
//     party has checked its own shares the first combine of a round answers
//     every other party that reaches it (Verifier::beacon_combine).
//
// All tables are sharded (mutex per shard, two-generation rotation) like
// the per-party verdict cache. The artifact table's and the beacon memo's
// counters are exact at any thread count because parsing and combining
// happen under the shard lock; the verdict memo's real/memo-hit counters may
// differ by the few verifies that race between check and remember — they
// are reported by benches (F-INTERN) but deliberately kept out of
// metrics_json and the journal.
//
// Fidelity: real deployments cannot share caches across machines. The store
// only changes *wall-clock* cost — virtual-time behaviour, commits, metrics
// and journals are identical with interning on or off (tested in
// tests/pipeline/intern_test.cpp) — but wall-clock benches that model
// per-replica CPU honestly must run with ClusterOptions::intern = false.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "types/messages.hpp"

namespace icc::obs {
class RuntimeProfiler;
}

namespace icc::pipeline {

/// One interned wire payload. Immutable after publication (the shard lock
/// that created it is the happens-before edge to every later reader).
struct InternedArtifact {
  std::shared_ptr<const Bytes> bytes;  ///< the exact wire bytes
  types::Hash artifact_id{};           ///< SHA-256, identical to per-party dedup ids
  bool sender_scoped = false;          ///< types::sender_scoped_wire(*bytes)
  types::SharedMessage msg;            ///< parsed once; null = malformed payload
};

class InternStore {
 public:
  struct Options {
    size_t artifact_capacity = 1 << 14;  ///< interned payloads (two-generation bound)
    size_t verdict_capacity = 1 << 16;   ///< shared verdict memo entries
  };

  /// Beacon values kept (two-generation bound): parties are at most a few
  /// rounds apart, so this covers hundreds of rounds of slack.
  static constexpr size_t kBeaconCapacity = 1 << 10;

  struct Stats {
    uint64_t parses = 0;             ///< distinct payloads decoded (exact, any thread count)
    uint64_t decode_hits = 0;        ///< intern() calls answered by an existing entry
    uint64_t real_verifications = 0; ///< crypto checks that actually ran, cluster-wide
    uint64_t verdict_memo_hits = 0;  ///< checks answered by the shared memo
    uint64_t verdicts_primed = 0;    ///< verdicts inserted at sign/combine time
    uint64_t beacon_combines = 0;    ///< beacon combines run (exact, any thread count)
  };

  InternStore() = default;
  explicit InternStore(const Options& options) : options_(options) {}

  /// Look up (or create) the interned artifact for `payload`. The parse of
  /// a new payload runs under the owning shard's lock, so `parses` counts
  /// distinct payloads exactly, independent of thread interleaving, and the
  /// contained Block's hash memo is stamped before the entry is published.
  std::shared_ptr<const InternedArtifact> intern(const std::shared_ptr<const Bytes>& payload);

  // --- shared verification memo (keys are Verifier::cache_key digests) ---
  std::optional<bool> verdict(const types::Hash& key) const;
  void remember_verdict(const types::Hash& key, bool verdict);
  /// remember_verdict(key, true) + the primed counter: used by the
  /// sign-and-prime and combine paths, whose artifacts are valid by
  /// construction.
  void prime_verdict(const types::Hash& key);

  // --- shared beacon memo ---
  /// The beacon value for `message` (a types::beacon_message). On a miss
  /// `combine` runs under the owning shard's lock — so `beacon_combines`
  /// counts distinct messages exactly — and a non-empty result is memoized;
  /// an empty (failed) result is returned but never remembered. Callers
  /// must only ask once they hold t+1 verified shares from distinct
  /// signers, so that any combine yields the round's unique value.
  Bytes beacon(BytesView message, const std::function<Bytes()>& combine);

  // --- F-INTERN accounting (bench-only; see header comment) ---
  void count_real(uint64_t n) { stats_.real_verifications.fetch_add(n, kRelaxed); }
  void count_memo_hit(uint64_t n = 1) { stats_.verdict_memo_hits.fetch_add(n, kRelaxed); }

  Stats stats() const;
  size_t interned_artifacts() const;
  size_t cached_verdicts() const;
  size_t cached_beacons() const;

  /// Attach the wall-clock profiler (obs/runtime.hpp): shard lock waits are
  /// sampled and first-parse work gets wall-time spans. Observation only —
  /// interning results and counters are unchanged. Not owned.
  void set_runtime(obs::RuntimeProfiler* runtime) { runtime_ = runtime; }

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  static constexpr size_t kShards = 8;

  /// Fingerprint-keyed bucket chain; full byte equality decides membership.
  using Chain = std::vector<std::shared_ptr<const InternedArtifact>>;
  struct ArtifactShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Chain> current;
    std::unordered_map<uint64_t, Chain> previous;
    size_t current_entries = 0;  ///< artifacts (not buckets) in current
  };
  /// A digest-keyed memo shard; callers hold `mu` around every member call.
  template <typename V>
  struct MemoShard {
    mutable std::mutex mu;
    std::unordered_map<types::Hash, V, types::HashHasher> current;
    std::unordered_map<types::Hash, V, types::HashHasher> previous;

    const V* find(const types::Hash& key) const {
      if (auto it = current.find(key); it != current.end()) return &it->second;
      if (auto it = previous.find(key); it != previous.end()) return &it->second;
      return nullptr;
    }
    /// Insert, rotating generations once `current` holds `per_gen` entries.
    void insert(const types::Hash& key, V value, size_t per_gen) {
      if (current.size() >= per_gen) {
        previous = std::move(current);
        current.clear();
      }
      current[key] = std::move(value);
    }
    size_t size() const { return current.size() + previous.size(); }
  };
  using VerdictShard = MemoShard<bool>;
  using BeaconShard = MemoShard<Bytes>;

  ArtifactShard& artifact_shard(uint64_t fp) { return artifacts_[fp % kShards]; }
  const ArtifactShard& artifact_shard(uint64_t fp) const { return artifacts_[fp % kShards]; }
  VerdictShard& verdict_shard(const types::Hash& key) { return verdicts_[key[0] % kShards]; }
  const VerdictShard& verdict_shard(const types::Hash& key) const {
    return verdicts_[key[0] % kShards];
  }
  /// Per-shard generation size for a table of `capacity` entries.
  static size_t per_generation(size_t capacity) {
    return std::max<size_t>(1, capacity / (2 * kShards));
  }

  Options options_;
  obs::RuntimeProfiler* runtime_ = nullptr;
  std::array<ArtifactShard, kShards> artifacts_;
  std::array<VerdictShard, kShards> verdicts_;
  std::array<BeaconShard, kShards> beacons_;

  struct StatsCells {
    std::atomic<uint64_t> parses{0};
    std::atomic<uint64_t> decode_hits{0};
    std::atomic<uint64_t> real_verifications{0};
    std::atomic<uint64_t> verdict_memo_hits{0};
    std::atomic<uint64_t> verdicts_primed{0};
    std::atomic<uint64_t> beacon_combines{0};
  };
  mutable StatsCells stats_;
};

}  // namespace icc::pipeline
