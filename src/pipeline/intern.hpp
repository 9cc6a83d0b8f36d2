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
// The verdict and beacon memos are MemoTables (memo.hpp), the same table
// as the per-party verdict cache; the artifact table is sharded and bounded
// the same way but chains entries behind a fingerprint. The artifact table's and the beacon memo's
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

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "pipeline/memo.hpp"
#include "types/messages.hpp"

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
  /// Interned payloads kept (two-generation bound).
  static constexpr size_t kArtifactCapacity = 1 << 14;
  /// Shared verdict memo entries.
  static constexpr size_t kVerdictCapacity = 1 << 16;
  /// Beacon values kept: parties are at most a few rounds apart, so this
  /// covers hundreds of rounds of slack.
  static constexpr size_t kBeaconCapacity = 1 << 10;

  struct Stats {
    uint64_t parses = 0;             ///< distinct payloads decoded (exact, any thread count)
    uint64_t decode_hits = 0;        ///< intern() calls answered by an existing entry
    uint64_t real_verifications = 0; ///< crypto checks that actually ran, cluster-wide
    uint64_t verdict_memo_hits = 0;  ///< checks answered by the shared memo
    uint64_t verdicts_primed = 0;    ///< verdicts inserted at sign/combine time
    uint64_t beacon_combines = 0;    ///< beacon combines run (exact, any thread count)
  };

  /// Look up (or create) the interned artifact for `payload`. The parse of
  /// a new payload runs under the owning shard's lock, so `parses` counts
  /// distinct payloads exactly, independent of thread interleaving, and the
  /// contained Block's hash memo is stamped before the entry is published.
  std::shared_ptr<const InternedArtifact> intern(const std::shared_ptr<const Bytes>& payload);

  // --- shared verification memo (keys are Verifier::cache_key digests) ---
  /// The verdict under `key`: from the memo when any party has already
  /// checked it, else `check()` runs (outside the lock) and its verdict is
  /// remembered for every other party.
  template <typename Check>
  bool verify_once(const types::Hash& key, Check&& check) {
    if (auto shared = verdicts_.find(key)) {
      stats_.verdict_memo_hits.fetch_add(1, kRelaxed);
      return *shared;
    }
    stats_.real_verifications.fetch_add(1, kRelaxed);
    const bool verdict = check();
    verdicts_.insert(key, verdict);
    return verdict;
  }
  /// Remember `key` as valid and count it primed: used by the sign-and-prime
  /// and combine paths, whose artifacts are valid by construction.
  void prime_verdict(const types::Hash& key);

  // --- shared beacon memo ---
  /// The beacon value for `message` (a types::beacon_message). On a miss
  /// `combine` runs under the owning shard's lock — so `beacon_combines`
  /// counts distinct messages exactly — and a non-empty result is memoized;
  /// an empty (failed) result is returned but never remembered. Callers
  /// must only ask once they hold t+1 verified shares from distinct
  /// signers, so that any combine yields the round's unique value.
  Bytes beacon(BytesView message, const std::function<Bytes()>& combine);

  Stats stats() const;
  size_t interned_artifacts() const;
  size_t cached_verdicts() const;
  size_t cached_beacons() const;

  /// Attach the wall-clock profiler (obs/runtime.hpp): shard lock waits are
  /// sampled and first-parse work gets wall-time spans. Observation only —
  /// interning results and counters are unchanged. Not owned.
  void set_runtime(obs::RuntimeProfiler* runtime);

 private:
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  static constexpr size_t kShards = 8;
  /// Artifacts per shard generation: the table never holds more than
  /// kArtifactCapacity, as in MemoTable.
  static constexpr size_t kArtifactsPerGeneration = kArtifactCapacity / (2 * kShards);

  /// Fingerprint-keyed bucket chain; full byte equality decides membership.
  using Chain = std::vector<std::shared_ptr<const InternedArtifact>>;
  struct ArtifactShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Chain> current;
    std::unordered_map<uint64_t, Chain> previous;
    size_t current_entries = 0;  ///< artifacts (not buckets) in current
  };
  ArtifactShard& artifact_shard(uint64_t fp) { return artifacts_[fp % kShards]; }
  const ArtifactShard& artifact_shard(uint64_t fp) const { return artifacts_[fp % kShards]; }

  obs::RuntimeProfiler* runtime_ = nullptr;
  std::array<ArtifactShard, kShards> artifacts_;
  MemoTable<bool> verdicts_{kVerdictCapacity, obs::LockSite::kInternVerdicts};
  MemoTable<Bytes> beacons_{kBeaconCapacity, obs::LockSite::kInternVerdicts};

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
