// Offline safety auditor for flight-recorder journals.
//
// Replays a journal (obs/journal.hpp) and mechanically re-checks the safety
// and accountability invariants the paper proves, entirely from the recorded
// history — the point is that a third party holding only the journal can
// verify a run, independent of the live pool state. Invariant-to-lemma map
// (paper: Internet Computer Consensus, §3.3/§4; full table in DESIGN.md §5):
//
//   unique-finalization       At most one finalized block hash per round
//                             (Theorem, via Lemma 7: two finalized round-k
//                             blocks would need two n-t quorums intersecting
//                             in an honest party that signed both).
//   quorum-size               Every recorded quorum aggregation lists >= n-t
//                             distinct in-range signers (the definition of a
//                             notarization/finalization, §3.2).
//   final-implies-unique-notar  A finalization in round r means no other
//                             round-r block is notarized (Property P2 /
//                             Lemmas 5-6 — the basis of safety).
//   beacon-unique             One beacon value per round (S_beacon is a
//                             (t, t+1, n) *unique* threshold scheme, §3.2).
//   no-conflicting-notar-share  No party casts notarization shares for two
//                             different blocks of the same (round, proposer)
//                             — an honest party disqualifies an equivocating
//                             rank instead (Fig. 1 clause (c)).
//   final-share-exclusive     A party that cast a finalization share for B
//                             in round r cast no round-r notarization share
//                             for any other block (Fig. 2: N ⊆ {B}).
//   monotonic-commit          Each party's committed rounds strictly
//                             increase (atomic-broadcast output order).
//
// The auditor also attributes each finalized round's latency to phases —
// propose → first share → quorum → finalized — which is exactly the paper's
// 3δ latency decomposition (§1.1): each phase is one network hop ≈ δ on the
// honest fast path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/journal.hpp"

namespace icc::obs {

struct AuditViolation {
  std::string invariant;  ///< one of the names above
  uint64_t round = 0;
  std::string detail;     ///< human-readable specifics
};

/// Per-finalized-round phase attribution (virtual µs; -1 = event missing,
/// e.g. the journal was truncated or the round finalized via catch-up).
struct RoundLatency {
  uint64_t round = 0;
  std::string hash;
  int64_t propose_ts = -1;      ///< earliest propose/proposal sighting
  int64_t first_share_ts = -1;  ///< earliest notarization share cast
  int64_t quorum_ts = -1;       ///< earliest notarization aggregate
  int64_t finalized_ts = -1;    ///< earliest finalized record
  bool complete() const {
    return propose_ts >= 0 && first_share_ts >= 0 && quorum_ts >= 0 && finalized_ts >= 0;
  }
};

struct AuditReport {
  JournalMeta meta;
  bool has_meta = false;

  uint64_t events = 0;
  uint64_t parties_seen = 0;
  uint64_t rounds_seen = 0;      ///< distinct rounds with any event
  uint64_t finalized_rounds = 0;

  std::vector<AuditViolation> violations;
  /// Violation count per invariant name (zero-count invariants included, so
  /// the report certifies what was checked, not just what failed).
  std::map<std::string, uint64_t> by_invariant;

  std::vector<RoundLatency> round_latencies;  ///< ascending round order
  /// Mean per-phase µs over rounds with complete attribution (0 if none).
  int64_t mean_propose_to_share_us = 0;
  int64_t mean_share_to_quorum_us = 0;
  int64_t mean_quorum_to_final_us = 0;
  int64_t mean_propose_to_final_us = 0;

  /// Input error: the journal did not parse (line named); nothing audited.
  std::string error;

  bool ok() const { return violations.empty() && error.empty(); }

  /// Machine-readable run report (single JSON object, deterministic).
  std::string to_json() const;
  /// Per-round time series: round,hash,propose_ts,first_share_ts,quorum_ts,
  /// finalized_ts,propose_to_final_us — one CSV row per finalized round.
  std::string rounds_csv() const;
};

/// Run every invariant over `events`. `meta` supplies n and t (quorum) —
/// without a meta record the quorum-size check degrades to structural
/// checks only (distinctness, signer range unchecked), and says so in the
/// report.
AuditReport audit_journal(const std::vector<JournalEvent>& events, const JournalMeta& meta,
                          bool has_meta);

/// Convenience: parse a JSONL document then audit it; a parse failure
/// comes back in `error` with nothing audited.
AuditReport audit_jsonl(const std::string& text);

}  // namespace icc::obs
