// Cross-party causal tracing: happens-before edges and critical-path
// analysis of commit latency.
//
// The paper's latency claims are *path* claims: ICC0/ICC1 commit in 3δ and
// ICC2 in 4δ because one specific chain of messages — propose → notarization
// shares → finalization shares (plus the erasure-coded echo hop in ICC2) —
// crosses the network a fixed number of times (§1.1, §5). The per-party
// journal (journal.hpp) records what each party did but not *why now*: it
// has no edges between parties, so a slow round cannot be attributed to the
// hop that actually stalled it. This module adds that causal layer:
//
//   * CausalScribe — recorder. Every wire transfer gets a deterministic
//     edge id (sender, receiver, payload fingerprint, per-link seq) journaled as
//     a `send` event at dispatch and a `recv` event at delivery, stamped
//     with the simulator's virtual times. The pair reconstructs the exact
//     network delay of every hop from the journal alone (schema
//     icc-journal/v2; v1 journals still parse and audit).
//
//   * CausalAnalyzer — offline. Rebuilds the cross-party happens-before DAG
//     from a journal and, per finalized round, walks backward from the first
//     `finalized` event to the leader's `propose`, attributing every segment
//     of the critical path to network delay, crypto/verification time, or
//     queueing (timer waits, gossip pull jitter). Emits a per-round report,
//     a hop-count histogram (the structural form of the 3δ/4δ claims), a
//     per-link straggler ranking, and a percentile decomposition of commit
//     latency; `to_dot` renders one round's DAG with the critical path
//     highlighted.
//
// The walk leans on two journal properties: append order equals execution
// order (one global journal, callbacks are atomic), and every event inside
// one delivery activation carries the same virtual timestamp. An activation
// is therefore a contiguous same-party, same-timestamp run starting at its
// `recv`; the consuming protocol events follow it directly. Activations
// with no gating recv (timers, self-deliveries) are bridged by a documented
// gap rule: the nearest earlier same-party event for the same artifact or
// the same round, attributed as queue time.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/journal.hpp"
#include "support/bytes.hpp"

namespace icc::obs {

class Obs;

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Identity of one wire transfer, computed at send time and replayed at
/// delivery so both journal events agree byte-for-byte. `seq` is the
/// 1-based message index on the (sender, receiver) link, so the id is
/// unique even across retransmissions of the same artifact.
///
/// The fingerprint is a fast 64-bit payload digest, NOT a cryptographic
/// one: it runs once per wire message, inside the F-OBS < 5% telemetry
/// budget (sha256 here measured +37% on the gate workload). Matching is
/// exact regardless of collisions because the recv side replays the edge
/// struct computed at send time and seq counters are monotonic. Kept to 16
/// bytes — the network captures one per in-flight message.
struct CausalEdge {
  uint64_t fp = 0;   ///< payload fingerprint (the journal `hash` field)
  uint64_t seq = 0;
};

/// Journaled length of the edge fingerprint (16 hex chars in the JSONL).
inline constexpr size_t kEdgeHashLen = 8;

/// Network-side scribe following the null-probe pattern: one pointer check
/// per wire message when the causal layer is off. Owned by sim::Network,
/// which calls on_send when a message is dispatched and on_recv just before
/// the receiving process runs.
///
/// Recording is two-phase to stay inside the F-OBS budget: the hot path
/// reserves a journal capacity slot and pushes a compact POD record; the
/// full JournalEvents (three times the bytes, plus a std::vector member)
/// are materialized only by flush() at export time and spliced back into
/// exact append order, so the JSONL is byte-identical to in-place appends.
class CausalScribe {
 public:
  CausalScribe() = default;

  /// Wires the scribe to the cluster journal when journaling *and* the
  /// causal sub-switch are on; null otherwise. `n` sizes the per-receiver
  /// delivery counters.
  void attach(Obs* obs, size_t n);
  bool on() const { return journal_ != nullptr; }

  /// Record a `send` event and return the edge id to replay at delivery.
  /// Takes the network's shared payload handle so a broadcast fans one
  /// fingerprint out to every peer instead of recomputing it per link (the
  /// one-entry cache below pins the buffer, making pointer identity a
  /// sound proxy for content identity).
  CausalEdge on_send(uint32_t from, uint32_t to,
                     const std::shared_ptr<const Bytes>& payload, int64_t now);
  /// Record the matching `recv` event. Its value carries a per-receiver
  /// 1-based contiguous delivery index so a deleted recv line is detectable
  /// offline (the indices gap).
  void on_recv(uint32_t from, uint32_t to, const CausalEdge& edge, int64_t now);
  /// Materialize buffered records into the journal (idempotent; called by
  /// the harness before any journal read).
  void flush();

 private:
  /// One buffered wire-transfer event, kept to 32 bytes — the buffer is the
  /// single biggest memory stream on the record path. `order` is the merge
  /// key (stored journal size at reserve time). `value` is the payload size
  /// for sends but the *edge seq* for recvs: a recv's seq names the matched
  /// send, which jittered (non-FIFO) links make unreplayable. The send seq
  /// and the recv delivery index are both replayable — sends increment
  /// per-link counters in record order, delivery indices per-receiver
  /// counters in arrival order, and recording stops exactly when capacity
  /// drops begin — so flush() reproduces them instead of storing them.
  struct Rec {
    int64_t ts;
    uint64_t fp;
    uint32_t order;
    uint32_t value;
    uint16_t party;
    uint16_t peer;
    uint8_t recv;
  };
  static_assert(sizeof(Rec) <= 32, "Rec is the record-path memory stream");

  Journal* journal_ = nullptr;
  size_t n_ = 0;
  /// Per-(sender, receiver) send counters: seq is the 1-based message index
  /// on that link, so (from, to, seq) alone is unique and the hot path is
  /// one array increment (a hash-map here costs a node allocation per
  /// distinct payload — measured well over the F-OBS budget).
  std::vector<uint64_t> link_seq_;
  std::vector<Rec> buffer_;
  /// One-entry fingerprint cache *per sender*: while the handle is held, no
  /// other Bytes can occupy the same address, so pointer equality ⇒
  /// identical (immutable) payload. Broadcasts hit it n−1 times. Per-sender
  /// because parallel mode (DESIGN.md §6) runs distinct senders
  /// concurrently — each cache is then touched only by its owner's events.
  std::vector<std::shared_ptr<const Bytes>> fp_payload_;
  std::vector<uint64_t> fp_cache_;
  /// Replay counters for flush(): per-link send seq and per-receiver
  /// delivery index, persistent across flushes so repeated partial flushes
  /// continue where the previous one stopped.
  std::vector<uint64_t> flush_seq_;
  std::vector<uint64_t> flush_delivered_;
};

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// One segment of a round's critical path, in causal (propose → finalized)
/// order. `from`/`to` are parties (equal for non-network segments).
struct PathSegment {
  enum class Kind { kNetwork, kQueue, kCrypto };
  Kind kind = Kind::kNetwork;
  uint32_t from = 0;
  uint32_t to = 0;
  int64_t start = 0;  ///< virtual µs
  int64_t end = 0;
  /// Network: the event type the hop enabled; queue: the wait reason
  /// ("timer", "gossip_wait").
  const char* label = "";
  /// Global journal indices of the protocol events the segment connects
  /// (SIZE_MAX when unresolved). Used by to_dot; not serialized.
  size_t from_event = SIZE_MAX;
  size_t to_event = SIZE_MAX;
};

/// Critical path of one finalized round.
struct RoundPath {
  uint64_t round = 0;
  uint32_t proposer = JournalEvent::kNoParty;  ///< party of the origin propose
  uint32_t finalizer = JournalEvent::kNoParty; ///< first party to finalize
  int64_t propose_ts = 0;
  int64_t finalized_ts = 0;
  int hops = 0;  ///< network segments on the path
  int64_t network_us = 0;
  int64_t queue_us = 0;
  int64_t crypto_us = 0;
  /// True when the walk reached the round's `propose`. False for rounds
  /// whose origin is unrecorded (corrupt leader — corrupt parties carry no
  /// scribes) or a truncated journal; incomplete rounds are excluded from
  /// the hop histogram and the structural check.
  bool complete = false;
  std::vector<PathSegment> segments;     ///< propose → finalized order
  std::vector<size_t> path_events;       ///< global event indices on the path
};

/// Aggregate per-link delay on critical paths (straggler ranking).
struct EdgeStat {
  uint32_t from = 0;
  uint32_t to = 0;
  uint64_t count = 0;
  int64_t total_us = 0;
  int64_t max_us = 0;
};

/// Nearest-rank percentiles of one latency component across complete rounds.
struct LatencyStat {
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p99 = 0;
  int64_t max = 0;
  double mean = 0.0;
};

struct CritPathReport {
  JournalMeta meta;
  bool has_meta = false;
  /// Named analysis error; analysis stops when set. Names:
  ///   input-malformed     — the journal did not parse (line named)
  ///   causal-no-edges     — journal carries no send/recv layer (v1)
  ///   causal-missing-send — a recv references an unjournaled send
  ///   causal-missing-recv — a receiver's delivery indices gap (deleted line)
  ///   causal-time-travel  — matched send is later than its recv
  std::string error;
  bool truncated = false;  ///< journal dropped events; strict checks skipped

  std::vector<RoundPath> rounds;
  uint64_t rounds_analyzed = 0;
  uint64_t rounds_complete = 0;
  std::map<int, uint64_t> hop_histogram;     ///< complete rounds only
  std::vector<EdgeStat> stragglers;          ///< sorted by total_us desc
  LatencyStat total, network, queue, crypto; ///< complete rounds only
  double network_share = 0.0;  ///< mean fraction of commit latency
  double queue_share = 0.0;
  double crypto_share = 0.0;

  /// Expected critical-path hop count for a protocol ("icc0"/"icc1" → 3,
  /// "icc2" → 4 — the paper's 3δ/4δ claims in structural form); -1 unknown.
  static int expected_hops(const std::string& protocol);
  /// True when every complete round has exactly `expected` hops (and at
  /// least one round is complete). `violation` names the first offender.
  bool check_hops(int expected, std::string* violation = nullptr) const;

  std::string to_json() const;
};

/// Happens-before DAG reconstruction + critical-path extraction. Holds the
/// parsed journal so `to_dot` can render rounds after analysis.
class CausalAnalyzer {
 public:
  explicit CausalAnalyzer(Journal::Parsed parsed);

  const CritPathReport& report() const { return report_; }

  /// Graphviz dot of one round's happens-before DAG: per-party clusters of
  /// the round's protocol events in program order, derived cross-party
  /// delivery edges, critical path in red.
  std::string to_dot(uint64_t round) const;

 private:
  void index();
  void validate();
  void analyze();
  RoundPath walk_round(uint64_t round, size_t finalized_gi);

  Journal::Parsed parsed_;
  CritPathReport report_;
  std::vector<std::vector<size_t>> party_events_;       ///< gi lists per party
  std::vector<size_t> party_pos_;                       ///< gi → index in its list
  std::map<std::tuple<uint32_t, uint32_t, std::array<uint8_t, 32>, uint64_t>, size_t>
      send_by_edge_;                                    ///< edge id → send gi
  std::unordered_map<size_t, size_t> recv_to_send_;     ///< recv gi → send gi
};

/// Convenience: parse + analyze a JSONL document.
CritPathReport analyze_journal_jsonl(const std::string& text);

}  // namespace icc::obs
