// Consensus flight recorder: an append-only, structured event journal.
//
// Where the metrics Registry answers "how many / how fast" in aggregate, the
// journal answers the accountability question behind the paper's safety
// lemmas: *which* quorum notarized block B in round r, and was it valid?
// Every honest party records typed protocol events — proposals entering the
// pool, notarization/finalization shares cast, quorums aggregated (with
// signer sets), beacon values, RBC phase transitions, gossip deliveries —
// stamped with virtual time, into one per-cluster journal.
//
// Export is deterministic JSONL (one event per line, fixed key order, no
// floats): the same seed produces a byte-identical file, which makes the
// journal diffable across runs and lets `icc_inspect audit` mechanically
// re-check the safety invariants offline (see obs/audit.hpp for the
// invariant-to-lemma mapping).
//
// Recording discipline matches the probes (obs.hpp): parties hold a
// JournalScribe that is null-attached when the journal is off, so a probe
// site costs one pointer check; enabling the journal never changes protocol
// behaviour (scribes only read protocol state).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace icc::obs {

/// One recorded protocol event. Fields that do not apply to an event type
/// keep their sentinel and are omitted from the JSONL line. `type` and
/// `detail` point at static strings (the journal_type constants below and
/// provenance/phase literals); parsed events alias the same constants so
/// pointer identity works for comparisons. The layout is deliberately flat —
/// recording an event must not allocate (the F-OBS <5% overhead budget
/// covers the journal): the hash is raw bytes, hex-encoded only at export.
struct JournalEvent {
  static constexpr uint32_t kNoParty = UINT32_MAX;
  static constexpr int64_t kNoValue = INT64_MIN;

  const char* type = "";
  const char* detail = nullptr;    ///< provenance / RBC phase; nullptr = n/a
  int64_t ts = 0;                  ///< virtual µs
  int64_t value = kNoValue;        ///< generic numeric payload (bytes, ...)
  uint64_t round = 0;              ///< 0 = not round-scoped
  uint64_t edge = 0;               ///< causal edge seq (send/recv); 0 = n/a
  uint32_t party = kNoParty;       ///< recording party
  uint32_t peer = kNoParty;        ///< other endpoint of a send/recv edge
  uint32_t proposer = kNoParty;    ///< proposer of the referenced block
  uint8_t hash_len = 0;            ///< bytes used in `hash`; 0 = n/a
  std::array<uint8_t, 32> hash{};  ///< block/artifact hash or beacon value
  std::vector<uint32_t> signers;   ///< quorum signer set; empty = n/a

  void set_hash(const uint8_t* data, size_t len);
  /// Lowercase hex of the hash bytes; "" when absent. Export/audit only —
  /// allocates, never called on the record path.
  std::string hash_hex() const;
  bool has_detail() const { return detail != nullptr && detail[0] != '\0'; }
};

/// Event type tags (the JSONL "type" values). Parsed journals intern
/// unknown types as-is, so the auditor degrades gracefully on future types.
namespace journal_type {
inline constexpr char kRoundEnter[] = "round_enter";     ///< beacon ready, clauses armed
inline constexpr char kProposal[] = "proposal";          ///< proposal entered the pool
inline constexpr char kPropose[] = "propose";            ///< this party proposed
inline constexpr char kNotarShare[] = "notar_share";     ///< notarization share cast
inline constexpr char kNotarAgg[] = "notar_agg";         ///< notarization quorum held
inline constexpr char kFinalShare[] = "final_share";     ///< finalization share cast
inline constexpr char kFinalAgg[] = "final_agg";         ///< finalization quorum held
inline constexpr char kFinalized[] = "finalized";        ///< block finalized (watermark)
inline constexpr char kCommit[] = "commit";              ///< block entered output queue
inline constexpr char kBeaconShare[] = "beacon_share";   ///< beacon share broadcast
inline constexpr char kBeacon[] = "beacon";              ///< beacon value combined (hash)
inline constexpr char kRbcPhase[] = "rbc_phase";         ///< ICC2 RBC transition (detail)
inline constexpr char kGossipDeliver[] = "gossip_deliver";  ///< pulled artifact arrived
// Causal layer (schema icc-journal/v2, obs/causal.hpp). A send/recv pair
// shares (party↔peer, hash, edge) and carries the virtual send/arrival time,
// so each network hop's exact delay is recoverable from the journal alone.
inline constexpr char kSend[] = "send";                  ///< wire message left `party`
inline constexpr char kRecv[] = "recv";                  ///< wire message reached `party`
inline constexpr char kGossipAdvert[] = "gossip_advert";    ///< advert seen, pull queued
inline constexpr char kGossipRequest[] = "gossip_request";  ///< pull request dispatched
}  // namespace journal_type

/// Run-identifying header, written as the first JSONL line. The auditor
/// needs n and t to know the quorum size an aggregate must reach.
struct JournalMeta {
  uint32_t n = 0;
  uint32_t t = 0;
  std::string protocol;  ///< "icc0" | "icc1" | "icc2" | free-form
  uint64_t seed = 0;
  /// "icc-journal/v1" (protocol events only) or "icc-journal/v2" (adds the
  /// causal send/recv layer). v1 journals still parse and audit; only the
  /// critical-path analyzer requires v2.
  std::string schema = kSchemaV1;
  /// Export-side drop count, filled when *parsing* a meta line (the writer
  /// passes the live count to meta_json instead). A nonzero value tells
  /// offline analyzers the journal is truncated.
  uint64_t dropped = 0;
  uint32_t quorum() const { return n - t; }

  static constexpr const char* kSchemaV1 = "icc-journal/v1";
  static constexpr const char* kSchemaV2 = "icc-journal/v2";
};

/// Append-only event store with a capacity bound (events past the bound are
/// counted, not stored — the meta line reports the drop count so exports
/// are never silently partial).
class Journal {
 public:
  /// capacity 0 disables recording entirely (append() is a no-op).
  explicit Journal(size_t capacity) : capacity_(capacity) {
    // Reserve up front (clamped; pages commit only when touched) so the
    // recording path never pays realloc-doubling copies mid-run.
    events_.reserve(std::min<size_t>(capacity_, size_t{1} << 22));
  }

  bool enabled() const { return capacity_ != 0; }
  size_t capacity() const { return capacity_; }
  /// Reserve a capacity slot for an event buffered outside the journal (the
  /// causal scribe keeps compact POD records and materializes them only at
  /// export, so the per-wire-message hot path never builds a JournalEvent).
  /// Counts against capacity immediately — drop accounting is identical to
  /// appending in place. False (drop counted) when full.
  bool reserve_external() {
    if (events_.size() + external_ >= capacity_) {
      if (capacity_ != 0) dropped_++;
      return false;
    }
    external_++;
    return true;
  }
  /// Splice reserved external events into append order. `recs[i].first` is
  /// size() at the time the slot was reserved: the event sorts before the
  /// stored event at that index, and ties keep their buffer order — the
  /// merged stream is byte-identical to having appended in place.
  void merge_external(std::vector<std::pair<uint64_t, JournalEvent>>&& recs);
  void set_meta(const JournalMeta& meta) { meta_ = meta; }
  const JournalMeta& meta() const { return meta_; }

  void append(JournalEvent ev);

  const std::vector<JournalEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Deterministic JSONL: meta line, then one line per event in append
  /// order, with seq numbers. Same seed ⇒ byte-identical string.
  std::string to_jsonl() const;
  /// Write to_jsonl() to `path`; false on I/O error.
  bool write_jsonl(const std::string& path) const;
  /// Chrome trace_event document rendered from the events (see
  /// trace_events_json); the metadata carries the journal's drop count.
  std::string trace_json() const;

  /// One event as a JSON object (fixed key order, absent fields omitted).
  static std::string event_json(const JournalEvent& ev, uint64_t seq);
  /// Meta header line.
  static std::string meta_json(const JournalMeta& meta, uint64_t event_count,
                               uint64_t dropped);

  // --- parsing (icc_inspect audit and critpath, tests) ---
  /// Parse a whole JSONL document (as produced by to_jsonl, or tampered
  /// variants of it) through support/json: the meta line first, then
  /// events; blank lines are skipped, unknown keys and event types kept.
  /// Parsing stops at the first line that is not JSON, not the expected
  /// record, or has a known field of the wrong type; `error` names that
  /// line. A document with no meta line is an error too.
  struct Parsed {
    JournalMeta meta;
    bool has_meta = false;
    std::vector<JournalEvent> events;
    std::string error;  ///< "" when the whole document parsed
  };
  static Parsed parse_jsonl(const std::string& text);

 private:
  /// The store mutation behind append(), applied at the canonical point
  /// (inline when sequential, via the defer queue replay when parallel).
  void append_in_order(JournalEvent ev);

  size_t capacity_;
  JournalMeta meta_;
  std::vector<JournalEvent> events_;
  uint64_t dropped_ = 0;
  uint64_t external_ = 0;  ///< slots reserved but not yet merged
};

/// Chrome trace_event objects (comma-joined, no envelope, sorted by ts)
/// rendered from journal events; chrome://tracing and Perfetto open them.
/// pid = party, tid = lane (0 consensus, 1 gossip), ts/dur = virtual µs.
///   propose / finalize   instants at `propose` / `finalized` events
///   pull-retry           instant at a `gossip_request` with attempt > 1
///   fetch                span from the advert that armed an artifact's pull
///                        (`gossip_advert`) to its `gossip_deliver` (bytes)
///   round                span from `round_enter` to the first moment the
///                        party holds a round-r block together with its
///                        notarization, or sees a round-(r+1) proposal (an
///                        ICC0 proposal carries its parent's notarization);
///                        never earlier than `round_enter`
std::string trace_events_json(const std::vector<JournalEvent>& events);

class Obs;  // obs.hpp owns the Journal alongside the Registry

/// Per-subsystem emitter following the null-probe pattern: attach() wires it
/// to the cluster journal when (and only when) journaling is on; every
/// record method returns on its first branch otherwise. The scribe owns the
/// event-shaping so instrumented call sites stay one-liners.
class JournalScribe {
 public:
  JournalScribe() = default;

  void attach(Obs* obs, uint32_t party);
  bool on() const { return journal_ != nullptr; }

  void round_enter(uint64_t round, int64_t now);
  /// A proposal for `round` by `proposer` entered the pool (first sighting).
  void proposal(uint64_t round, uint32_t proposer, const std::array<uint8_t, 32>& hash,
                int64_t now);
  /// This party proposed.
  void propose(uint64_t round, const std::array<uint8_t, 32>& hash, int64_t now);
  void notar_share(uint64_t round, uint32_t proposer, const std::array<uint8_t, 32>& hash,
                   int64_t now);
  /// A notarization aggregate entered the pool. `signers` is the quorum set
  /// when this party combined it itself ("combined"); empty when the
  /// aggregate arrived combined over the wire ("wire" — signer sets are not
  /// recoverable from oracle-crypto aggregates).
  void notar_agg(uint64_t round, uint32_t proposer, const std::array<uint8_t, 32>& hash,
                 std::vector<uint32_t> signers, const char* provenance, int64_t now);
  void final_share(uint64_t round, uint32_t proposer, const std::array<uint8_t, 32>& hash,
                   int64_t now);
  void final_agg(uint64_t round, uint32_t proposer, const std::array<uint8_t, 32>& hash,
                 std::vector<uint32_t> signers, const char* provenance, int64_t now);
  void finalized(uint64_t round, const std::array<uint8_t, 32>& hash, int64_t now);
  void commit(uint64_t round, const std::array<uint8_t, 32>& hash, int64_t now);
  void beacon_share(uint64_t round, int64_t now);
  void beacon(uint64_t round, const std::vector<uint8_t>& value, int64_t now);
  /// ICC2 reliable-broadcast phase transition; `phase` is one of
  /// "disperse", "echo", "reconstruct", "deliver", "reject".
  void rbc_phase(uint64_t round, uint32_t proposer, const std::array<uint8_t, 32>& hash,
                 const char* phase, int64_t now);
  /// A pulled gossip artifact arrived (advert → stored completed).
  void gossip_deliver(uint64_t round, const std::array<uint8_t, 32>& artifact_id,
                      uint64_t bytes, int64_t now);
  /// First advert for a not-yet-held artifact: the jittered pull timer was
  /// armed. Lets the causal analyzer attribute advert → request gaps to the
  /// gossip jitter queue rather than to the network.
  void gossip_advert(uint64_t round, const std::array<uint8_t, 32>& artifact_id,
                     uint32_t advertiser, int64_t now);
  /// A pull request was dispatched to `target` (value = attempt number).
  void gossip_request(uint64_t round, const std::array<uint8_t, 32>& artifact_id,
                      uint32_t target, int64_t attempt, int64_t now);

 private:
  /// The fields every event carries, stamped with this party.
  JournalEvent event(const char* type, uint64_t round, int64_t now) const;
  /// ... plus a block/artifact hash.
  JournalEvent hashed(const char* type, uint64_t round, const std::array<uint8_t, 32>& hash,
                      int64_t now) const;
  /// ... plus the proposer of the referenced block.
  JournalEvent block(const char* type, uint64_t round, uint32_t proposer,
                     const std::array<uint8_t, 32>& hash, int64_t now) const;

  Journal* journal_ = nullptr;
  uint32_t party_ = 0;
};

}  // namespace icc::obs
