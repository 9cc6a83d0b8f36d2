// Protocol ICC0 — the honest party (paper Section 3, Figures 1 and 2).
//
// The party is event-driven rather than thread-blocking: every pool change
// and every delay-function timer triggers evaluate(), which repeatedly fires
// whichever Fig. 1 clause is enabled until none is. This is an exact
// operational reading of the paper's "wait for" semantics (the pool is not
// modified while a clause executes).
//
// Dissemination is factored behind three virtual hooks so ICC1 (gossip) and
// ICC2 (erasure-coded reliable broadcast) can reuse the full consensus logic
// and replace only how large artifacts travel:
//   * disseminate(msg)      — how a consensus message reaches everyone;
//   * echo_block(block)     — clause (c)'s re-send of a peer's block (base:
//                             re-broadcast it; ICC1/ICC2: nothing);
//   * on_wire(from, bytes)  — how raw network bytes become consensus
//                             messages (base: parse + ingest directly).
#pragma once

#include <map>
#include <set>
#include <vector>

#include "consensus/config.hpp"
#include "consensus/permutation.hpp"
#include "obs/obs.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/network.hpp"
#include "types/messages.hpp"
#include "types/pool.hpp"

namespace icc::consensus {

class Icc0Party : public sim::Process {
 public:
  Icc0Party(PartyIndex self, const PartyConfig& config);

  void start(sim::Context& ctx) override;
  void receive(sim::Context& ctx, sim::PartyIndex from, BytesView payload) override;
  void receive_shared(sim::Context& ctx, sim::PartyIndex from,
                      const std::shared_ptr<const Bytes>& payload) override;

  // --- observability (tests, benches, examples) ---
  /// Retained output history: everything when PartyConfig::committed_history
  /// is 0, otherwise the newest blocks up to that bound.
  const std::vector<CommittedBlock>& committed() const { return committed_; }
  /// Total blocks ever committed (monotonic, unaffected by the history
  /// bound) — what throughput statistics should read.
  uint64_t committed_total() const { return committed_total_; }
  Round current_round() const { return round_; }
  Round last_finalized_round() const { return k_max_; }
  const types::Pool& pool() const { return pool_; }
  PartyIndex index() const { return self_; }

  /// Ingress-pipeline counters (decode/dedup stages).
  const pipeline::IngressPipeline& ingress() const { return pipeline_; }
  /// Verification counters (cache hits, provider calls, batching).
  const pipeline::Verifier& verifier() const { return verifier_; }
  /// Per-round telemetry probe (null-Obs when PartyConfig::obs is unset).
  const obs::PartyProbe& probe() const { return probe_; }

  /// Blocks this party notarization-shared in the current round (the set N
  /// of Fig. 1) — exposed for protocol-invariant tests.
  const std::map<Hash, uint32_t>& shared_blocks() const { return notarized_set_; }

 protected:
  // --- dissemination hooks (overridden by ICC1 / ICC2) ---
  /// Send a consensus message to all parties. `is_block_bearing` marks
  /// messages containing a full block (the expensive ones).
  virtual void disseminate(sim::Context& ctx, const types::Message& msg,
                           bool is_block_bearing);
  /// Translate a wire buffer into zero or more consensus messages, feeding
  /// them to ingest(). The buffer is the network's shared allocation — the
  /// ingress pipeline interns it cluster-wide when a store is attached. The
  /// base implementation decodes and ingests directly.
  virtual void on_wire(sim::Context& ctx, sim::PartyIndex from,
                       const std::shared_ptr<const Bytes>& bytes);

  /// Fig. 1 clause (c)'s echo of a peer's valid block. The base
  /// implementation re-broadcasts the block with its authenticator and this
  /// party's parent notarization; ICC1 and ICC2 leave delivery to their
  /// sub-layers and echo nothing.
  virtual void echo_block(sim::Context& ctx, const Block& block, const Bytes& authenticator);

  /// Byzantine-behaviour hook: called instead of honest proposal logic when
  /// overridden (see byzantine.hpp). Returns true if a proposal was made.
  virtual bool propose_block(sim::Context& ctx);

  /// Called after the pool is pruned below `round` (sub-layers can drop
  /// their own per-round state).
  virtual void on_prune(Round round) { (void)round; }

  /// Insert a parsed message into the pool / beacon state. Returns true if
  /// state changed. `from` identifies the wire sender (used to answer
  /// catch-up requests point-to-point; untrusted otherwise). `origin`, when
  /// set, is the shared parsed artifact `msg` lives inside — it lets the
  /// proposal path alias the interned Block into the pool instead of
  /// copying it.
  bool ingest(sim::Context& ctx, sim::PartyIndex from, const types::Message& msg,
              const types::SharedMessage& origin = nullptr);

  /// Drive the protocol until no clause fires.
  void evaluate(sim::Context& ctx);

  /// Construct and disseminate a proposal extending a notarized round-(k-1)
  /// block. Used by propose_block and by Byzantine variants.
  void emit_proposal(sim::Context& ctx, const Bytes& payload);
  types::ProposalMsg build_proposal(const Block& block);

  // --- shared state (accessible to Byzantine subclasses) ---
  PartyIndex self_;
  PartyConfig config_;
  crypto::CryptoProvider* crypto_;
  pipeline::Verifier verifier_;        // stage 3: all signature checks
  types::Pool pool_;                   // stage 4: pre-verified artifacts only
  pipeline::IngressPipeline pipeline_; // stages 1-2: decode + dedup
  obs::PartyProbe probe_;              // telemetry (no-op when detached)
  obs::JournalScribe journal_;         // flight recorder (no-op when detached)

  // Verified ingest helpers (stage 3 + 4 for one artifact type each).
  bool ingest_proposal(const types::ProposalMsg& msg,
                       const types::SharedMessage& origin = nullptr);
  bool ingest_notarization(const types::NotarizationMsg& msg);
  bool ingest_notarization_share(const types::NotarizationShareMsg& msg);
  bool ingest_finalization(const types::FinalizationMsg& msg);
  bool ingest_finalization_share(const types::FinalizationShareMsg& msg);

  // Beacon pipeline.
  std::map<Round, Bytes> beacon_values_;  // beacon_values_[0] = genesis
  std::map<Round, std::map<PartyIndex, Bytes>> pending_beacon_shares_;
  std::map<Round, std::vector<std::pair<crypto::PartyIndex, Bytes>>> verified_beacon_shares_;
  std::set<Round> beacon_share_broadcast_;  // rounds whose share we already sent

  // Round state (Fig. 1).
  Round round_ = 1;
  bool in_round_ = false;  // false: awaiting the round_ beacon
  sim::Time t0_ = 0;
  bool proposed_ = false;
  RoundRanks ranks_;
  std::map<Hash, uint32_t> notarized_set_;  // N: block hash -> rank
  std::set<uint32_t> disqualified_;         // D

  // Finalization subprotocol (Fig. 2).
  Round k_max_ = 0;
  std::vector<CommittedBlock> committed_;
  uint64_t committed_total_ = 0;  ///< lifetime count (history may be bounded)

  /// Append to committed_ honouring PartyConfig::committed_history: trims
  /// the oldest half-bound in one move when the vector reaches 1.5× the
  /// bound, so the amortized cost per commit stays O(1).
  void push_committed(CommittedBlock c) {
    committed_total_++;
    committed_.push_back(std::move(c));
    const size_t bound = static_cast<size_t>(config_.committed_history);
    if (bound != 0 && committed_.size() > bound + bound / 2)
      committed_.erase(committed_.begin(),
                       committed_.begin() + static_cast<ptrdiff_t>(committed_.size() - bound));
  }

  // Proposal timestamps (for latency measurements; local blocks only).
  std::map<Hash, sim::Time> proposal_times_;

  // Adaptive delay bound (== config delta_bnd unless adaptation is on).
  sim::Duration delta_local_;

  // Catch-up packages.
  std::optional<types::CupMsg> latest_cup_;
  std::map<Round, std::pair<Hash, Bytes>> cup_round_info_;  // my (hash, beacon) per checkpoint
  std::map<Round, std::map<PartyIndex, Bytes>> cup_shares_;
  sim::Time last_cup_request_ = -1;

 public:
  /// Current local delay bound (for tests of the adaptive mode).
  sim::Duration delta_bound() const { return delta_local_; }
  /// Latest combined catch-up package held (for tests).
  const std::optional<types::CupMsg>& latest_cup() const { return latest_cup_; }

 private:
  sim::Duration prop_delay(size_t rank) const {
    return 2 * delta_local_ * static_cast<sim::Duration>(rank);
  }
  sim::Duration ntry_delay(size_t rank) const {
    return 2 * delta_local_ * static_cast<sim::Duration>(rank) + config_.delays.epsilon;
  }
  void adapt_delays(bool clean_round);

  void handle_cup_share(sim::Context& ctx, const types::CupShareMsg& msg);
  void handle_cup_request(sim::Context& ctx, sim::PartyIndex from,
                          const types::CupRequestMsg& msg);
  bool adopt_cup(sim::Context& ctx, const types::CupMsg& msg);
  void maybe_emit_cup_share(sim::Context& ctx, const CommittedBlock& block);
  void maybe_request_cup(sim::Context& ctx, Round observed_round);

  void try_advance_beacon(sim::Context& ctx);
  void enter_round(sim::Context& ctx);
  bool fire_finish_round(sim::Context& ctx);   // clause (a)
  bool fire_propose(sim::Context& ctx);        // clause (b)
  bool fire_echo_notarize(sim::Context& ctx);  // clause (c)
  void check_finalization(sim::Context& ctx);  // Fig. 2
  void broadcast_beacon_share(sim::Context& ctx, Round round);
  void ingest_beacon_share(sim::Context& ctx, const types::BeaconShareMsg& msg);
  void drain_pending_beacon_shares(sim::Context& ctx, Round round);
};

}  // namespace icc::consensus
