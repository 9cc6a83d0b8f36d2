// Configuration shared by the ICC protocol parties.
#pragma once

#include <functional>
#include <memory>

#include "crypto/provider.hpp"
#include "obs/obs.hpp"
#include "pipeline/verifier.hpp"
#include "sim/time.hpp"
#include "types/block.hpp"

namespace icc::pipeline {
class InternStore;
}

namespace icc::consensus {

using types::Block;
using types::Hash;
using types::PartyIndex;
using types::Round;

/// A block committed to a party's output queue (the atomic-broadcast output).
struct CommittedBlock {
  Round round = 0;
  PartyIndex proposer = 0;
  Hash hash{};
  Bytes payload;  ///< empty when PartyConfig::record_payloads is false
  size_t payload_size = 0;
  sim::Time committed_at = 0;
};

/// Application hook producing block payloads (paper: getPayload(B_p); "the
/// details of which are application dependent"). The chain root..parent is
/// provided so implementations can de-duplicate commands.
class PayloadBuilder {
 public:
  virtual ~PayloadBuilder() = default;
  virtual Bytes build(Round round, PartyIndex proposer,
                      const std::vector<const Block*>& chain) = 0;
};

/// Fixed-size filler payloads (benchmarks; size models batched commands).
class FixedSizePayload final : public PayloadBuilder {
 public:
  explicit FixedSizePayload(size_t size) : size_(size) {}
  Bytes build(Round round, PartyIndex proposer, const std::vector<const Block*>&) override {
    Bytes p(size_, 0);
    // Cheap deterministic content so equal-size payloads still hash apart.
    for (size_t i = 0; i < std::min<size_t>(size_, 16); ++i)
      p[i] = static_cast<uint8_t>((round >> (8 * (i % 4))) ^ (proposer + i));
    return p;
  }

 private:
  size_t size_;
};

/// Delay functions of Fig. 1, recommended instantiation (eq. 2):
///   Delta_prop(r) = 2 * Delta_bnd * r
///   Delta_ntry(r) = 2 * Delta_bnd * r + epsilon.
struct DelayFunctions {
  sim::Duration delta_bnd = sim::msec(300);
  sim::Duration epsilon = sim::msec(0);

  sim::Duration prop(size_t rank) const {
    return 2 * delta_bnd * static_cast<sim::Duration>(rank);
  }
  sim::Duration ntry(size_t rank) const {
    return 2 * delta_bnd * static_cast<sim::Duration>(rank) + epsilon;
  }
};

struct PartyConfig {
  crypto::CryptoProvider* crypto = nullptr;
  /// Staged ingress pipeline switch (decode → dedup → verify → apply). On by
  /// default; off reproduces the pre-pipeline verify-on-insert behaviour.
  pipeline::PipelineOptions pipeline;
  DelayFunctions delays;
  std::shared_ptr<PayloadBuilder> payload;
  /// Telemetry sink (metrics registry + event journal). Null disables every
  /// probe — the party then pays one pointer check per probe site.
  obs::Obs* obs = nullptr;
  /// Cluster-shared artifact intern store (DESIGN.md §7): shared decode
  /// cache + cross-party verification memo. Null = per-party fidelity mode
  /// (every receiver parses and verifies independently). Not owned.
  pipeline::InternStore* intern = nullptr;
  /// Tags rounds by the actual corruption status of the rank-0 leader
  /// (only the harness knows the corrupt slots). Optional; without it the
  /// leader-honesty metrics fall back to the party-observable proxy
  /// (round finished on the rank-0 block).
  std::function<bool(PartyIndex)> party_honesty;
  /// Called on every commit, in output order.
  std::function<void(PartyIndex self, const CommittedBlock&)> on_commit;
  /// Called when this party proposes a block (latency instrumentation).
  std::function<void(PartyIndex self, Round round, const Hash& hash, sim::Time now)>
      on_propose;
  /// Keep full payload bytes in committed(); disable in long benchmarks to
  /// bound memory (payload_size is always recorded).
  bool record_payloads = true;
  /// Bound committed() to the newest this many blocks (0 = unbounded).
  /// committed_total() keeps the true count; on_commit still fires for every
  /// block. Soak runs set a small bound so a party's output history cannot
  /// grow without limit over millions of rounds.
  Round committed_history = 0;
  /// Prune the pool below (last finalized round - prune_lag); 0 disables.
  Round prune_lag = 16;
  /// Stop participating after this round (benchmark runs); 0 = unbounded.
  Round max_round = 0;

  /// Catch-up packages: every cup_interval-th finalized round, parties
  /// exchange threshold shares endorsing (round, block hash, beacon value);
  /// the combined package lets a lagging replica resume from that round
  /// without replaying (possibly pruned) history. 0 disables.
  Round cup_interval = 0;
  /// How many rounds behind (observed via live traffic for future rounds)
  /// before a party requests a CUP.
  Round lag_threshold = 8;

  /// Adaptive delay functions (paper Section 1: "the ICC protocols can be
  /// modified to adaptively adjust to an unknown communication-delay
  /// bound"). The local Delta_bnd grows multiplicatively whenever a round
  /// fails to finalize cleanly off the leader's block, and decays slowly on
  /// clean rounds. Only liveness depends on the bound, so adaptation cannot
  /// affect safety; the "care" the paper asks for is the cap (a Byzantine
  /// leader can force growth) and the slow decay (avoid oscillation).
  struct AdaptiveDelays {
    bool enabled = false;
    sim::Duration floor = sim::msec(10);
    sim::Duration cap = sim::seconds(4);
    double grow = 1.5;
    double decay = 0.95;
  };
  AdaptiveDelays adaptive;
};

}  // namespace icc::consensus
