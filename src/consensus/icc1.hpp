// Protocol ICC1 — ICC0 integrated with the peer-to-peer gossip sub-layer.
//
// Identical consensus logic (the paper: "only slightly more involved than
// ICC0" — the difference is dissemination). Small artifacts are pushed
// all-to-all as in ICC0; block-bearing artifacts are advertised by hash and
// pulled on demand through gossip::GossipLayer, which removes the
// communication bottleneck at the leader for large blocks.
//
// Only the proposer sends a block; clause (c)'s echo is a no-op. Every holder
// advertises the exact bytes it received, so every honest party can pull
// every block (both of an equivocating rank too). An ICC0 echo carries the
// echoer's own parent notarization, whose bytes depend on its signer set, so
// gossip would treat each echo as a new artifact (DESIGN.md §ICC1).
#pragma once

#include "consensus/icc0.hpp"
#include "gossip/gossip.hpp"

namespace icc::consensus {

class Icc1Party : public Icc0Party {
 public:
  Icc1Party(PartyIndex self, const PartyConfig& config,
            const gossip::GossipConfig& gossip_config = {})
      : Icc0Party(self, config), gossip_(gossip_config, self) {
    gossip_.attach_obs(config.obs);
  }

  const gossip::GossipLayer& gossip() const { return gossip_; }

 protected:
  void disseminate(sim::Context& ctx, const types::Message& msg,
                   bool is_block_bearing) override;
  void echo_block(sim::Context&, const Block&, const Bytes&) override {}
  void on_wire(sim::Context& ctx, sim::PartyIndex from,
               const std::shared_ptr<const Bytes>& bytes) override;
  void on_prune(Round round) override { gossip_.prune_below(round); }

  gossip::GossipLayer gossip_;
};

}  // namespace icc::consensus
