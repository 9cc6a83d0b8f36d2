// Protocol ICC2 — ICC1's consensus logic with block dissemination replaced
// by the erasure-coded reliable broadcast subprotocol (rbc::RbcLayer).
//
// Small artifacts remain all-to-all pushes. Proposals are dispersed as
// Reed–Solomon fragments. Clause (c)'s echo of a peer's block is a no-op:
// re-dispersing the whole block would defeat the bandwidth bound, and the
// RBC's own fragment echoes already guarantee totality of delivery.
#pragma once

#include "consensus/icc0.hpp"
#include "rbc/rbc.hpp"

namespace icc::consensus {

class Icc2Party : public Icc0Party {
 public:
  Icc2Party(PartyIndex self, const PartyConfig& config)
      : Icc0Party(self, config),
        rbc_(verifier_, self, [this](sim::Context& ctx, const Bytes& raw) {
          on_rbc_deliver(ctx, raw);
        }) {
    rbc_.attach_obs(config.obs);
  }

 protected:
  void disseminate(sim::Context& ctx, const types::Message& msg,
                   bool is_block_bearing) override;
  void echo_block(sim::Context&, const Block&, const Bytes&) override {}
  void on_wire(sim::Context& ctx, sim::PartyIndex from,
               const std::shared_ptr<const Bytes>& bytes) override;
  void on_prune(Round round) override { rbc_.prune_below(round); }

 private:
  void on_rbc_deliver(sim::Context& ctx, const Bytes& raw);

  rbc::RbcLayer rbc_;
};

}  // namespace icc::consensus
