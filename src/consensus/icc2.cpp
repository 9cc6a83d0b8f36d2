#include "consensus/icc2.hpp"

namespace icc::consensus {

void Icc2Party::disseminate(sim::Context& ctx, const types::Message& msg,
                            bool is_block_bearing) {
  if (!is_block_bearing) {
    ctx.broadcast(types::serialize_message(msg));
    return;
  }
  // Only our own proposal is block-bearing here (echo_block is a no-op):
  // full dispersal. Our pool already holds it (the caller ingests before
  // disseminating).
  rbc_.broadcast_block(ctx, std::get<types::ProposalMsg>(msg));
}

void Icc2Party::on_wire(sim::Context& ctx, sim::PartyIndex from,
                        const std::shared_ptr<const Bytes>& bytes) {
  // Shared ingress stages. Dedup also absorbs repeated copies of the same
  // fragment (a duplicate insert would be a no-op in the RBC layer anyway).
  types::SharedMessage msg = pipeline_.decode_shared(from, bytes);
  if (!msg) return;
  if (const auto* fragment = std::get_if<types::RbcFragmentMsg>(msg.get())) {
    rbc_.on_fragment(ctx, *fragment);
    return;
  }
  ingest(ctx, from, *msg, msg);
  evaluate(ctx);
}

void Icc2Party::on_rbc_deliver(sim::Context& ctx, const Bytes& raw) {
  probe_.on_rbc_delivered(raw.size());
  // Every party reconstructs byte-identical proposal bytes from its
  // fragments, so the parse (and the pool's Block) interns cluster-wide
  // even though the buffer was produced locally. Reconstruction is not
  // ingress — dedup/malformed counters stay untouched, as before.
  types::SharedMessage msg =
      pipeline_.parse_only(std::make_shared<const Bytes>(raw));
  if (!msg) return;
  if (journal_.on()) {
    if (const auto* proposal = std::get_if<types::ProposalMsg>(msg.get()))
      journal_.rbc_phase(proposal->block.round, proposal->block.proposer,
                         proposal->block.hash(), "deliver", ctx.now());
  }
  ingest(ctx, ctx.self(), *msg, msg);
  evaluate(ctx);
}

}  // namespace icc::consensus
