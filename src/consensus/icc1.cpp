#include "consensus/icc1.hpp"

namespace icc::consensus {

void Icc1Party::disseminate(sim::Context& ctx, const types::Message& msg,
                            bool is_block_bearing) {
  Bytes raw = types::serialize_message(msg);
  if (!is_block_bearing) {
    // Small artifacts travel as in ICC0 (all-to-all push). The paper keeps
    // these pushes: they are never the byte bottleneck.
    ctx.broadcast(std::move(raw));
    return;
  }
  // Block-bearing artifact: hold the shared wire buffer and hand ourselves
  // the same handle (own pool). Small blocks are pushed whole (pulling costs
  // two extra hops); large ones are advertised and pulled on demand. One
  // allocation serves the gossip store, the self-delivery and every send.
  Round round = current_round();
  auto shared = std::make_shared<const Bytes>(std::move(raw));
  if (gossip_.store(shared, round, ctx.now())) {
    if (shared->size() <= gossip_.config().push_threshold) {
      ctx.broadcast(shared);  // includes self-delivery
      return;
    }
    ctx.send(ctx.self(), shared);  // immediate self-delivery
    ctx.broadcast(types::serialize_message(types::Message{gossip_.advert_for(*shared, round)}));
  }
}

void Icc1Party::on_wire(sim::Context& ctx, sim::PartyIndex from,
                        const std::shared_ptr<const Bytes>& bytes) {
  // Shared ingress stages: decode + dedup. Adverts and pull requests are
  // sender-scoped and bypass dedup inside decode, so the gossip handling
  // below sees every copy.
  types::SharedMessage msg = pipeline_.decode_shared(from, bytes);
  if (!msg) return;

  if (const auto* advert = std::get_if<types::AdvertMsg>(msg.get())) {
    gossip_.on_advert(ctx, from, *advert);
    return;
  }
  if (const auto* request = std::get_if<types::RequestMsg>(msg.get())) {
    gossip_.on_request(ctx, from, *request);
    return;
  }

  // A block body (pushed whole by its proposer when small, or pulled):
  // become a source for these exact bytes and tell the others, then feed
  // consensus as usual. Non-proposers never re-send a block; this advert is
  // their whole share of its dissemination. The gossip layer stores the
  // delivered wire buffer itself — across parties that is one shared
  // allocation per artifact, not n copies.
  if (std::holds_alternative<types::ProposalMsg>(*msg)) {
    const auto& block = std::get<types::ProposalMsg>(*msg).block;
    if (gossip_.store(bytes, block.round, ctx.now())) {
      ctx.broadcast(
          types::serialize_message(types::Message{gossip_.advert_for(*bytes, block.round)}));
    }
  }

  ingest(ctx, from, *msg, msg);
  evaluate(ctx);
}

}  // namespace icc::consensus
