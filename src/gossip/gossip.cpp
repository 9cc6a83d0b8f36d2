#include "gossip/gossip.hpp"

namespace icc::gossip {

bool GossipLayer::store(std::shared_ptr<const Bytes> raw, Round round, sim::Time now) {
  Hash id = types::artifact_id(*raw);
  const size_t size = raw->size();
  auto [it, inserted] = artifacts_.emplace(id, Stored{std::move(raw), round});
  if (!inserted) return false;
  if (auto pit = pending_.find(id); pit != pending_.end()) {
    if (probe_.on() && now >= 0 && pit->second.first_advert_at >= 0)
      probe_.on_fetched(pit->second.first_advert_at, now);
    if (now >= 0) journal_.gossip_deliver(round, id, size, now);
    pending_.erase(pit);  // no longer waiting for it
    probe_.on_pending_depth(static_cast<int64_t>(pending_.size()));
  }
  return true;
}

types::AdvertMsg GossipLayer::advert_for(const Bytes& raw, Round round) const {
  types::AdvertMsg m;
  m.artifact_type = raw.empty() ? 0 : raw[0];
  m.round = round;
  m.artifact_id = types::artifact_id(raw);
  m.size_hint = static_cast<uint32_t>(raw.size());
  return m;
}

void GossipLayer::on_advert(sim::Context& ctx, sim::PartyIndex from,
                            const types::AdvertMsg& msg) {
  if (has(msg.artifact_id)) return;
  Pending& p = pending_[msg.artifact_id];
  p.round = msg.round;
  if (p.first_advert_at < 0) p.first_advert_at = ctx.now();
  for (sim::PartyIndex a : p.advertisers)
    if (a == from) return;  // duplicate advert
  p.advertisers.push_back(from);
  probe_.on_advert(static_cast<int64_t>(pending_.size()));
  if (p.request_scheduled) return;
  p.request_scheduled = true;
  // Journaled at the moment the pull timer is armed: the causal analyzer
  // attributes the advert → request gap to gossip jitter, not the network.
  journal_.gossip_advert(msg.round, msg.artifact_id, from, ctx.now());

  // Jittered pull: by the time the request fires, more advertisers may be
  // known, spreading load off the original proposer.
  sim::Duration jitter =
      config_.request_jitter > 0
          ? static_cast<sim::Duration>(
                ctx.rng().below(static_cast<uint64_t>(config_.request_jitter) + 1))
          : 0;
  sim::Context c = ctx;
  Hash id = msg.artifact_id;
  ctx.set_timer(jitter, [this, c, id]() mutable { try_request(c, id); });
}

void GossipLayer::try_request(sim::Context ctx, Hash id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // delivered (or pruned) meanwhile
  Pending& p = it->second;
  if (p.attempts >= config_.max_attempts || p.advertisers.empty()) return;
  p.attempts++;
  probe_.on_request_sent(p.attempts > 1);

  // Rotate through advertisers, starting from a random position on the
  // first attempt so concurrent requesters pick different sources.
  if (p.attempts == 1) {
    p.next_advertiser = ctx.rng().below(p.advertisers.size());
  }
  sim::PartyIndex target = p.advertisers[p.next_advertiser % p.advertisers.size()];
  p.next_advertiser++;

  journal_.gossip_request(p.round, id, target, p.attempts, ctx.now());
  ctx.send(target, types::serialize_message(types::Message{types::RequestMsg{id}}));

  // Retry against another advertiser if the artifact does not arrive.
  sim::Context c = ctx;
  ctx.set_timer(config_.request_timeout, [this, c, id]() mutable { try_request(c, id); });
}

void GossipLayer::on_request(sim::Context& ctx, sim::PartyIndex from,
                             const types::RequestMsg& msg) {
  auto it = artifacts_.find(msg.artifact_id);
  if (it == artifacts_.end()) return;  // don't have it (or pruned)
  it->second.serves++;
  probe_.on_request_served(it->second.bytes->size());
  // Shared-buffer send: the serve re-uses the stored wire allocation.
  ctx.send(from, it->second.bytes);
}

void GossipLayer::prune_below(Round round) {
  for (auto it = artifacts_.begin(); it != artifacts_.end();) {
    if (it->second.round < round) {
      probe_.on_artifact_retired(it->second.serves);
      it = artifacts_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.round < round) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  probe_.on_pending_depth(static_cast<int64_t>(pending_.size()));
}

}  // namespace icc::gossip
