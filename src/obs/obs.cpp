#include "obs/obs.hpp"

namespace icc::obs {

std::vector<int64_t> duration_bounds() {
  // 100 µs … ~14 s in ×1.7 steps (28 buckets) — spans the 2δ fast-round
  // floor (a few ms) through Δ_ntry of a corrupt-leader round (seconds).
  return Histogram::exponential(100, 1.7, 28);
}

// ---------------------------------------------------------------------------
// PartyProbe
// ---------------------------------------------------------------------------

void PartyProbe::attach(Obs* obs, std::function<bool(uint32_t)> honesty) {
  obs_ = obs;
  if (!obs_) return;
  honesty_ = std::move(honesty);
  Registry& r = obs_->registry();
  rounds_ = &r.counter("consensus.rounds");
  rounds_leader_block_ = &r.counter("consensus.rounds_leader_block");
  rounds_clean_ = &r.counter("consensus.rounds_clean");
  rounds_honest_leader_ = &r.counter("consensus.rounds_honest_leader");
  rounds_corrupt_leader_ = &r.counter("consensus.rounds_corrupt_leader");
  proposals_ = &r.counter("consensus.proposals_made");
  commits_ = &r.counter("consensus.blocks_committed");
  finalized_ = &r.counter("consensus.blocks_finalized");
  rbc_delivered_ = &r.counter("rbc.blocks_delivered");
  rbc_bytes_ = &r.counter("rbc.delivered_bytes");
  propose_us_ = &r.histogram("consensus.propose_us", duration_bounds());
  notarize_us_ = &r.histogram("consensus.notarize_us", duration_bounds());
  finalize_us_ = &r.histogram("consensus.finalize_us", duration_bounds());
  round_us_honest_ = &r.histogram("consensus.round_us_honest_leader", duration_bounds());
  round_us_corrupt_ = &r.histogram("consensus.round_us_corrupt_leader", duration_bounds());
  finalize_gap_ = &r.histogram("consensus.finalize_gap_rounds", Histogram::linear(1, 16));
}

PartyProbe::RoundState* PartyProbe::state(uint64_t round) {
  auto it = round_state_.find(round);
  return it == round_state_.end() ? nullptr : &it->second;
}

void PartyProbe::on_enter_round(uint64_t round, int64_t now) {
  if (!obs_) return;
  round_state_[round].start = now;
  // Bound the bookkeeping the same way the party bounds its beacon maps.
  while (!round_state_.empty() && round_state_.begin()->first + 64 < round)
    round_state_.erase(round_state_.begin());
}

void PartyProbe::on_proposal_seen(uint64_t round, int64_t now) {
  if (!obs_) return;
  RoundState* s = state(round);
  if (!s || s->proposal_seen || s->start < 0) return;
  s->proposal_seen = true;
  propose_us_->record(now - s->start);
}

void PartyProbe::on_proposed() {
  if (!obs_) return;
  proposals_->add();
}

void PartyProbe::on_round_done(uint64_t round, uint32_t leader, bool leader_block,
                               bool clean, int64_t now) {
  if (!obs_) return;
  rounds_->add();
  if (leader_block) rounds_leader_block_->add();
  if (clean) rounds_clean_->add();
  const bool honest = honesty_ ? honesty_(leader) : leader_block;
  (honest ? rounds_honest_leader_ : rounds_corrupt_leader_)->add();
  // Beacon-bias feed for the windowed time-series (dedup by round inside).
  if (TimeSeries* ts = obs_->series())
    ts->on_round(round, leader, honest, leader_block, clean);

  RoundState* s = state(round);
  if (s && s->start >= 0) {
    const int64_t dur = now - s->start;
    notarize_us_->record(dur);
    (honest ? round_us_honest_ : round_us_corrupt_)->record(dur);
  }
}

void PartyProbe::on_finalized(uint64_t round, uint64_t gap, int64_t now) {
  if (!obs_) return;
  finalized_->add();
  finalize_gap_->record(static_cast<int64_t>(gap));
  RoundState* s = state(round);
  if (s && s->start >= 0) finalize_us_->record(now - s->start);
}

void PartyProbe::on_commit(uint64_t /*round*/, int64_t /*now*/) {
  if (!obs_) return;
  commits_->add();
}

void PartyProbe::on_rbc_delivered(uint64_t bytes) {
  if (!obs_) return;
  rbc_delivered_->add();
  rbc_bytes_->add(bytes);
}

// ---------------------------------------------------------------------------
// GossipProbe
// ---------------------------------------------------------------------------

void GossipProbe::attach(Obs* obs) {
  obs_ = obs;
  if (!obs_) return;
  Registry& r = obs_->registry();
  adverts_ = &r.counter("gossip.adverts");
  requests_ = &r.counter("gossip.requests_sent");
  retries_ = &r.counter("gossip.request_retries");
  served_ = &r.counter("gossip.requests_served");
  served_bytes_ = &r.counter("gossip.served_bytes");
  pending_ = &r.gauge("gossip.pending_depth");
  fetch_us_ = &r.histogram("gossip.fetch_us", duration_bounds());
  fanout_ = &r.histogram("gossip.artifact_fanout", Histogram::linear(1, 32));
}

void GossipProbe::on_advert(int64_t pending_depth) {
  if (!obs_) return;
  adverts_->add();
  pending_->set(pending_depth);
}

void GossipProbe::on_request_sent(bool retry) {
  if (!obs_) return;
  requests_->add();
  if (retry) retries_->add();
}

void GossipProbe::on_request_served(uint64_t bytes) {
  if (!obs_) return;
  served_->add();
  served_bytes_->add(bytes);
}

void GossipProbe::on_fetched(int64_t first_advert_at, int64_t now) {
  if (!obs_) return;
  if (first_advert_at >= 0) fetch_us_->record(now - first_advert_at);
}

void GossipProbe::on_artifact_retired(uint64_t serves) {
  if (!obs_) return;
  fanout_->record(static_cast<int64_t>(serves));
}

void GossipProbe::on_pending_depth(int64_t depth) {
  if (!obs_) return;
  pending_->set(depth);
}

// ---------------------------------------------------------------------------
// NetProbe
// ---------------------------------------------------------------------------

void NetProbe::attach(Obs* obs, size_t n) {
  obs_ = obs;
  if (!obs_) return;
  sample_.assign(n, 0);
  Registry& r = obs_->registry();
  in_flight_ = &r.gauge("net.in_flight");
  delay_us_ = &r.histogram("net.delay_us", duration_bounds());
}

void NetProbe::on_send(uint32_t from, uint64_t /*wire_bytes*/, int64_t delay_us) {
  if (!obs_) return;
  in_flight_->add(1);
  if ((sample_[from]++ & 3) == 0) delay_us_->record(delay_us);
}

void NetProbe::on_deliver() {
  if (!obs_) return;
  in_flight_->add(-1);
}

}  // namespace icc::obs
