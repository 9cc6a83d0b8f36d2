#include "consensus/icc0.hpp"

#include <algorithm>

namespace icc::consensus {

using types::BeaconShareMsg;
using types::FinalizationMsg;
using types::FinalizationShareMsg;
using types::Message;
using types::NotarizationMsg;
using types::NotarizationShareMsg;
using types::ProposalMsg;

namespace {
template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;
}  // namespace

Icc0Party::Icc0Party(PartyIndex self, const PartyConfig& config)
    : self_(self),
      config_(config),
      crypto_(config.crypto),
      verifier_(*config.crypto, config.pipeline),
      pool_(config.crypto->n(), config.crypto->quorum()),
      pipeline_(verifier_, config.pipeline, config.crypto->n()),
      delta_local_(config.delays.delta_bnd) {
  beacon_values_[0] = types::genesis_beacon();
  probe_.attach(config.obs, config.party_honesty);
  journal_.attach(config.obs, self);
  pipeline_.attach_obs(config.obs);
  verifier_.attach_runtime(config.obs != nullptr ? config.obs->runtime() : nullptr);
  pipeline_.attach_intern(config.intern);
  verifier_.attach_intern(config.intern);
}

void Icc0Party::start(sim::Context& ctx) {
  // Preamble of Fig. 1: broadcast a share of the round-1 random beacon.
  broadcast_beacon_share(ctx, 1);
  evaluate(ctx);
}

void Icc0Party::receive(sim::Context& ctx, sim::PartyIndex from, BytesView payload) {
  // View-based deliveries (tests driving a party directly) copy into a
  // fresh shared buffer; the network always uses receive_shared.
  on_wire(ctx, from, std::make_shared<const Bytes>(payload.begin(), payload.end()));
}

void Icc0Party::receive_shared(sim::Context& ctx, sim::PartyIndex from,
                               const std::shared_ptr<const Bytes>& payload) {
  on_wire(ctx, from, payload);
}

void Icc0Party::on_wire(sim::Context& ctx, sim::PartyIndex from,
                        const std::shared_ptr<const Bytes>& bytes) {
  // Stages 1-2: parse once (cluster-wide, when interning), drop malformed
  // and exact-duplicate payloads before any cryptography runs.
  types::SharedMessage msg = pipeline_.decode_shared(from, bytes);
  if (!msg) return;
  ingest(ctx, from, *msg, msg);
  evaluate(ctx);
}

void Icc0Party::disseminate(sim::Context& ctx, const Message& msg, bool /*is_block_bearing*/) {
  ctx.broadcast(types::serialize_message(msg));
}

bool Icc0Party::ingest(sim::Context& ctx, sim::PartyIndex from, const Message& msg,
                       const types::SharedMessage& origin) {
  return std::visit(
      Overloaded{
          [&](const ProposalMsg& m) {
            bool changed = ingest_proposal(m, origin);
            if ((probe_.on() || journal_.on()) && changed) {
              const Hash h = m.block.hash();
              if (pool_.block(h) != nullptr) {
                probe_.on_proposal_seen(m.block.round, ctx.now());
                journal_.proposal(m.block.round, m.block.proposer, h, ctx.now());
              }
            }
            return changed;
          },
          [&](const NotarizationShareMsg& m) { return ingest_notarization_share(m); },
          [&](const NotarizationMsg& m) {
            bool changed = ingest_notarization(m);
            // Signer sets are not recoverable from an already-combined wire
            // aggregate; record it as a latency/uniqueness witness only.
            if (changed)
              journal_.notar_agg(m.round, m.proposer, m.block_hash, {}, "wire", ctx.now());
            return changed;
          },
          [&](const FinalizationShareMsg& m) { return ingest_finalization_share(m); },
          [&](const FinalizationMsg& m) {
            bool changed = ingest_finalization(m);
            if (changed)
              journal_.final_agg(m.round, m.proposer, m.block_hash, {}, "wire", ctx.now());
            return changed;
          },
          [&](const BeaconShareMsg& m) {
            ingest_beacon_share(ctx, m);
            return true;
          },
          [&](const types::CupShareMsg& m) {
            handle_cup_share(ctx, m);
            return true;
          },
          [&](const types::CupRequestMsg& m) {
            handle_cup_request(ctx, from, m);
            return false;
          },
          [&](const types::CupMsg& m) { return adopt_cup(ctx, m); },
          // Gossip / RBC wire types are handled by the ICC1/ICC2 overrides.
          [&](const types::AdvertMsg&) { return false; },
          [&](const types::RequestMsg&) { return false; },
          [&](const types::RbcFragmentMsg&) { return false; },
      },
      msg);
}

// --- stage 3 + 4: verify (memoized) then apply to the crypto-free pool ---

bool Icc0Party::ingest_proposal(const ProposalMsg& msg, const types::SharedMessage& origin) {
  bool changed = false;
  // The bundled parent notarization is processed even when the block itself
  // is already known (an echo may carry the notarization we were missing).
  if (!msg.parent_notarization.empty()) {
    auto parsed = types::parse_message(msg.parent_notarization);
    if (parsed) {
      if (auto* nm = std::get_if<NotarizationMsg>(&*parsed))
        changed |= ingest_notarization(*nm);
    }
  }
  const Block& b = msg.block;
  if (b.round < 1 || b.proposer >= crypto_->n()) return changed;
  if (pool_.block(b.hash())) return changed;  // known: skip the crypto entirely
  if (!pipeline_.verify_proposal(msg)) return changed;
  // When the proposal is (part of) a shared parsed artifact, alias its
  // block into the pool instead of copying — one Block for all n pools.
  std::shared_ptr<const Block> shared_block;
  if (origin != nullptr) {
    if (const auto* pm = std::get_if<ProposalMsg>(origin.get()); pm == &msg)
      shared_block = std::shared_ptr<const Block>(origin, &pm->block);
  }
  return pool_.add_proposal(msg, std::move(shared_block)) || changed;
}

bool Icc0Party::ingest_notarization(const NotarizationMsg& msg) {
  if (pool_.notarization_for(msg.block_hash)) return false;  // duplicate
  if (!pipeline_.verify_notarization(msg)) return false;
  return pool_.add_notarization(msg);
}

bool Icc0Party::ingest_notarization_share(const NotarizationShareMsg& msg) {
  if (msg.signer >= crypto_->n()) return false;
  // Satiation early-out, before any crypto: once an aggregate exists or a
  // full quorum of distinct-signer shares is held, further shares for this
  // block are dead weight. (Identical whether the pipeline stages are on or
  // off, so on/off runs stay bit-identical.)
  if (pool_.notarization_for(msg.block_hash)) return false;
  if (pool_.notarization_share_count(msg.block_hash) >= crypto_->quorum()) return false;
  if (!pipeline_.verify_notarization_share(msg)) return false;
  return pool_.add_notarization_share(msg);
}

bool Icc0Party::ingest_finalization(const FinalizationMsg& msg) {
  if (pool_.finalization_for(msg.block_hash)) return false;  // duplicate
  if (!pipeline_.verify_finalization(msg)) return false;
  return pool_.add_finalization(msg);
}

bool Icc0Party::ingest_finalization_share(const FinalizationShareMsg& msg) {
  if (msg.signer >= crypto_->n()) return false;
  // Same satiation early-out as for notarization shares.
  if (pool_.finalization_for(msg.block_hash)) return false;
  if (pool_.finalization_share_count(msg.block_hash) >= crypto_->quorum()) return false;
  if (!pipeline_.verify_finalization_share(msg)) return false;
  return pool_.add_finalization_share(msg);
}

void Icc0Party::ingest_beacon_share(sim::Context& ctx, const BeaconShareMsg& msg) {
  if (msg.signer >= crypto_->n() || msg.round < 1) return;
  // Live traffic for a far-future round means we are lagging badly (e.g.
  // rejoining after a partition); ask for a catch-up package.
  if (config_.cup_interval != 0 && msg.round > round_ + config_.lag_threshold) {
    maybe_request_cup(ctx, msg.round);
  }
  if (beacon_values_.count(msg.round)) return;  // value already known
  auto prev = beacon_values_.find(msg.round - 1);
  if (prev == beacon_values_.end()) {
    // Cannot verify yet (R_{k-1} unknown) — buffer until the chain catches up.
    pending_beacon_shares_[msg.round].emplace(msg.signer, msg.share);
    return;
  }
  Bytes canonical = types::beacon_message(msg.round, prev->second);
  if (!verifier_.verify_beacon_share(msg.signer, canonical, msg.share)) return;
  auto& verified = verified_beacon_shares_[msg.round];
  for (const auto& [signer, _] : verified)
    if (signer == msg.signer) return;
  verified.emplace_back(msg.signer, msg.share);
}

void Icc0Party::drain_pending_beacon_shares(sim::Context& ctx, Round round) {
  auto it = pending_beacon_shares_.find(round);
  if (it == pending_beacon_shares_.end()) return;
  auto shares = std::move(it->second);
  pending_beacon_shares_.erase(it);
  for (auto& [signer, share] : shares)
    ingest_beacon_share(ctx, BeaconShareMsg{round, signer, std::move(share)});
}

void Icc0Party::broadcast_beacon_share(sim::Context& ctx, Round round) {
  if (!beacon_share_broadcast_.insert(round).second) return;
  const Bytes& prev = beacon_values_.at(round - 1);
  Bytes share = verifier_.beacon_sign_share(self_, types::beacon_message(round, prev));
  disseminate(ctx, BeaconShareMsg{round, self_, std::move(share)}, false);
  journal_.beacon_share(round, ctx.now());
}

void Icc0Party::evaluate(sim::Context& ctx) {
  for (;;) {
    check_finalization(ctx);
    if (config_.max_round != 0 && round_ > config_.max_round) return;
    if (!in_round_) {
      try_advance_beacon(ctx);
      if (!in_round_) return;  // still waiting for t+1 beacon shares
      continue;
    }
    if (fire_finish_round(ctx)) continue;   // Fig. 1 clause (a)
    if (fire_propose(ctx)) continue;        // Fig. 1 clause (b)
    if (fire_echo_notarize(ctx)) continue;  // Fig. 1 clause (c)
    return;
  }
}

void Icc0Party::try_advance_beacon(sim::Context& ctx) {
  if (!beacon_values_.count(round_)) {
    drain_pending_beacon_shares(ctx, round_);
    auto it = verified_beacon_shares_.find(round_);
    if (it == verified_beacon_shares_.end() ||
        it->second.size() < crypto_->beacon_threshold()) {
      return;
    }
    Bytes canonical = types::beacon_message(round_, beacon_values_.at(round_ - 1));
    Bytes value = verifier_.beacon_combine(canonical, it->second);
    if (value.empty()) return;
    journal_.beacon(round_, value, ctx.now());
    beacon_values_[round_] = std::move(value);
  }
  enter_round(ctx);
}

void Icc0Party::enter_round(sim::Context& ctx) {
  in_round_ = true;
  t0_ = ctx.now();
  probe_.on_enter_round(round_, t0_);
  journal_.round_enter(round_, t0_);
  proposed_ = false;
  notarized_set_.clear();
  disqualified_.clear();
  ranks_ = ranks_from_beacon(beacon_values_.at(round_), crypto_->n());

  // Pipelining (Section 3.5): having computed the round-k beacon, the party
  // immediately contributes its share of the round-(k+1) beacon.
  broadcast_beacon_share(ctx, round_ + 1);

  // Timers for the delay-function thresholds; stale timers just re-evaluate.
  sim::Context c = ctx;
  const uint32_t my_rank = ranks_.rank_of[self_];
  if (sim::Duration d = prop_delay(my_rank); d > 0) {
    ctx.set_timer(d, [this, c]() mutable { evaluate(c); });
  }
  for (size_t r = 0; r < crypto_->n(); ++r) {
    if (sim::Duration d = ntry_delay(r); d > 0) {
      ctx.set_timer(d, [this, c]() mutable { evaluate(c); });
    }
  }

  // Bound auxiliary maps (a real node checkpoints; Section 3.1).
  if (round_ > 64) {
    const Round floor = round_ - 64;
    beacon_values_.erase(beacon_values_.begin(), beacon_values_.lower_bound(floor));
    pending_beacon_shares_.erase(pending_beacon_shares_.begin(),
                                 pending_beacon_shares_.lower_bound(floor));
    verified_beacon_shares_.erase(verified_beacon_shares_.begin(),
                                  verified_beacon_shares_.lower_bound(floor));
    beacon_share_broadcast_.erase(beacon_share_broadcast_.begin(),
                                  beacon_share_broadcast_.lower_bound(floor));
  }
}

bool Icc0Party::fire_finish_round(sim::Context& ctx) {
  std::optional<Hash> target;
  auto notarized = pool_.notarized_blocks_at(round_);
  if (!notarized.empty()) {
    target = notarized.front();
  } else if (auto h = pool_.combinable_notarization_at(round_)) {
    const types::Block* b = pool_.block(*h);
    Bytes canonical = types::notarization_message(b->round, b->proposer, *h);
    auto shares = pool_.notarization_shares(*b);
    Bytes agg = verifier_.threshold_combine(crypto::Scheme::kNotary, canonical, shares);
    if (agg.empty()) return false;
    NotarizationMsg nm{b->round, b->proposer, *h, std::move(agg)};
    pool_.add_notarization(nm);
    if (journal_.on()) {
      std::vector<uint32_t> signers;
      signers.reserve(shares.size());
      for (const auto& [signer, _] : shares) signers.push_back(signer);
      journal_.notar_agg(b->round, b->proposer, *h, std::move(signers), "combined",
                         ctx.now());
    }
    target = *h;
  } else {
    return false;
  }

  const types::Block* b = pool_.block(*target);
  const NotarizationMsg* nm = pool_.notarization_for(*target);
  if (!b || !nm) return false;
  disseminate(ctx, *nm, false);

  // "if N ⊆ {B} then broadcast a finalization share for B".
  bool only_target = true;
  for (const auto& [h, rank] : notarized_set_) {
    if (h != *target) only_target = false;
  }
  if (only_target) {
    Bytes canonical = types::finalization_message(b->round, b->proposer, *target);
    Bytes share = verifier_.threshold_sign_share(crypto::Scheme::kFinal, self_, canonical);
    FinalizationShareMsg fm{b->round, b->proposer, *target, self_, std::move(share)};
    pool_.add_finalization_share(fm);
    journal_.final_share(b->round, b->proposer, *target, ctx.now());
    disseminate(ctx, fm, false);
  }

  // Adaptive delay bound: a round is "clean" when the leader's block was the
  // only one we endorsed — the signature of a well-calibrated bound.
  if (config_.adaptive.enabled) {
    const bool leader_block = ranks_.rank_of[b->proposer] == 0;
    adapt_delays(leader_block && only_target);
  }

  probe_.on_round_done(round_, ranks_.leader(), ranks_.rank_of[b->proposer] == 0,
                       only_target, ctx.now());

  // The round is done; proceed to the next one (its beacon first).
  round_ += 1;
  in_round_ = false;
  return true;
}

void Icc0Party::adapt_delays(bool clean_round) {
  const auto& a = config_.adaptive;
  double next = static_cast<double>(delta_local_) * (clean_round ? a.decay : a.grow);
  delta_local_ = std::clamp(static_cast<sim::Duration>(next), a.floor, a.cap);
}

// ---------------------------------------------------------------------------
// Catch-up packages
// ---------------------------------------------------------------------------

void Icc0Party::maybe_emit_cup_share(sim::Context& ctx, const CommittedBlock& block) {
  if (config_.cup_interval == 0 || block.round % config_.cup_interval != 0) return;
  auto beacon = beacon_values_.find(block.round);
  if (beacon == beacon_values_.end()) return;  // beacon already pruned; skip
  cup_round_info_[block.round] = {block.hash, beacon->second};

  Bytes canonical = types::cup_message(block.round, block.hash, beacon->second);
  Bytes share = verifier_.threshold_sign_share(crypto::Scheme::kFinal, self_, canonical);
  types::CupShareMsg msg{block.round, block.hash, beacon->second, self_, std::move(share)};
  handle_cup_share(ctx, msg);  // count our own share immediately
  disseminate(ctx, msg, false);

  // Bound the bookkeeping to recent checkpoints.
  while (cup_round_info_.size() > 4) cup_round_info_.erase(cup_round_info_.begin());
  while (cup_shares_.size() > 4) cup_shares_.erase(cup_shares_.begin());
}

void Icc0Party::handle_cup_share(sim::Context& /*ctx*/, const types::CupShareMsg& msg) {
  if (config_.cup_interval == 0) return;
  if (msg.signer >= crypto_->n() || msg.round % config_.cup_interval != 0) return;
  if (latest_cup_ && latest_cup_->round >= msg.round) return;
  // Only shares matching OUR committed (hash, beacon) tuple for that round
  // are counted; anything else cannot combine into a valid package anyway.
  auto info = cup_round_info_.find(msg.round);
  if (info == cup_round_info_.end()) return;
  const auto& [hash, beacon] = info->second;
  if (msg.block_hash != hash || msg.beacon_value != beacon) return;
  Bytes canonical = types::cup_message(msg.round, hash, beacon);
  if (!verifier_.verify_threshold_share(crypto::Scheme::kFinal, msg.signer, canonical,
                                        msg.share)) {
    return;
  }
  auto& shares = cup_shares_[msg.round];
  if (!shares.emplace(msg.signer, msg.share).second) return;
  if (shares.size() < crypto_->quorum()) return;

  // Assemble the package from our pool.
  const types::Block* block = pool_.block(hash);
  const types::NotarizationMsg* nm = pool_.notarization_for(hash);
  const types::FinalizationMsg* fm = pool_.finalization_for(hash);
  const Bytes* auth = pool_.authenticator_for(hash);
  if (!block || !nm || !fm || !auth) return;  // pruned already; next checkpoint
  std::vector<std::pair<crypto::PartyIndex, Bytes>> vec(shares.begin(), shares.end());
  Bytes agg = verifier_.threshold_combine(crypto::Scheme::kFinal, canonical, vec);
  if (agg.empty()) return;

  types::CupMsg cup;
  cup.round = msg.round;
  types::ProposalMsg pm;
  pm.block = *block;
  pm.authenticator = *auth;
  cup.proposal = types::serialize_message(Message{pm});
  cup.notarization = types::serialize_message(Message{*nm});
  cup.finalization = types::serialize_message(Message{*fm});
  cup.beacon_value = beacon;
  cup.aggregate = std::move(agg);
  latest_cup_ = std::move(cup);
}

void Icc0Party::maybe_request_cup(sim::Context& ctx, Round /*observed_round*/) {
  // Rate-limit: at most one request per second of simulated time.
  if (last_cup_request_ >= 0 && ctx.now() - last_cup_request_ < sim::seconds(1)) return;
  last_cup_request_ = ctx.now();
  disseminate(ctx, types::CupRequestMsg{round_}, false);
}

void Icc0Party::handle_cup_request(sim::Context& ctx, sim::PartyIndex from,
                                   const types::CupRequestMsg& msg) {
  if (from == self_) return;
  if (!latest_cup_ || latest_cup_->round <= msg.above_round) return;
  ctx.send(from, types::serialize_message(Message{*latest_cup_}));
}

bool Icc0Party::adopt_cup(sim::Context& ctx, const types::CupMsg& msg) {
  if (config_.cup_interval == 0) return false;
  // A CUP is useful if it advances the commit watermark OR our participation
  // round. (The two can diverge: live finalizations can carry k_max ahead
  // while the round loop is stuck missing one historic beacon value.)
  if (msg.round <= k_max_ && msg.round < round_) return false;

  auto proposal = types::parse_message(msg.proposal);
  auto notarization = types::parse_message(msg.notarization);
  auto finalization = types::parse_message(msg.finalization);
  if (!proposal || !std::holds_alternative<types::ProposalMsg>(*proposal)) return false;
  if (!notarization || !std::holds_alternative<types::NotarizationMsg>(*notarization))
    return false;
  if (!finalization || !std::holds_alternative<types::FinalizationMsg>(*finalization))
    return false;
  const auto& pm = std::get<types::ProposalMsg>(*proposal);
  if (pm.block.round != msg.round) return false;
  const Hash h = pm.block.hash();

  // The threshold signature binds round, block hash and beacon value: n - t
  // parties vouched for this checkpoint, at least n - 2t of them honest.
  Bytes canonical = types::cup_message(msg.round, h, msg.beacon_value);
  if (!verifier_.verify_threshold(crypto::Scheme::kFinal, canonical, msg.aggregate))
    return false;

  // The pool's install_checkpoint trusts its caller (pre-verified contract),
  // so each bundled piece must pass the verify stage here: the CUP aggregate
  // binds the block hash, but the pieces carry their own signatures.
  if (!pipeline_.verify_proposal(pm)) return false;
  if (!pipeline_.verify_notarization(std::get<types::NotarizationMsg>(*notarization)))
    return false;
  if (!pipeline_.verify_finalization(std::get<types::FinalizationMsg>(*finalization)))
    return false;

  if (!pool_.install_checkpoint(pm, std::get<types::NotarizationMsg>(*notarization),
                                std::get<types::FinalizationMsg>(*finalization))) {
    return false;
  }
  beacon_values_[msg.round] = msg.beacon_value;

  // Commit the checkpoint block (if it advances the watermark) and jump the
  // round state forward. The regular finalization loop takes over from here.
  if (msg.round > k_max_) {
    CommittedBlock c;
    c.round = pm.block.round;
    c.proposer = pm.block.proposer;
    c.hash = h;
    c.payload_size = pm.block.payload.size();
    if (config_.record_payloads) c.payload = pm.block.payload;
    c.committed_at = ctx.now();
    if (config_.on_commit) config_.on_commit(self_, c);
    probe_.on_commit(c.round, c.committed_at);
    journal_.commit(c.round, c.hash, c.committed_at);
    push_committed(std::move(c));
    k_max_ = msg.round;
  }

  if (round_ <= msg.round) {
    round_ = msg.round + 1;
    in_round_ = false;
    broadcast_beacon_share(ctx, round_);
  }
  if (config_.prune_lag != 0 && k_max_ > config_.prune_lag) {
    pool_.prune_below(k_max_ - config_.prune_lag);
    on_prune(k_max_ - config_.prune_lag);
  }
  return true;
}

bool Icc0Party::fire_propose(sim::Context& ctx) {
  if (proposed_) return false;
  const uint32_t my_rank = ranks_.rank_of[self_];
  if (ctx.now() < t0_ + prop_delay(my_rank)) return false;
  proposed_ = true;
  propose_block(ctx);
  return true;
}

bool Icc0Party::propose_block(sim::Context& ctx) {
  auto parents = pool_.notarized_blocks_at(round_ - 1);
  if (parents.empty()) return false;  // cannot happen after finishing round k-1
  const Hash parent = parents.front();
  std::vector<const types::Block*> chain;
  if (parent != types::root_hash()) chain = pool_.chain_to(parent);
  Bytes payload = config_.payload->build(round_, self_, chain);
  emit_proposal(ctx, payload);
  return true;
}

void Icc0Party::emit_proposal(sim::Context& ctx, const Bytes& payload) {
  auto parents = pool_.notarized_blocks_at(round_ - 1);
  if (parents.empty()) return;
  types::Block block;
  block.round = round_;
  block.proposer = self_;
  block.parent_hash = parents.front();
  block.payload = payload;

  ProposalMsg pm = build_proposal(block);
  const Hash h = block.hash();
  proposal_times_[h] = ctx.now();
  if (config_.on_propose) config_.on_propose(self_, round_, h, ctx.now());
  pool_.add_proposal(pm);
  probe_.on_proposed();
  probe_.on_proposal_seen(round_, ctx.now());
  journal_.propose(round_, h, ctx.now());
  disseminate(ctx, pm, true);
}

types::ProposalMsg Icc0Party::build_proposal(const types::Block& block) {
  ProposalMsg pm;
  pm.block = block;
  const Hash h = block.hash();
  pm.authenticator =
      verifier_.sign_auth(self_, types::authenticator_message(block.round, block.proposer, h));
  if (block.round > 1) {
    const NotarizationMsg* parent_nm = pool_.notarization_for(block.parent_hash);
    if (parent_nm) pm.parent_notarization = types::serialize_message(Message{*parent_nm});
  }
  return pm;
}

void Icc0Party::echo_block(sim::Context& ctx, const Block& block, const Bytes& authenticator) {
  // The echo carries the block, its authenticator and *our own* parent
  // notarization, so it need not be byte-identical to the proposer's message.
  ProposalMsg echo;
  echo.block = block;
  echo.authenticator = authenticator;
  if (block.round > 1) {
    const NotarizationMsg* parent_nm = pool_.notarization_for(block.parent_hash);
    if (parent_nm) echo.parent_notarization = types::serialize_message(Message{*parent_nm});
  }
  disseminate(ctx, echo, true);
}

bool Icc0Party::fire_echo_notarize(sim::Context& ctx) {
  auto valid = pool_.valid_blocks_at(round_);
  if (valid.empty()) return false;

  // Lowest non-disqualified rank among valid round-k blocks. Any block of
  // that rank is the (c)-candidate; lower ranks have no valid block, so the
  // "no better block" condition holds exactly for rank == best.
  uint32_t best = UINT32_MAX;
  for (const Hash& h : valid) {
    const types::Block* b = pool_.block(h);
    uint32_t r = ranks_.rank_of[b->proposer];
    if (disqualified_.count(r)) continue;
    best = std::min(best, r);
  }
  if (best == UINT32_MAX) return false;
  if (ctx.now() < t0_ + ntry_delay(best)) return false;

  const uint32_t my_rank = ranks_.rank_of[self_];
  for (const Hash& h : valid) {
    const types::Block* b = pool_.block(h);
    if (ranks_.rank_of[b->proposer] != best) continue;
    if (notarized_set_.count(h)) continue;

    // Echo B so every party gets the chance to notarize or disqualify —
    // unless it is our own block, which we already broadcast when proposing.
    if (best != my_rank) {
      const Bytes* auth = pool_.authenticator_for(h);
      if (!auth) continue;
      echo_block(ctx, *b, *auth);
    }

    bool rank_in_n = false;
    for (const auto& [nh, nr] : notarized_set_) {
      if (nr == best) rank_in_n = true;
    }
    if (rank_in_n) {
      // Second distinct block of this rank: the proposer equivocated.
      disqualified_.insert(best);
    } else {
      notarized_set_.emplace(h, best);
      Bytes canonical = types::notarization_message(b->round, b->proposer, h);
      Bytes share = verifier_.threshold_sign_share(crypto::Scheme::kNotary, self_, canonical);
      NotarizationShareMsg m{b->round, b->proposer, h, self_, std::move(share)};
      pool_.add_notarization_share(m);
      journal_.notar_share(b->round, b->proposer, h, ctx.now());
      disseminate(ctx, m, false);
    }
    return true;
  }
  return false;
}

void Icc0Party::check_finalization(sim::Context& ctx) {
  for (;;) {
    std::optional<Hash> target = pool_.finalized_above(k_max_);
    if (!target) {
      if (auto h = pool_.combinable_finalization_above(k_max_)) {
        const types::Block* b = pool_.block(*h);
        Bytes canonical = types::finalization_message(b->round, b->proposer, *h);
        auto shares = pool_.finalization_shares(*b);
        Bytes agg = verifier_.threshold_combine(crypto::Scheme::kFinal, canonical, shares);
        if (!agg.empty()) {
          FinalizationMsg fm{b->round, b->proposer, *h, std::move(agg)};
          pool_.add_finalization(fm);
          if (journal_.on()) {
            std::vector<uint32_t> signers;
            signers.reserve(shares.size());
            for (const auto& [signer, _] : shares) signers.push_back(signer);
            journal_.final_agg(b->round, b->proposer, *h, std::move(signers), "combined",
                               ctx.now());
          }
          target = *h;
        }
      }
    }
    if (!target) return;

    const types::Block* b = pool_.block(*target);
    const FinalizationMsg* fm = pool_.finalization_for(*target);
    if (!b || !fm) return;
    disseminate(ctx, *fm, false);

    // Commit the payloads of the chain suffix (k_max, round(B)]. A
    // checkpoint-installed block has no local ancestry; it commits alone
    // (its predecessors were committed by the parties that produced the CUP).
    auto chain = pool_.chain_to(*target, k_max_);
    if (chain.empty()) chain.push_back(b);
    for (const types::Block* cb : chain) {
      CommittedBlock c;
      c.round = cb->round;
      c.proposer = cb->proposer;
      c.hash = cb->hash();
      c.payload_size = cb->payload.size();
      if (config_.record_payloads) c.payload = cb->payload;
      c.committed_at = ctx.now();
      if (config_.on_commit) config_.on_commit(self_, c);
      maybe_emit_cup_share(ctx, c);
      probe_.on_commit(c.round, c.committed_at);
      journal_.commit(c.round, c.hash, c.committed_at);
      push_committed(std::move(c));
    }
    probe_.on_finalized(b->round, b->round - k_max_, ctx.now());
    journal_.finalized(b->round, *target, ctx.now());
    k_max_ = b->round;
    if (config_.prune_lag != 0 && k_max_ > config_.prune_lag) {
      pool_.prune_below(k_max_ - config_.prune_lag);
      on_prune(k_max_ - config_.prune_lag);
      // Proposal timestamps are keyed by hash; just bound the map.
      if (proposal_times_.size() > 4096) proposal_times_.clear();
    }
  }
}

}  // namespace icc::consensus
