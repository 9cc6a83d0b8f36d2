#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "codec/merkle.hpp"
#include "codec/reed_solomon.hpp"
#include "crypto/provider.hpp"
#include "crypto/sha256.hpp"
#include "pipeline/intern.hpp"
#include "pipeline/verifier.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"
#include "types/messages.hpp"

namespace perfbench {

using namespace icc;

namespace {

using Shares = std::vector<std::pair<crypto::PartyIndex, Bytes>>;

/// Keeps timed results observable so the calls cannot be optimized away.
volatile uint64_t g_sink = 0;

constexpr double kTrialNs = 4e6;
constexpr int kTrials = 5;

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("probe self-check failed: " + what);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t k = v.size();
  return k % 2 ? v[k / 2] : 0.5 * (v[k / 2 - 1] + v[k / 2]);
}

double elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median wall ns per call of `f` over kTrials trials of ~kTrialNs each.
template <typename F>
double per_call_ns(F&& f) {
  uint64_t sink = 0;
  size_t iters = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i) sink += static_cast<uint64_t>(f());
    if (elapsed_ns(t0) >= kTrialNs || iters >= (size_t{1} << 26)) break;
    iters *= 2;
  }
  std::vector<double> per;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i) sink += static_cast<uint64_t>(f());
    per.push_back(elapsed_ns(t0) / static_cast<double>(iters));
  }
  g_sink = g_sink + sink;
  return median(per);
}

Bytes tampered(Bytes b) {
  b[b.size() / 2] ^= 0x01;
  return b;
}

}  // namespace

Metrics run_probes(const ProbeInput& in) {
  Metrics m;
  Xoshiro256 rng(in.seed ^ 0x9e0be5);
  const auto provider = in.real_crypto ? crypto::make_real_provider(in.n, in.t, in.seed)
                                       : crypto::make_fast_provider(in.n, in.t, in.seed);
  crypto::CryptoProvider& p = *provider;
  const types::Round round = 7;
  const types::Hash parent_hash = crypto::Sha256::hash(rng.bytes(32));

  // The proposal a round of the workload carries: its measured payload, the
  // proposer's authenticator and the parent's notarization.
  types::ProposalMsg pm;
  pm.block.round = round;
  pm.block.proposer = 1;
  pm.block.parent_hash = parent_hash;
  pm.block.payload = rng.bytes(in.payload);
  const types::Hash block_hash = pm.block.hash();
  const Bytes auth_msg = types::authenticator_message(round, 1, block_hash);
  const Bytes notary_msg = types::notarization_message(round, 1, block_hash);
  const Bytes beacon_msg = types::beacon_message(round, types::genesis_beacon());

  // --- crypto: S_auth ---
  const Bytes sig = p.sign(1, auth_msg);
  require(p.verify(1, auth_msg, sig), "valid signature rejected");
  require(!p.verify(1, auth_msg, tampered(sig)), "tampered signature accepted");
  require(!p.verify(2, auth_msg, sig), "signature accepted for another signer");
  m["crypto.verify_sig_us"] = per_call_ns([&] { return p.verify(1, auth_msg, sig); }) / 1e3;
  m["crypto.sign_us"] = per_call_ns([&] { return p.sign(1, auth_msg).size(); }) / 1e3;

  // --- crypto: S_notary shares and their aggregate at quorum size ---
  Shares shares;
  for (size_t i = 0; i < p.quorum(); ++i)
    shares.emplace_back(i, p.threshold_sign_share(crypto::Scheme::kNotary, i, notary_msg));
  const Bytes& share = shares[0].second;
  require(p.threshold_verify_share(crypto::Scheme::kNotary, 0, notary_msg, share),
          "valid notarization share rejected");
  require(!p.threshold_verify_share(crypto::Scheme::kNotary, 0, notary_msg, tampered(share)),
          "tampered notarization share accepted");
  m["crypto.verify_share_us"] = per_call_ns([&] {
    return p.threshold_verify_share(crypto::Scheme::kNotary, 0, notary_msg, share);
  }) / 1e3;
  const Bytes agg = p.threshold_combine_preverified(crypto::Scheme::kNotary, notary_msg, shares);
  require(!agg.empty() && p.threshold_verify(crypto::Scheme::kNotary, notary_msg, agg),
          "combined notarization does not verify");
  require(!p.threshold_verify(crypto::Scheme::kNotary, notary_msg, tampered(agg)),
          "tampered notarization accepted");
  m["crypto.combine_multisig_us"] = per_call_ns([&] {
    return p.threshold_combine_preverified(crypto::Scheme::kNotary, notary_msg, shares).size();
  }) / 1e3;
  m["crypto.verify_aggregate_us"] = per_call_ns([&] {
    return p.threshold_verify(crypto::Scheme::kNotary, notary_msg, agg);
  }) / 1e3;

  // --- crypto: beacon shares and the unique beacon at threshold t+1 ---
  Shares low, high;
  for (size_t i = 0; i < p.beacon_threshold(); ++i) {
    low.emplace_back(i, p.beacon_sign_share(i, beacon_msg));
    const auto j = static_cast<crypto::PartyIndex>(in.n - 1 - i);
    high.emplace_back(j, p.beacon_sign_share(j, beacon_msg));
  }
  const Bytes& bshare = low[0].second;
  require(p.beacon_verify_share(0, beacon_msg, bshare), "valid beacon share rejected");
  require(!p.beacon_verify_share(0, beacon_msg, tampered(bshare)),
          "tampered beacon share accepted");
  m["crypto.verify_beacon_share_us"] =
      per_call_ns([&] { return p.beacon_verify_share(0, beacon_msg, bshare); }) / 1e3;
  m["crypto.sign_beacon_share_us"] =
      per_call_ns([&] { return p.beacon_sign_share(0, beacon_msg).size(); }) / 1e3;
  const Bytes beacon = p.beacon_combine_preverified(beacon_msg, low);
  require(!beacon.empty() && p.beacon_verify(beacon_msg, beacon), "beacon does not verify");
  require(p.beacon_combine_preverified(beacon_msg, high) == beacon,
          "beacon differs between signer subsets");
  m["crypto.combine_beacon_us"] =
      per_call_ns([&] { return p.beacon_combine_preverified(beacon_msg, low).size(); }) / 1e3;

  // --- crypto: SHA-256, verdict-key sized and payload sized ---
  require(to_hex(crypto::sha256(str_bytes("abc"))) ==
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
          "SHA-256 test vector");
  const Bytes small = rng.bytes(128);
  m["crypto.sha256_small_ns"] = per_call_ns([&] { return crypto::Sha256::hash(small)[0]; });
  const Bytes bulk = rng.bytes(std::max<size_t>(in.payload, 64));
  const double bulk_ns = per_call_ns([&] { return crypto::Sha256::hash(bulk)[0]; });
  m["crypto.sha256_mb_s"] = static_cast<double>(bulk.size()) / bulk_ns * 1e3;

  // --- pipeline: a verdict-cache hit ---
  pipeline::Verifier verifier(p, pipeline::PipelineOptions{});
  require(verifier.verify_auth(1, auth_msg, sig), "verifier rejected a valid signature");
  require(!verifier.verify_auth(1, auth_msg, tampered(sig)),
          "verifier accepted a tampered signature");
  const auto before = verifier.stats();
  m["pipeline.verify_hit_ns"] =
      per_call_ns([&] { return verifier.verify_auth(1, auth_msg, sig); });
  require(verifier.stats().provider_verifications == before.provider_verifications &&
              verifier.stats().cache_hits > before.cache_hits,
          "timed verify_auth calls missed the verdict cache");

  // --- types: a notarization share and the workload's proposal ---
  const types::NotarizationShareMsg nsm{round, 1, block_hash, 0, share};
  const Bytes ns_wire = types::serialize_message(types::Message{nsm});
  {
    const auto back = types::parse_message(ns_wire);
    const auto* s = back ? std::get_if<types::NotarizationShareMsg>(&*back) : nullptr;
    require(s != nullptr && s->round == nsm.round && s->proposer == nsm.proposer &&
                s->block_hash == nsm.block_hash && s->signer == nsm.signer &&
                s->share == nsm.share && types::serialize_message(*back) == ns_wire,
            "notarization share does not survive serialize/parse");
  }
  m["types.parse_share_ns"] =
      per_call_ns([&] { return types::parse_message(ns_wire).has_value(); });

  pm.authenticator = sig;
  pm.parent_notarization =
      types::serialize_message(types::Message{types::NotarizationMsg{round - 1, 2, parent_hash, agg}});
  const types::Message pm_msg{pm};
  const Bytes pm_wire = types::serialize_message(pm_msg);
  {
    const auto back = types::parse_message(pm_wire);
    const auto* q = back ? std::get_if<types::ProposalMsg>(&*back) : nullptr;
    require(q != nullptr && q->block == pm.block && q->block.hash() == block_hash &&
                q->authenticator == pm.authenticator &&
                q->parent_notarization == pm.parent_notarization &&
                types::serialize_message(*back) == pm_wire,
            "proposal does not survive serialize/parse");
  }
  m["types.parse_block_us"] =
      per_call_ns([&] { return types::parse_message(pm_wire).has_value(); }) / 1e3;
  m["types.serialize_block_us"] =
      per_call_ns([&] { return types::serialize_message(pm_msg).size(); }) / 1e3;
  require(types::artifact_id(pm_wire) != types::artifact_id(ns_wire),
          "distinct artifacts share an id");
  m["types.artifact_id_us"] = per_call_ns([&] { return types::artifact_id(pm_wire)[0]; }) / 1e3;

  // --- pipeline: interning, first sight (parse) and repeat (hit) ---
  constexpr size_t kDistinct = 64;
  std::vector<std::shared_ptr<const Bytes>> wires;
  for (size_t i = 0; i < kDistinct; ++i) {
    types::ProposalMsg v = pm;
    v.block.round = round + static_cast<types::Round>(i);
    wires.push_back(std::make_shared<const Bytes>(types::serialize_message(types::Message{v})));
  }
  std::vector<double> miss;
  for (int trial = 0; trial < kTrials; ++trial) {
    pipeline::InternStore store;
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& wire : wires) g_sink = g_sink + (store.intern(wire)->msg != nullptr);
    miss.push_back(elapsed_ns(t0) / kDistinct);
    require(store.stats().parses == kDistinct, "intern store did not parse each new payload");
  }
  m["pipeline.intern_miss_us"] = median(miss) / 1e3;
  pipeline::InternStore store;
  const auto first = store.intern(wires[0]);
  const auto* q = first->msg ? std::get_if<types::ProposalMsg>(first->msg.get()) : nullptr;
  require(q != nullptr && q->block.round == round && first->artifact_id == types::artifact_id(*wires[0]),
          "interned proposal differs from the payload");
  m["pipeline.intern_hit_ns"] =
      per_call_ns([&] { return store.intern(wires[0]) == first; });
  require(store.stats().parses == 1 && store.stats().decode_hits > 0,
          "repeat intern calls parsed again");

  // --- codec: RBC fragments of the workload's block at k = n - 2t ---
  const Bytes block = pm.block.serialize();
  const codec::ReedSolomon rs(in.n - 2 * in.t, in.n);
  const std::vector<codec::Fragment> frags = rs.encode(block);
  require(frags.size() == in.n, "wrong fragment count");
  // Decode from the last k fragments: parity rows, as when data rows are lost.
  const std::vector<codec::Fragment> tail(frags.end() - static_cast<ptrdiff_t>(rs.k()),
                                          frags.end());
  const auto decoded = rs.decode(tail, block.size());
  require(decoded && *decoded == block, "decode(encode(block)) != block");
  m["codec.rs_encode_us"] = per_call_ns([&] { return rs.encode(block).size(); }) / 1e3;
  m["codec.rs_decode_us"] =
      per_call_ns([&] { return rs.decode(tail, block.size())->size(); }) / 1e3;
  std::vector<Bytes> leaves;
  for (const auto& f : frags) leaves.push_back(f.data);
  const codec::MerkleTree tree(leaves);
  const size_t leaf = in.n - 1;
  const codec::MerkleProof proof = tree.prove(leaf);
  require(codec::MerkleTree::verify(tree.root(), in.n, leaves[leaf], proof),
          "valid Merkle proof rejected");
  require(!codec::MerkleTree::verify(tree.root(), in.n, tampered(leaves[leaf]), proof),
          "tampered fragment accepted by its Merkle proof");
  m["codec.merkle_build_us"] =
      per_call_ns([&] { return codec::MerkleTree(leaves).root()[0]; }) / 1e3;
  m["codec.merkle_verify_us"] = per_call_ns([&] {
    return codec::MerkleTree::verify(tree.root(), in.n, leaves[leaf], proof);
  }) / 1e3;

  // --- sim: schedule and dispatch through a bare engine ---
  constexpr size_t kEvents = 4096;
  std::vector<sim::Time> at(kEvents);
  for (auto& a : at) a = static_cast<sim::Time>(rng.below(1'000'000));
  std::vector<double> ev;
  for (int trial = 0; trial < kTrials; ++trial) {
    sim::Engine engine;
    uint64_t fired = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (sim::Time a : at) engine.schedule_at(a, [&fired] { ++fired; });
    engine.run();
    ev.push_back(elapsed_ns(t0) / kEvents);
    require(fired == kEvents, "engine dropped events");
  }
  m["sim.engine_event_ns"] = median(ev);
  return m;
}

}  // namespace perfbench
