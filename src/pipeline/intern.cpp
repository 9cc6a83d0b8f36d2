#include "pipeline/intern.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "obs/runtime.hpp"
#include "support/fingerprint.hpp"

namespace icc::pipeline {

namespace {

bool same_bytes(const Bytes& a, const Bytes& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

const InternedArtifact* find_in(
    const std::unordered_map<uint64_t, std::vector<std::shared_ptr<const InternedArtifact>>>&
        gen,
    uint64_t fp, const Bytes& payload, std::shared_ptr<const InternedArtifact>* out) {
  auto it = gen.find(fp);
  if (it == gen.end()) return nullptr;
  for (const auto& entry : it->second) {
    if (same_bytes(*entry->bytes, payload)) {
      *out = entry;
      return out->get();
    }
  }
  return nullptr;
}

}  // namespace

std::shared_ptr<const InternedArtifact> InternStore::intern(
    const std::shared_ptr<const Bytes>& payload) {
  const uint64_t fp = support::fingerprint64(payload->data(), payload->size());
  ArtifactShard& s = artifact_shard(fp);
  obs::SampledLock lk(s.mu, runtime_, obs::LockSite::kInternArtifacts);
  std::shared_ptr<const InternedArtifact> hit;
  if (find_in(s.current, fp, *payload, &hit) || find_in(s.previous, fp, *payload, &hit)) {
    stats_.decode_hits.fetch_add(1, kRelaxed);
    return hit;
  }

  // New payload: decode once, under the shard lock. Serializing the parse
  // here is what makes `parses` exact at any thread count (concurrent
  // receivers of the same broadcast block briefly and then share the one
  // entry) and publishes the Block hash memo with a happens-before edge.
  obs::SpanScope parse_span(runtime_, obs::TaskKind::kInternParse, payload->size());
  auto entry = std::make_shared<InternedArtifact>();
  entry->bytes = payload;
  entry->artifact_id = types::artifact_id(*payload);
  entry->sender_scoped = types::sender_scoped_wire(*payload);
  if (auto parsed = types::parse_message(*payload)) {
    auto msg = std::make_shared<types::Message>(std::move(*parsed));
    if (const auto* pm = std::get_if<types::ProposalMsg>(msg.get()))
      pm->block.hash();  // stamp the memo before the entry escapes the lock
    entry->msg = std::move(msg);
  }
  stats_.parses.fetch_add(1, kRelaxed);

  if (s.current_entries >= kArtifactsPerGeneration) {
    s.previous = std::move(s.current);
    s.current.clear();
    s.current_entries = 0;
  }
  s.current[fp].push_back(entry);
  s.current_entries++;
  return entry;
}

void InternStore::prime_verdict(const types::Hash& key) {
  verdicts_.insert(key, true);
  stats_.verdicts_primed.fetch_add(1, kRelaxed);
}

Bytes InternStore::beacon(BytesView message, const std::function<Bytes()>& combine) {
  return beacons_.find_or_make(crypto::Sha256::hash(message), [&] {
    stats_.beacon_combines.fetch_add(1, kRelaxed);
    return combine();
  });
}

InternStore::Stats InternStore::stats() const {
  Stats s;
  s.parses = stats_.parses.load(kRelaxed);
  s.decode_hits = stats_.decode_hits.load(kRelaxed);
  s.real_verifications = stats_.real_verifications.load(kRelaxed);
  s.verdict_memo_hits = stats_.verdict_memo_hits.load(kRelaxed);
  s.verdicts_primed = stats_.verdicts_primed.load(kRelaxed);
  s.beacon_combines = stats_.beacon_combines.load(kRelaxed);
  return s;
}

size_t InternStore::interned_artifacts() const {
  size_t total = 0;
  for (const ArtifactShard& s : artifacts_) {
    std::lock_guard<std::mutex> lk(s.mu);
    for (const auto& [fp, chain] : s.current) total += chain.size();
    for (const auto& [fp, chain] : s.previous) total += chain.size();
  }
  return total;
}

size_t InternStore::cached_verdicts() const { return verdicts_.size(); }

size_t InternStore::cached_beacons() const { return beacons_.size(); }

void InternStore::set_runtime(obs::RuntimeProfiler* runtime) {
  runtime_ = runtime;
  verdicts_.set_runtime(runtime);
  beacons_.set_runtime(runtime);
}

}  // namespace icc::pipeline
