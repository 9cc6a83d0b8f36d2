#include "harness/cluster.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

#include "consensus/icc1.hpp"
#include "consensus/icc2.hpp"
#include "support/defer.hpp"
#include "support/json.hpp"

namespace icc::harness {

using consensus::ByzantineParty;
using consensus::CrashParty;
using consensus::Icc0Party;
using consensus::PartyConfig;

Cluster::Cluster(const ClusterOptions& options) : options_(options) {
  crypto_ = options.crypto == CryptoKind::kReal
                ? crypto::make_real_provider(options.n, options.t, options.seed)
                : crypto::make_fast_provider(options.n, options.t, options.seed);

  auto model = options.delay_model
                   ? options.delay_model(options.n, options.seed)
                   : std::make_unique<sim::FixedDelay>(sim::msec(10));
  sim_ = std::make_unique<sim::Simulation>(options.n, std::move(model), options.seed);

  // Worker pool for party-parallel stepping.
  // A 1-thread run keeps the classic sequential engine path (no pool at all)
  // — results are bit-identical either way (DESIGN.md §6).
  size_t threads =
      options.threads != 0 ? options.threads : support::Executor::default_threads();
  if (threads > 1) {
    executor_ = std::make_unique<support::Executor>(threads);
    sim_->engine().set_executor(executor_.get());
  }

  if (options.intern) intern_ = std::make_unique<pipeline::InternStore>();

  if (options.obs.enabled) {
    obs_ = std::make_unique<obs::Obs>(options.obs);
    sim_->network().attach_obs(obs_.get());
    if (obs::RuntimeProfiler* rt = obs_->runtime()) {
      // Wall-clock observatory: executor health through the TaskProbe hook,
      // engine batch/region spans, intern shard lock sampling. Parties wire
      // their verifiers in icc0.cpp via pc.obs. Destruction order is safe:
      // obs_ is declared before executor_, so the pool (and its workers) is
      // torn down while the profiler is still alive.
      rt->set_threads(threads);
      if (executor_) executor_->set_probe(rt);
      sim_->engine().set_runtime(rt);
      if (intern_) intern_->set_runtime(rt);
    }
    if (obs::Journal* j = obs_->journal()) {
      const char* proto = options.protocol == Protocol::kIcc0   ? "icc0"
                          : options.protocol == Protocol::kIcc1 ? "icc1"
                                                                : "icc2";
      obs::JournalMeta meta{static_cast<uint32_t>(options.n),
                            static_cast<uint32_t>(options.t), proto, options.seed};
      meta.schema = options.obs.journal_causal ? obs::JournalMeta::kSchemaV2
                                               : obs::JournalMeta::kSchemaV1;
      j->set_meta(meta);
    }
    if (obs::TimeSeries* ts = obs_->series()) {
      obs::SeriesMeta& sm = ts->meta();
      sm.n = static_cast<uint32_t>(options.n);
      sm.t = static_cast<uint32_t>(options.t);
      sm.protocol = options.protocol == Protocol::kIcc0   ? "icc0"
                    : options.protocol == Protocol::kIcc1 ? "icc1"
                                                          : "icc2";
      sm.seed = options.seed;
      for (const auto& [slot, behaviour] : options.corrupt)
        sm.corrupt.push_back(static_cast<uint32_t>(slot));
      std::sort(sm.corrupt.begin(), sm.corrupt.end());
      // Window boundaries ride the engine's virtual-time tick: fired on the
      // coordinating thread between batches, never injecting events, so ids
      // and journal bytes are unchanged with the recorder on or off.
      sim_->engine().set_tick(options.obs.series_window_us,
                              [ts](sim::Time b) { ts->on_boundary(b); });
    }
  }

  PartyConfig pc;
  pc.crypto = crypto_.get();
  pc.delays.delta_bnd = options.delta_bnd;
  pc.delays.epsilon = options.epsilon;
  pc.payload = std::make_shared<consensus::FixedSizePayload>(options.payload_size);
  pc.record_payloads = options.record_payloads;
  pc.committed_history = options.committed_history;
  pc.prune_lag = options.prune_lag;
  pc.max_round = options.max_round;
  pc.cup_interval = options.cup_interval;
  pc.lag_threshold = options.lag_threshold;
  pc.adaptive = options.adaptive;
  pc.pipeline = options.pipeline;
  // Both callbacks mutate harness-shared state (pending_latency_, latencies_)
  // and so are deferred to the canonical replay point when fired from inside
  // a parallel engine batch (support/defer.hpp).
  pc.on_commit = [this](sim::PartyIndex self, const CommittedBlock& b) {
    if (support::DeferQueue::maybe_defer([this, self, b] { record_commit(self, b); }))
      return;
    record_commit(self, b);
  };
  pc.on_propose = [this](sim::PartyIndex self, Round round, const types::Hash& hash,
                         sim::Time now) {
    if (support::DeferQueue::maybe_defer(
            [this, self, round, hash, now] { record_propose(self, round, hash, now); }))
      return;
    record_propose(self, round, hash, now);
  };
  // Only the harness knows which slots are corrupt; probes use this oracle
  // to tag rounds by actual leader honesty (honest_ is final before start).
  pc.party_honesty = [this](consensus::PartyIndex p) {
    return p < honest_.size() && honest_[p];
  };

  parties_.assign(options.n, nullptr);
  honest_.assign(options.n, true);

  std::map<sim::PartyIndex, CorruptBehavior> corrupt(options.corrupt.begin(),
                                                     options.corrupt.end());
  for (sim::PartyIndex i = 0; i < options.n; ++i) {
    if (options.payload_factory) pc.payload = options.payload_factory(i);
    auto it = corrupt.find(i);
    std::unique_ptr<sim::Process> proc;
    if (options.custom_process && (proc = options.custom_process(i))) {
      honest_[i] = false;
      sim_->network().set_process(i, std::move(proc));
      continue;
    }
    // Probes attach to honest parties only, so aggregate metrics describe
    // honest behaviour (matching pipeline_stats()/verifier_stats()). The
    // intern store follows the same rule: a Byzantine party must not be able
    // to poison (or read) the honest parties' shared decode/verdict caches.
    pc.obs = it == corrupt.end() ? obs_.get() : nullptr;
    pc.intern = it == corrupt.end() ? intern_.get() : nullptr;
    if (it == corrupt.end()) {
      std::unique_ptr<Icc0Party> p;
      switch (options.protocol) {
        case Protocol::kIcc0:
          p = std::make_unique<Icc0Party>(i, pc);
          break;
        case Protocol::kIcc1:
          p = std::make_unique<consensus::Icc1Party>(i, pc, options.gossip);
          break;
        case Protocol::kIcc2:
          p = std::make_unique<consensus::Icc2Party>(i, pc);
          break;
      }
      parties_[i] = p.get();
      proc = std::move(p);
    } else if (std::holds_alternative<Crashed>(it->second)) {
      honest_[i] = false;
      proc = std::make_unique<CrashParty>();
    } else {
      honest_[i] = false;
      auto p = std::make_unique<ByzantineParty>(
          i, pc, std::get<consensus::ByzantineBehavior>(it->second));
      parties_[i] = p.get();
      proc = std::move(p);
    }
    sim_->network().set_process(i, std::move(proc));
  }
  honest_count_ = static_cast<size_t>(std::count(honest_.begin(), honest_.end(), true));
  sim_->start();
}

Cluster::~Cluster() = default;

void Cluster::run_for(sim::Duration d) { sim_->run_until(sim_->engine().now() + d); }
void Cluster::run_until(sim::Time t) { sim_->run_until(t); }

void Cluster::record_propose(sim::PartyIndex, Round round, const types::Hash& hash,
                             sim::Time now) {
  pending_latency_[{round, hash}].proposed_at = now;
}

void Cluster::record_commit(sim::PartyIndex self, const CommittedBlock& block) {
  if (!honest_[self]) return;
  auto it = pending_latency_.emplace(std::make_pair(block.round, block.hash),
                                     PendingLatency{})
                .first;
  PendingLatency& pending = it->second;
  pending.commits++;
  if (pending.commits == honest_count_) {
    if (options_.record_latencies && pending.proposed_at >= 0) {
      latencies_.push_back(
          LatencySample{block.round, block.committed_at - pending.proposed_at});
    }
    // Complete entries are done; stale ones (a proposal that never fully
    // committed, e.g. across a crash window) are swept once the frontier
    // has moved well past them. Both bounds keep soak-length runs flat.
    pending_latency_.erase(it);
  }
  while (!pending_latency_.empty() &&
         pending_latency_.begin()->first.first + 64 < block.round)
    pending_latency_.erase(pending_latency_.begin());
  if (options_.on_commit) options_.on_commit(self, block);
}

std::optional<std::string> Cluster::check_safety() const {
  // Each round commits exactly one block, so outputs are aligned by round:
  // every party's committed rounds are strictly increasing, and any two
  // parties agree on the block of every round they both committed. (A party
  // that state-synced via a catch-up package starts its history at the
  // checkpoint round instead of round 1 — prefix equality by index would be
  // too strict, round alignment is the invariant the paper guarantees.)
  std::map<Round, std::pair<types::Hash, size_t>> by_round;  // hash + first committer
  for (size_t i = 0; i < parties_.size(); ++i) {
    if (!honest_[i] || !parties_[i]) continue;
    const auto& out = parties_[i]->committed();
    Round prev = 0;
    bool first = true;
    for (const auto& blk : out) {
      if (!first && blk.round <= prev) {
        std::ostringstream os;
        os << "party " << i << " committed round " << blk.round
           << " out of order (after round " << prev << ")";
        return os.str();
      }
      prev = blk.round;
      first = false;
      auto [it, inserted] = by_round.emplace(blk.round, std::make_pair(blk.hash, i));
      if (!inserted && it->second.first != blk.hash) {
        std::ostringstream os;
        os << "safety violation at round " << blk.round << ": party " << i
           << " and party " << it->second.second << " committed different blocks";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> Cluster::check_p2() const {
  const Round max_round = static_cast<Round>(max_honest_round());
  for (Round k = 1; k <= max_round; ++k) {
    std::set<types::Hash> notarized, finalized;
    for (size_t i = 0; i < parties_.size(); ++i) {
      if (!honest_[i] || !parties_[i]) continue;
      const auto& pool = parties_[i]->pool();
      for (const auto& h : pool.notarized_blocks_at(k)) {
        notarized.insert(h);
        if (pool.finalization_for(h) != nullptr) finalized.insert(h);
      }
    }
    if (!finalized.empty() && notarized.size() > 1) {
      std::ostringstream os;
      os << "P2 violation at round " << k << ": " << finalized.size()
         << " finalized, " << notarized.size() << " notarized blocks";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> Cluster::check_progress(Round round) const {
  for (size_t i = 0; i < parties_.size(); ++i) {
    if (!honest_[i] || !parties_[i]) continue;
    if (parties_[i]->current_round() < round) {
      std::ostringstream os;
      os << "party " << i << " only reached round " << parties_[i]->current_round()
         << " (expected >= " << round << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

size_t Cluster::min_honest_committed() const {
  size_t m = SIZE_MAX;
  for (size_t i = 0; i < parties_.size(); ++i) {
    if (!honest_[i] || !parties_[i]) continue;
    m = std::min(m, static_cast<size_t>(parties_[i]->committed_total()));
  }
  return m == SIZE_MAX ? 0 : m;
}

size_t Cluster::max_honest_round() const {
  size_t m = 0;
  for (size_t i = 0; i < parties_.size(); ++i) {
    if (!honest_[i] || !parties_[i]) continue;
    m = std::max(m, static_cast<size_t>(parties_[i]->current_round()));
  }
  return m;
}

double Cluster::avg_latency_ms() const {
  if (latencies_.empty()) return 0.0;
  double sum = 0;
  for (const auto& s : latencies_) sum += sim::to_ms(s.propose_to_commit);
  return sum / static_cast<double>(latencies_.size());
}

pipeline::PipelineStats Cluster::pipeline_stats() const {
  pipeline::PipelineStats total;
  total.duplicates_from.assign(options_.n, 0);
  for (size_t i = 0; i < parties_.size(); ++i) {
    if (honest_[i] && parties_[i]) total += parties_[i]->ingress().stats();
  }
  return total;
}

pipeline::Verifier::Stats Cluster::verifier_stats() const {
  pipeline::Verifier::Stats total;
  for (size_t i = 0; i < parties_.size(); ++i) {
    if (honest_[i] && parties_[i]) total += parties_[i]->verifier().stats();
  }
  return total;
}

pipeline::InternStore::Stats Cluster::intern_stats() const {
  return intern_ ? intern_->stats() : pipeline::InternStore::Stats{};
}

std::string Cluster::metrics_json() {
  if (!obs_) return "{}";
  obs::Registry& r = obs_->registry();

  // Fold the existing stats structs in as gauges. Doing it at snapshot time
  // keeps the hot paths untouched, and gauges are last-write-wins so
  // repeated snapshots stay correct.
  const auto ps = pipeline_stats();
  r.gauge("pipeline.decoded").set(static_cast<int64_t>(ps.decoded));
  r.gauge("pipeline.malformed").set(static_cast<int64_t>(ps.malformed));
  r.gauge("pipeline.duplicates").set(static_cast<int64_t>(ps.duplicates));
  r.gauge("pipeline.dedup_exempt").set(static_cast<int64_t>(ps.dedup_exempt));

  const auto vs = verifier_stats();
  r.gauge("verify.provider_verifications")
      .set(static_cast<int64_t>(vs.provider_verifications));
  r.gauge("verify.cache_hits").set(static_cast<int64_t>(vs.cache_hits));
  r.gauge("verify.primed").set(static_cast<int64_t>(vs.primed));
  r.gauge("verify.combine_share_checks_skipped")
      .set(static_cast<int64_t>(vs.combine_share_checks_skipped));

  const auto& nm = sim_->network().metrics();
  r.gauge("net.total_messages").set(static_cast<int64_t>(nm.total_messages));
  r.gauge("net.total_bytes").set(static_cast<int64_t>(nm.total_bytes));
  r.gauge("net.max_bytes_sent").set(static_cast<int64_t>(nm.max_bytes_sent()));
  return r.snapshot_json();
}

std::string Cluster::trace_json() const {
  const obs::Journal* j = journal();
  return j ? j->trace_json() : "{}";
}

bool Cluster::dump_trace(const std::string& path) const {
  return journal() != nullptr && support::json::write_file(path, trace_json());
}

obs::RuntimeReport Cluster::runtime_report() const {
  const obs::RuntimeProfiler* rt = runtime();
  if (rt == nullptr) return {};
  obs::RuntimeReport rep = rt->make_report();
  if (intern_) {
    // Physical counters (benignly racy, scheduling-dependent): they belong
    // in this non-deterministic report, never in metrics_json().
    const auto is = intern_->stats();
    rep.has_intern = true;
    rep.intern_parses = is.parses;
    rep.intern_decode_hits = is.decode_hits;
    rep.intern_real_verifications = is.real_verifications;
    rep.intern_memo_hits = is.verdict_memo_hits;
    rep.intern_primed = is.verdicts_primed;
  }
  return rep;
}

std::string Cluster::runtime_report_json() const {
  if (runtime() == nullptr) return "{}";
  return obs::runtime_report_json(runtime_report());
}

bool Cluster::dump_runtime_report(const std::string& path) const {
  return runtime() != nullptr && support::json::write_file(path, runtime_report_json());
}

std::string Cluster::runtime_trace_json() const {
  const obs::RuntimeProfiler* rt = runtime();
  if (rt == nullptr) return "{}";
  const obs::Journal* j = journal();
  return rt->trace_json(j ? obs::trace_events_json(j->events()) : "", j ? j->dropped() : 0);
}

bool Cluster::dump_runtime_trace(const std::string& path) const {
  return runtime() != nullptr && support::json::write_file(path, runtime_trace_json());
}

obs::Journal* Cluster::journal() const {
  if (!obs_) return nullptr;
  // The causal scribe buffers compact records during the run; fold them into
  // the journal before anyone reads it (to_jsonl, audits, --critpath).
  sim_->network().flush_causal();
  return obs_->journal();
}

std::string Cluster::journal_jsonl() const {
  const obs::Journal* j = journal();
  return j ? j->to_jsonl() : std::string();
}

bool Cluster::dump_journal(const std::string& path) const {
  const obs::Journal* j = journal();
  return j && j->write_jsonl(path);
}

bool Cluster::stream_series(const std::string& path) {
  obs::TimeSeries* ts = series();
  return ts != nullptr && ts->open_stream(path);
}

std::string Cluster::series_jsonl() const {
  const obs::TimeSeries* ts = series();
  return ts ? ts->to_jsonl() : std::string();
}

bool Cluster::dump_series(const std::string& path) const {
  const obs::TimeSeries* ts = series();
  return ts != nullptr && ts->write_jsonl(path);
}

double Cluster::blocks_per_second(sim::Duration window) const {
  for (size_t i = 0; i < parties_.size(); ++i) {
    if (honest_[i] && parties_[i]) {
      return static_cast<double>(parties_[i]->committed_total()) / sim::to_sec(window);
    }
  }
  return 0.0;
}

}  // namespace icc::harness
