#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "harness/cluster.hpp"
#include "smr/smr.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace icc;

namespace {

// Why each workload exists, and the sizing data behind it, is in README.md.
// Virtual intervals are sized so that one repetition costs a few wall
// seconds on a 4-core x86 host; a run repeats them until --seconds is used.
// smr-icc2-faults fixes its cluster seed: which rounds the crashed replica
// leads (each costs 2 * Delta_bnd) would otherwise swing its block count by
// half from seed to seed and drown every wall-clock difference.
constexpr Workload kWorkloads[] = {
    // name              protocol        n   t  thr real   intern wan    payload warm     measure    cluster_seed batch_s
    {"fidelity-icc0",   Protocol::kIcc0, 16, 5,  1, true,  false, false, 512,    100'000, 400'000,   0,  2.7},
    {"intern-icc1-wan", Protocol::kIcc1, 32, 10, 1, true,  true,  true,  4096,   500'000, 3'000'000, 0,  6.0},
    {"smr-icc2-faults", Protocol::kIcc2, 16, 5,  4, false, true,  false, 0,      500'000, 4'000'000, 11, 3.0},
};

// --- open-loop KV clients (smr-icc2-faults) ---------------------------------

constexpr double kCmdPerVirtualSecond = 4000;
constexpr sim::Duration kCmdLimit = sim::msec(1000);
constexpr size_t kKeySpace = 4096;
constexpr sim::Duration kAsyncWindow = sim::msec(500);

constexpr uint64_t kWanTopologySeed = 1;

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the whole process, or of the calling thread only: a
/// 1-thread cluster runs entirely on its caller's thread, and the runner
/// may run several of them side by side.
double cpu_now(bool process) {
  timespec ts{};
  clock_gettime(process ? CLOCK_PROCESS_CPUTIME_ID : CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-command bookkeeping shared by every replica's state machine. All
/// access happens from commit callbacks and barrier events, which the
/// engine runs one at a time in canonical order.
struct CommandLog {
  std::vector<sim::Time> due;       ///< by id - 1
  std::vector<uint16_t> applied;    ///< honest replicas that applied it
  std::vector<sim::Time> done;      ///< applied everywhere at; -1 = not yet
  std::vector<std::vector<uint8_t>> seen;  ///< [replica][id - 1]
  size_t honest = 0;
  sim::Time commit_time = 0;        ///< committed_at of the block being applied
  std::string error;

  void issue(sim::Time at) {
    due.push_back(at);
    applied.push_back(0);
    done.push_back(-1);
    for (auto& s : seen) s.push_back(0);
  }

  void on_apply(size_t replica, uint64_t id) {
    if (id == 0 || id > due.size()) {
      if (error.empty()) error = "replica applied a command no client issued";
      return;
    }
    uint8_t& s = seen[replica][id - 1];
    if (s != 0) {
      if (error.empty())
        error = "replica " + std::to_string(replica) + " applied command " +
                std::to_string(id) + " twice";
      return;
    }
    s = 1;
    if (++applied[id - 1] == honest) done[id - 1] = commit_time;
  }
};

/// KvStore that reports each applied command to the CommandLog, so the
/// at-most-once check costs one flag per command instead of a re-decode.
class CheckedKv final : public smr::StateMachine {
 public:
  CheckedKv(CommandLog* log, size_t replica) : log_(log), replica_(replica) {}
  void apply(const smr::Command& command) override {
    kv_.apply(command);
    log_->on_apply(replica_, command.id);
  }
  crypto::Sha256Digest digest() const override { return kv_.digest(); }

 private:
  smr::KvStore kv_;
  CommandLog* log_;
  size_t replica_;
};

// --- traced-run timing wrappers ----------------------------------------------

/// Wall time and calls of one wrapped layer entry point. Updated from pool
/// workers in multi-thread runs, hence atomics.
struct LayerClock {
  std::atomic<uint64_t> calls{0};
  std::atomic<int64_t> ns{0};
  void add(int64_t d) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(d, std::memory_order_relaxed);
  }
};

class TimedDelay final : public sim::DelayModel {
 public:
  TimedDelay(std::unique_ptr<sim::DelayModel> inner, LayerClock* clock)
      : inner_(std::move(inner)), clock_(clock) {}
  sim::Duration delay(sim::PartyIndex from, sim::PartyIndex to, sim::Time now, size_t bytes,
                      Xoshiro256& rng) override {
    const int64_t t0 = steady_ns();
    const sim::Duration d = inner_->delay(from, to, now, bytes, rng);
    clock_->add(steady_ns() - t0);
    return d;
  }

 private:
  std::unique_ptr<sim::DelayModel> inner_;
  LayerClock* clock_;
};

class TimedBuilder final : public consensus::PayloadBuilder {
 public:
  TimedBuilder(std::shared_ptr<consensus::PayloadBuilder> inner, smr::CommandQueue* queue,
               LayerClock* clock, std::atomic<uint64_t>* pending_max)
      : inner_(std::move(inner)), queue_(queue), clock_(clock), pending_max_(pending_max) {}
  Bytes build(types::Round round, types::PartyIndex proposer,
              const std::vector<const types::Block*>& chain) override {
    if (queue_ != nullptr) {
      const uint64_t depth = queue_->pending();
      uint64_t seen = pending_max_->load(std::memory_order_relaxed);
      while (depth > seen && !pending_max_->compare_exchange_weak(seen, depth)) {
      }
    }
    const int64_t t0 = steady_ns();
    Bytes out = inner_->build(round, proposer, chain);
    clock_->add(steady_ns() - t0);
    return out;
  }

 private:
  std::shared_ptr<consensus::PayloadBuilder> inner_;
  smr::CommandQueue* queue_;
  LayerClock* clock_;
  std::atomic<uint64_t>* pending_max_;
};

// --- one repetition's cluster and everything around it -----------------------

struct Rig {
  const Workload& w;
  bool traced;
  size_t crashed = SIZE_MAX;  ///< smr: the crashed slot

  CommandLog log;
  std::vector<std::shared_ptr<smr::CommandQueue>> queues;
  std::vector<std::shared_ptr<smr::Replica>> replicas;
  Xoshiro256 client_rng;

  std::vector<sim::Time> commit_times;  ///< party 0's commits
  std::vector<size_t> commit_payload;   ///< party 0's payload sizes

  LayerClock delay_clock, build_clock, apply_clock;
  std::atomic<uint64_t> pending_max{0};
  uint64_t cmds_applied = 0;  ///< by party 0

  std::unique_ptr<harness::Cluster> cluster;

  Rig(const Workload& wl, uint64_t seed, bool tr)
      : w(wl), traced(tr), client_rng(seed ^ 0xc11e47) {
    harness::ClusterOptions o;
    o.n = w.n;
    o.t = w.t;
    o.protocol = w.protocol == Protocol::kIcc0   ? harness::Protocol::kIcc0
                 : w.protocol == Protocol::kIcc1 ? harness::Protocol::kIcc1
                                                 : harness::Protocol::kIcc2;
    o.crypto = w.real_crypto ? harness::CryptoKind::kReal : harness::CryptoKind::kFast;
    o.seed = w.cluster_seed != 0 ? w.cluster_seed : seed;
    o.delta_bnd = sim::msec(300);
    o.threads = w.threads;
    o.intern = w.intern;
    o.payload_size = w.payload;
    const bool smr_clients = w.payload == 0;
    // With clients, pruning stays off: once the pool is pruned the payload
    // builder is handed an empty chain (Pool::chain_to stops at a pruned
    // ancestor), CommandQueue then re-proposes commands of uncommitted
    // blocks, and replicas apply them twice - which the oracle rejects.
    o.prune_lag = smr_clients ? 0 : 8;
    // Replicas need payloads to apply; bound the history they then retain.
    o.record_payloads = smr_clients;
    o.committed_history = smr_clients ? 64 : 0;

    LayerClock* dc = traced ? &delay_clock : nullptr;
    const bool wan = w.wan;
    o.delay_model = [dc, wan](size_t n, uint64_t) -> std::unique_ptr<sim::DelayModel> {
      std::unique_ptr<sim::DelayModel> m;
      if (wan) {
        // The latency matrix is the deployment's topology and stays fixed;
        // the seed still drives keys, leader order, jitter and loss. Across
        // matrices the interval's block count and work per block swing by
        // more than the differences this benchmark is meant to resolve.
        sim::WanDelay::Config cfg;
        cfg.n = n;
        cfg.seed = kWanTopologySeed;
        m = std::make_unique<sim::WanDelay>(cfg);
      } else {
        m = std::make_unique<sim::FixedDelay>(sim::msec(10));
      }
      if (dc != nullptr) m = std::make_unique<TimedDelay>(std::move(m), dc);
      return m;
    };

    if (smr_clients) {
      // Party 0 stays honest, so it can serve as the reference replica.
      crashed = 1 + o.seed % (w.n - 1);
      o.corrupt = {{static_cast<sim::PartyIndex>(crashed), harness::Crashed{}}};
      log.honest = w.n - 1;
      log.seen.assign(w.n, {});
      for (size_t i = 0; i < w.n; ++i) {
        queues.push_back(std::make_shared<smr::CommandQueue>());
        replicas.push_back(std::make_shared<smr::Replica>(
            queues.back(), std::make_shared<CheckedKv>(&log, i)));
      }
    }
    if (smr_clients || traced) {
      o.payload_factory = [this, smr_clients](sim::PartyIndex i)
          -> std::shared_ptr<consensus::PayloadBuilder> {
        std::shared_ptr<consensus::PayloadBuilder> inner =
            smr_clients ? std::static_pointer_cast<consensus::PayloadBuilder>(queues[i])
                        : std::make_shared<consensus::FixedSizePayload>(w.payload);
        if (!this->traced) return inner;
        return std::make_shared<TimedBuilder>(inner, smr_clients ? queues[i].get() : nullptr,
                                              &build_clock, &pending_max);
      };
    }
    o.on_commit = [this, smr_clients](sim::PartyIndex self, const consensus::CommittedBlock& b) {
      // Traced runs time this whole callback: Replica::on_commit with
      // clients, only the bookkeeping below without them.
      const int64_t t0 = this->traced ? steady_ns() : 0;
      if (self == 0) {
        commit_times.push_back(b.committed_at);
        commit_payload.push_back(b.payload_size);
      }
      if (smr_clients) {
        log.commit_time = b.committed_at;
        const uint64_t before = replicas[self]->applied_commands();
        replicas[self]->on_commit(b);
        if (self == 0) cmds_applied += replicas[self]->applied_commands() - before;
      }
      if (this->traced) apply_clock.add(steady_ns() - t0);
    };

    if (traced) {
      o.obs.enabled = true;
      o.obs.stage_wall_timing = true;
      o.obs.runtime = true;
    }

    cluster = std::make_unique<harness::Cluster>(o);

    if (smr_clients) {
      // One asynchrony window in the middle of the measured interval.
      const sim::Time mid = w.warmup_us + w.measure_us / 2;
      cluster->sim().network().synchrony().add_async_window(mid - kAsyncWindow / 2,
                                                            mid + kAsyncWindow / 2);
      schedule_next_command(0);
    }
  }

  /// Open loop: Poisson arrivals at kCmdPerVirtualSecond, each command due
  /// at its arrival time and submitted to every honest replica then.
  void schedule_next_command(sim::Time after) {
    const double gap_s = -std::log(1.0 - client_rng.unit()) / kCmdPerVirtualSecond;
    const sim::Time at = after + static_cast<sim::Duration>(gap_s * 1e6);
    cluster->sim().engine().schedule_at(at, [this, at] {
      const uint64_t id = log.due.size() + 1;
      log.issue(at);
      const std::string key = "key-" + std::to_string(client_rng.below(kKeySpace));
      const Bytes value = client_rng.bytes(224 + client_rng.below(64));
      const smr::Command cmd = smr::KvStore::put(
          id, key, std::string_view(reinterpret_cast<const char*>(value.data()), value.size()));
      for (size_t i = 0; i < w.n; ++i)
        if (i != crashed) replicas[i]->submit(cmd);
      schedule_next_command(at);
    });
  }
};

// --- telemetry snapshots (traced repetitions) --------------------------------

struct HistSnap {
  std::vector<int64_t> bounds;
  std::vector<uint64_t> counts;
  uint64_t overflow = 0;
};

HistSnap snap_hist(const obs::Registry& r, const std::string& name) {
  const obs::Histogram* h = r.find_histogram(name);
  if (h == nullptr) return {};
  return {h->bounds(), h->bucket_counts(), h->overflow()};
}

/// Percentile of the samples recorded between snapshots `a` and `b`; 0
/// without samples. Virtual-time histograms report the bucket's upper
/// bound (exact and repeatable); wall-clock ones interpolate inside the
/// bucket, since their buckets are a factor of two wide.
double hist_pct(const HistSnap& a, const HistSnap& b, double q, bool interpolate) {
  if (b.bounds.empty()) return 0;
  std::vector<uint64_t> d(b.counts.size());
  uint64_t total = b.overflow - (a.bounds.empty() ? 0 : a.overflow);
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = b.counts[i] - (a.bounds.empty() ? 0 : a.counts[i]);
    total += d[i];
  }
  if (total == 0) return 0;
  const auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  uint64_t cum = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (cum + d[i] >= rank) {
      const double hi = static_cast<double>(b.bounds[i]);
      if (!interpolate) return hi;
      const double lo = i ? static_cast<double>(b.bounds[i - 1]) : 0.0;
      return lo + (hi - lo) * static_cast<double>(rank - cum) / static_cast<double>(d[i]);
    }
    cum += d[i];
  }
  return static_cast<double>(b.bounds.back());
}

Metrics snap_counters(const obs::Registry& r) {
  Metrics m;
  r.visit_counters(
      [&m](const std::string& name, const obs::Counter& c) { m[name] = static_cast<double>(c.value()); });
  return m;
}

double delta(const Metrics& a, const Metrics& b, const std::string& name) {
  auto ib = b.find(name);
  if (ib == b.end()) return 0;
  auto ia = a.find(name);
  return ib->second - (ia == a.end() ? 0 : ia->second);
}

/// b - a for every additive field; analyze_runtime of the result describes
/// the interval between the two snapshots.
obs::RuntimeReport diff_report(const obs::RuntimeReport& a, const obs::RuntimeReport& b) {
  obs::RuntimeReport d = b;
  d.wall_ns = b.wall_ns - a.wall_ns;
  for (size_t i = 0; i < d.workers.size() && i < a.workers.size(); ++i) {
    obs::WorkerReport& w = d.workers[i];
    const obs::WorkerReport& p = a.workers[i];
    w.busy_ns -= p.busy_ns;
    w.idle_ns -= p.idle_ns;
    if (w.cpu_ns >= 0 && p.cpu_ns >= 0) w.cpu_ns -= p.cpu_ns;
    for (size_t k = 0; k < obs::kTaskKinds; ++k) {
      w.tasks[k].count -= p.tasks[k].count;
      w.tasks[k].total_ns -= p.tasks[k].total_ns;
      w.tasks[k].exclusive_ns -= p.tasks[k].exclusive_ns;
    }
    for (size_t k = 0; k < obs::kLockSites; ++k) {
      w.locks[k].acquisitions -= p.locks[k].acquisitions;
      w.locks[k].contended -= p.locks[k].contended;
      w.locks[k].wait_ns -= p.locks[k].wait_ns;
    }
  }
  return d;
}

/// Mean events per parallel engine batch over the spans still held in the
/// profiler's rings (arg1 of each engine_batch span); 0 when the engine ran
/// sequentially and recorded no batches.
double batch_events_mean(const std::string& trace) {
  static constexpr std::string_view kName = "\"name\":\"engine_batch\"";
  static constexpr std::string_view kArg = "\"arg1\":";
  uint64_t batches = 0, events = 0;
  for (size_t pos = trace.find(kName); pos != std::string::npos;
       pos = trace.find(kName, pos + kName.size())) {
    const size_t a = trace.find(kArg, pos);
    if (a == std::string::npos) break;
    events += std::strtoull(trace.c_str() + a + kArg.size(), nullptr, 10);
    batches++;
  }
  return batches ? static_cast<double>(events) / static_cast<double>(batches) : 0;
}

struct Counts {
  pipeline::Verifier::Stats vs;
  pipeline::InternStore::Stats is;
  pipeline::PipelineStats ps;
  uint64_t messages = 0, bytes = 0;
  std::vector<uint64_t> bytes_by_party;
  Metrics counters;
  std::map<std::string, HistSnap> hists;
  obs::RuntimeReport runtime;
  uint64_t delay_calls = 0, build_calls = 0, apply_calls = 0;
  int64_t delay_ns = 0, build_ns = 0, apply_ns = 0;
  uint64_t cmds_applied = 0;
};

const char* const kHists[] = {
    "pipeline.decode_wall_ns",        "pipeline.verify_wall_ns",
    "consensus.round_us_honest_leader", "consensus.round_us_corrupt_leader",
    "consensus.finalize_gap_rounds",  "gossip.fetch_us",
};

Counts take_counts(Rig& rig) {
  harness::Cluster& c = *rig.cluster;
  Counts k;
  k.vs = c.verifier_stats();
  k.is = c.intern_stats();
  k.ps = c.pipeline_stats();
  const sim::NetworkMetrics& nm = c.sim().network().metrics();
  k.messages = nm.total_messages;
  k.bytes = nm.total_bytes;
  k.bytes_by_party = nm.bytes_sent;
  if (obs::Obs* o = c.obs()) {
    k.counters = snap_counters(o->registry());
    for (const char* h : kHists) k.hists[h] = snap_hist(o->registry(), h);
    k.runtime = c.runtime_report();
  }
  k.delay_calls = rig.delay_clock.calls.load();
  k.delay_ns = rig.delay_clock.ns.load();
  k.build_calls = rig.build_clock.calls.load();
  k.build_ns = rig.build_clock.ns.load();
  k.apply_calls = rig.apply_clock.calls.load();
  k.apply_ns = rig.apply_clock.ns.load();
  k.cmds_applied = rig.cmds_applied;
  return k;
}

/// Per-layer numbers of the measured interval [a, b] of a traced repetition.
Metrics layer_metrics(const Rig& rig, const Counts& a, const Counts& b, uint64_t blocks) {
  const double blk = static_cast<double>(std::max<uint64_t>(blocks, 1));
  const auto per_block = [blk](double v) { return v / blk; };
  const double n = static_cast<double>(rig.w.n);
  Metrics m;

  // crypto: logical = what lone parties verify; real = what ran (intern
  // mode shares verdicts cluster-wide; fidelity mode runs every check).
  const double logical = static_cast<double>(b.vs.provider_verifications - a.vs.provider_verifications);
  const double hits = static_cast<double>(b.vs.cache_hits - a.vs.cache_hits);
  const double real = rig.w.intern
                          ? static_cast<double>(b.is.real_verifications - a.is.real_verifications)
                          : logical;
  m["crypto.logical_verifications_per_block"] = per_block(logical);
  m["crypto.real_verifications_per_block"] = per_block(real);

  // pipeline
  const double decoded = static_cast<double>(b.ps.decoded - a.ps.decoded);
  const double dups = static_cast<double>(b.ps.duplicates - a.ps.duplicates);
  const double parses =
      rig.w.intern ? static_cast<double>(b.is.parses - a.is.parses) : decoded;
  m["pipeline.verify_checks_per_block"] = per_block(logical + hits);
  m["pipeline.cache_hit_ratio"] = logical + hits > 0 ? hits / (logical + hits) : 0;
  m["pipeline.primed_per_block"] =
      per_block(static_cast<double>(b.vs.primed - a.vs.primed));
  m["pipeline.parses_per_block"] = per_block(parses);
  m["pipeline.parses_per_delivered"] = decoded > 0 ? parses / decoded : 0;
  m["pipeline.delivered_per_block"] = per_block(decoded + dups);
  m["pipeline.duplicates_per_block"] = per_block(dups);
  const auto hist = [&](const char* name, double q, bool wall = false) {
    auto ia = a.hists.find(name), ib = b.hists.find(name);
    if (ib == b.hists.end()) return 0.0;
    return hist_pct(ia == a.hists.end() ? HistSnap{} : ia->second, ib->second, q, wall);
  };
  m["pipeline.decode_ns_p50"] = hist("pipeline.decode_wall_ns", 0.5, true);
  m["pipeline.verify_ns_p50"] = hist("pipeline.verify_wall_ns", 0.5, true);

  // rbc, gossip, consensus: registry counters and virtual-time histograms
  const auto cnt = [&](const char* name) { return delta(a.counters, b.counters, name); };
  m["rbc.deliveries_per_block"] = per_block(cnt("rbc.blocks_delivered"));
  m["rbc.delivered_bytes_per_block"] = per_block(cnt("rbc.delivered_bytes"));
  m["gossip.adverts_per_block"] = per_block(cnt("gossip.adverts"));
  m["gossip.requests_per_block"] = per_block(cnt("gossip.requests_sent"));
  m["gossip.retries_per_block"] = per_block(cnt("gossip.request_retries"));
  m["gossip.served_bytes_per_block"] = per_block(cnt("gossip.served_bytes"));
  m["gossip.fetch_ms_p50"] = hist("gossip.fetch_us", 0.5) / 1000.0;
  const double party_rounds = cnt("consensus.rounds");
  const double honest = rig.crashed == SIZE_MAX ? n : n - 1;
  m["consensus.party_rounds_per_block"] = per_block(party_rounds);
  m["consensus.round_ms_p50"] = hist("consensus.round_us_honest_leader", 0.5) / 1000.0;
  m["consensus.round_ms_p90_corrupt_leader"] =
      hist("consensus.round_us_corrupt_leader", 0.9) / 1000.0;
  m["consensus.finalize_gap_p90"] = hist("consensus.finalize_gap_rounds", 0.9);
  m["consensus.proposals_per_round"] =
      party_rounds > 0 ? cnt("consensus.proposals_made") * honest / party_rounds : 0;

  // sim: network accounting plus the timed delay model
  m["sim.messages_per_block"] = per_block(static_cast<double>(b.messages - a.messages));
  m["sim.bytes_per_block"] = per_block(static_cast<double>(b.bytes - a.bytes));
  uint64_t max_sent = 0;
  for (size_t i = 0; i < b.bytes_by_party.size(); ++i)
    max_sent = std::max(max_sent, b.bytes_by_party[i] -
                                      (i < a.bytes_by_party.size() ? a.bytes_by_party[i] : 0));
  m["sim.max_bytes_sent_per_block"] = per_block(static_cast<double>(max_sent));
  const uint64_t dcalls = b.delay_calls - a.delay_calls;
  m["sim.delay_model_ns"] =
      dcalls ? static_cast<double>(b.delay_ns - a.delay_ns) / static_cast<double>(dcalls) : 0;

  // support executor and engine batches: the wall-clock runtime profiler
  const obs::RuntimeReport rt = diff_report(a.runtime, b.runtime);
  const obs::RuntimeAnalysis an = obs::analyze_runtime(rt);
  // Shares of the interval's wall time rather than milliseconds: they do
  // not depend on how long a repetition ran, and on 1-thread workloads,
  // where the executor is bypassed, they are 0 by construction.
  double idle = 0, replay = 0, batch = 0, lock_wait = 0;
  for (const obs::WorkerReport& wr : rt.workers) {
    idle += static_cast<double>(wr.idle_ns);
    replay += static_cast<double>(wr.tasks[static_cast<size_t>(obs::TaskKind::kDeferReplay)].total_ns);
    batch += static_cast<double>(wr.tasks[static_cast<size_t>(obs::TaskKind::kEngineBatch)].total_ns);
    for (const obs::LockStat& l : wr.locks) lock_wait += static_cast<double>(l.wait_ns);
  }
  const double wall = static_cast<double>(std::max<int64_t>(rt.wall_ns, 1));
  const double thread_wall = wall * static_cast<double>(rig.w.threads);
  m["support.utilization"] = an.utilization;
  m["support.serial_fraction"] = an.serial_fraction;
  m["support.parallel_region_share"] = an.parallel_region_share;
  m["support.idle_share"] = idle / thread_wall;
  m["support.defer_replay_share"] = replay / wall;
  m["sim.engine_batch_share"] = batch / wall;
  m["sim.batch_events_mean"] = batch_events_mean(rig.cluster->runtime_trace_json());
  m["pipeline.lock_wait_share"] = lock_wait / thread_wall;

  // smr: timed payload builder and replica apply
  const uint64_t bcalls = b.build_calls - a.build_calls;
  const uint64_t acalls = b.apply_calls - a.apply_calls;
  m["smr.build_us"] =
      bcalls ? static_cast<double>(b.build_ns - a.build_ns) / 1e3 / static_cast<double>(bcalls) : 0;
  m["smr.apply_us"] =
      acalls ? static_cast<double>(b.apply_ns - a.apply_ns) / 1e3 / static_cast<double>(acalls) : 0;
  m["smr.build_apply_us_per_block"] =
      per_block(static_cast<double>((b.build_ns - a.build_ns) + (b.apply_ns - a.apply_ns)) / 1e3);
  m["smr.cmds_per_block"] = per_block(static_cast<double>(b.cmds_applied - a.cmds_applied));
  m["smr.pending_depth_max"] = static_cast<double>(rig.pending_max.load());
  return m;
}

double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(rank > 0 ? rank - 1 : 0, v.size() - 1)];
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::string workload_names() {
  std::string s;
  for (const Workload& w : kWorkloads) s += (s.empty() ? "" : ", ") + std::string(w.name);
  return s;
}

double time_setup(const Workload& w, uint64_t seed) {
  const double t0 = wall_now();
  Rig rig(w, seed, false);
  return wall_now() - t0;
}

RepResult run_rep(const Workload& w, uint64_t seed, bool traced) {
  RepResult r;
  const double s0 = wall_now();
  Rig rig(w, seed, traced);
  r.setup_s = wall_now() - s0;
  harness::Cluster& c = *rig.cluster;

  const sim::Time t0 = w.warmup_us;
  const sim::Time t1 = w.warmup_us + w.measure_us;
  c.run_until(t0);
  const size_t blocks0 = c.min_honest_committed();
  const size_t lat0 = c.latencies().size();
  const size_t commits0 = rig.commit_times.size();
  const size_t round0 = c.party(0)->current_round();
  Counts k0;
  if (traced) k0 = take_counts(rig);

  const bool process_cpu = w.threads > 1;
  double wall = wall_now(), cpu = cpu_now(process_cpu);
  const double wall0 = wall, cpu0 = cpu;
  for (sim::Time at = t0 + kSegmentUs; at <= t1; at += kSegmentUs) {
    c.run_until(at);
    const double w1 = wall_now(), c1 = cpu_now(process_cpu);
    r.segment_wall.push_back(w1 - wall);
    r.segment_cpu.push_back(c1 - cpu);
    wall = w1;
    cpu = c1;
  }
  r.cpu_s = cpu - cpu0;
  r.wall_s = wall - wall0;

  r.blocks = c.min_honest_committed() - blocks0;
  if (traced) r.layer = layer_metrics(rig, k0, take_counts(rig), r.blocks);

  // --- virtual-time observables of the measured interval ---
  const double measure_s = sim::to_sec(w.measure_us);
  r.vt["virtual_blocks_per_s"] = static_cast<double>(r.blocks) / measure_s;
  std::vector<double> lat;
  for (size_t i = lat0; i < c.latencies().size(); ++i)
    lat.push_back(sim::to_ms(c.latencies()[i].propose_to_commit));
  r.vt["commit_latency_p50_ms"] = nearest_rank(lat, 0.5);
  r.vt["commit_latency_p90_ms"] = nearest_rank(lat, 0.9);
  r.vt["commit_latency_samples"] = static_cast<double>(lat.size());
  sim::Duration outage = 0;
  size_t payload_bytes = 0;
  for (size_t i = std::max<size_t>(commits0, 1); i < rig.commit_times.size(); ++i) {
    outage = std::max(outage, rig.commit_times[i] - rig.commit_times[i - 1]);
    payload_bytes += rig.commit_payload[i];
  }
  r.vt["outage_ms"] = sim::to_ms(outage);
  const size_t commits = rig.commit_times.size() - std::max<size_t>(commits0, 1);
  r.payload_mean = commits ? static_cast<double>(payload_bytes) / static_cast<double>(commits) : 0;

  if (w.payload == 0) {
    // A command is an operation: attempted if due early enough in the
    // interval to have had the full limit, failed unless applied by every
    // honest replica within it. A failure counts as an infinite latency.
    std::vector<double> cmd;
    for (size_t i = 0; i < rig.log.due.size(); ++i) {
      const sim::Time due = rig.log.due[i];
      if (due < t0 || due > t1 - kCmdLimit) continue;
      r.attempted++;
      const sim::Time done = rig.log.done[i];
      if (done >= 0 && done - due <= kCmdLimit) {
        cmd.push_back(sim::to_ms(done - due));
      } else {
        r.failed++;
        cmd.push_back(std::numeric_limits<double>::infinity());
      }
    }
    r.vt["cmd_latency_p50_ms"] = nearest_rank(cmd, 0.5);
    r.vt["cmd_latency_p99_ms"] = nearest_rank(cmd, 0.99);
    r.vt["cmd_latency_samples"] = static_cast<double>(cmd.size());
  } else {
    r.vt["cmd_latency_p50_ms"] = 0;
    r.vt["cmd_latency_p99_ms"] = 0;
    r.vt["cmd_latency_samples"] = 0;
    // A round is an operation; it fails if party 0 committed no block of
    // that round (ICC commits one block per round, so this guards the
    // protocol, not the load).
    const size_t round1 = c.party(0)->current_round();
    std::vector<uint8_t> has(round1 - round0 + 1, 0);
    for (const auto& blk : c.party(0)->committed())
      if (blk.round > round0 && blk.round <= round1) has[blk.round - round0] = 1;
    const size_t last =
        c.party(0)->committed().empty() ? 0 : c.party(0)->committed().back().round;
    for (size_t rd = round0 + 1; rd <= std::min(round1, last); ++rd) {
      r.attempted++;
      if (!has[rd - round0]) r.failed++;
    }
  }
  r.vt["fail_ratio"] =
      r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0;

  // --- correctness oracle ---
  if (auto e = c.check_safety()) r.error = "safety: " + *e;
  if (auto e = c.check_p2(); e && r.error.empty()) r.error = "P2: " + *e;
  if (r.blocks == 0 && r.error.empty()) r.error = "no block committed in the measured interval";
  if (!rig.log.error.empty() && r.error.empty()) r.error = "smr: " + rig.log.error;
  if (w.payload == 0 && r.error.empty()) {
    // Replicas at the same committed round must hold the same KV state.
    std::map<types::Round, crypto::Sha256Digest> by_round;
    size_t compared = 0;
    for (size_t i = 0; i < w.n; ++i) {
      if (i == rig.crashed) continue;
      const auto& out = c.party(i)->committed();
      if (out.empty()) continue;
      const auto d = rig.replicas[i]->state().digest();
      auto [it, fresh] = by_round.emplace(out.back().round, d);
      if (!fresh) {
        compared++;
        if (it->second != d) {
          r.error = "smr: replicas at round " + std::to_string(out.back().round) +
                    " hold different KV digests";
          break;
        }
      }
    }
    if (compared == 0 && r.error.empty()) r.error = "smr: no two replicas at the same round";
  }
  return r;
}

}  // namespace perfbench
