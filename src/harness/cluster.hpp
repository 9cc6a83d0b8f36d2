// Experiment harness: wire up n parties (honest / Byzantine / crashed) over
// a simulated network, run, and check the paper's invariants.
//
// Used by the integration tests, every bench binary and the examples, so
// that each experiment differs only in its declarative ClusterOptions.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "consensus/byzantine.hpp"
#include "consensus/icc0.hpp"
#include "gossip/gossip.hpp"
#include "obs/obs.hpp"
#include "pipeline/intern.hpp"
#include "sim/simulation.hpp"
#include "support/executor.hpp"

namespace icc::harness {

using consensus::CommittedBlock;
using consensus::Round;

enum class Protocol { kIcc0, kIcc1, kIcc2 };
enum class CryptoKind { kFast, kReal };

/// What a corrupt slot does.
struct Crashed {};
using CorruptBehavior = std::variant<Crashed, consensus::ByzantineBehavior>;

struct ClusterOptions {
  size_t n = 4;
  size_t t = 1;  ///< corruption bound used for thresholds (t < n/3)
  Protocol protocol = Protocol::kIcc0;
  CryptoKind crypto = CryptoKind::kFast;
  uint64_t seed = 1;

  sim::Duration delta_bnd = sim::msec(300);
  sim::Duration epsilon = sim::msec(0);
  size_t payload_size = 256;
  bool record_payloads = true;
  /// Keep per-block latency samples (latencies()). Soak drivers switch this
  /// off: a million-round run must not grow an unbounded sample vector.
  bool record_latencies = true;
  /// Bound each party's committed() history to the newest this many blocks
  /// (0 = unbounded). committed_total() still counts everything; safety
  /// checks compare the retained overlapping suffixes. Soak drivers set a
  /// small bound so RSS stays flat over millions of rounds.
  Round committed_history = 0;
  Round max_round = 0;
  Round prune_lag = 16;
  /// Worker threads for the run's party-parallel engine stepping. 0 reads
  /// ICC_THREADS (default 1); 1 = fully sequential, no pool. Any value
  /// yields bit-identical results (DESIGN.md §6).
  size_t threads = 0;
  Round cup_interval = 0;   ///< catch-up packages; 0 disables
  Round lag_threshold = 8;  ///< rounds behind before a party requests a CUP
  consensus::PartyConfig::AdaptiveDelays adaptive;

  /// Network model factory; defaults to FixedDelay(10 ms).
  std::function<std::unique_ptr<sim::DelayModel>(size_t n, uint64_t seed)> delay_model;

  /// Gossip sub-layer tuning (ICC1 only).
  gossip::GossipConfig gossip;

  /// Ingress pipeline switch (dedup + verification cache). On by default;
  /// tests and benches turn it off to measure.
  pipeline::PipelineOptions pipeline;

  /// Cluster-shared artifact interning (DESIGN.md §7): honest parties share
  /// one decode per distinct wire payload and one real signature check per
  /// distinct (signer, message, signature) triple. Off = per-party fidelity
  /// mode (every party decodes and verifies on its own, as in real
  /// deployments where processes do not share memory). Either way the
  /// committed sequences, metrics and journal bytes are identical.
  bool intern = true;

  /// Telemetry (metrics, journal, recorders). Disabled by default; when enabled,
  /// probes are attached to honest parties and the network, and the cluster
  /// exposes metrics_json() / trace_json(). Enabling telemetry never changes
  /// protocol behaviour (probes are read-only; asserted by tests/obs).
  obs::ObsConfig obs;

  /// Corrupt slots: party index -> behaviour. Must have size <= t to match
  /// the protocol's fault assumption (not enforced — some experiments probe
  /// beyond-threshold behaviour deliberately).
  std::vector<std::pair<sim::PartyIndex, CorruptBehavior>> corrupt;

  /// Extra per-commit callback (e.g. benchmark statistics).
  std::function<void(sim::PartyIndex, const CommittedBlock&)> on_commit;

  /// Per-party payload builder (e.g. an smr::CommandQueue). Defaults to
  /// FixedSizePayload(payload_size).
  std::function<std::shared_ptr<consensus::PayloadBuilder>(sim::PartyIndex)>
      payload_factory;

  /// Fully custom process for a slot (returns nullptr to fall through to the
  /// normal honest/corrupt wiring). Lets tests inject arbitrary adversaries.
  std::function<std::unique_ptr<sim::Process>(sim::PartyIndex)> custom_process;
};

struct LatencySample {
  Round round;
  sim::Duration propose_to_commit;
};

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options);
  ~Cluster();

  void run_for(sim::Duration d);
  void run_until(sim::Time t);

  sim::Simulation& sim() { return *sim_; }
  crypto::CryptoProvider& crypto() { return *crypto_; }

  /// Honest party handles (null entries for corrupt slots implemented as
  /// CrashParty; Byzantine slots still expose their Icc0Party view).
  const std::vector<consensus::Icc0Party*>& parties() const { return parties_; }
  consensus::Icc0Party* party(size_t i) const { return parties_[i]; }
  bool is_honest(size_t i) const { return honest_[i]; }

  // --- invariants (paper Section 3.3 / Section 4) ---

  /// Safety: every pair of parties' outputs are prefix-compatible.
  /// Returns nullopt on success, a description on violation.
  std::optional<std::string> check_safety() const;

  /// Property P2: if any party holds a finalized round-k block, no party
  /// holds a different notarized round-k block.
  std::optional<std::string> check_p2() const;

  /// Property P1 (deadlock-freeness) proxy: every honest party reached at
  /// least `round` by now.
  std::optional<std::string> check_progress(Round round) const;

  // --- statistics ---
  size_t min_honest_committed() const;
  size_t max_honest_round() const;
  /// Commit latencies (proposal broadcast -> every honest party committed).
  const std::vector<LatencySample>& latencies() const { return latencies_; }
  double avg_latency_ms() const;
  /// Committed blocks per second of virtual time across the run, measured on
  /// the first honest party.
  double blocks_per_second(sim::Duration window) const;

  /// Ingress-pipeline counters summed over honest parties (decode/dedup).
  pipeline::PipelineStats pipeline_stats() const;
  /// Verification counters summed over honest parties (provider calls,
  /// cache hits, batch calls, ...).
  pipeline::Verifier::Stats verifier_stats() const;
  /// Cluster-shared intern store counters (parses, decode hits, real provider
  /// verifications, shared-verdict hits). Zeroes when interning is off.
  /// Deliberately NOT folded into metrics_json(): the real/hit split depends
  /// on cross-party arrival interleaving under multi-thread runs, and the
  /// journal/metrics byte-identity contract (DESIGN.md §6) must hold at any
  /// thread count. Benches read it directly (threads=1 for exact numbers).
  pipeline::InternStore::Stats intern_stats() const;

  // --- telemetry (ClusterOptions::obs.enabled) ---
  /// The run's telemetry sink; null when telemetry is disabled.
  obs::Obs* obs() { return obs_.get(); }
  /// Metrics snapshot as JSON. Folds the pipeline/verifier/network stats
  /// structs into the registry as gauges first (idempotent — gauges are
  /// last-write-wins), so one document carries every number the run
  /// produced. Returns "{}" when telemetry is disabled.
  std::string metrics_json();
  /// Chrome trace_event JSON rendered from the journal
  /// (obs::Journal::trace_json); "{}" unless obs.enabled && obs.journal.
  std::string trace_json() const;
  /// Write trace_json() to `path`; false when there is no journal or on
  /// I/O error.
  bool dump_trace(const std::string& path) const;

  // --- wall-clock runtime profiling (ClusterOptions::obs.runtime) ---
  /// The live profiler; null unless obs.enabled && obs.runtime. Its output
  /// is NON-DETERMINISTIC (obs/runtime.hpp) and never feeds metrics_json()
  /// or the journal.
  obs::RuntimeProfiler* runtime() const { return obs_ ? obs_->runtime() : nullptr; }
  /// Report of the run so far, with the intern store's physical counters
  /// folded in (labeled physical — scheduling-dependent). Call at a
  /// quiescent point (between runs). Meaningless when profiling is off.
  obs::RuntimeReport runtime_report() const;
  /// runtime_report() as an icc-runtime/v1 document; "{}" when off.
  std::string runtime_report_json() const;
  /// Write runtime_report_json() to `path`; false when off or on I/O error.
  bool dump_runtime_report(const std::string& path) const;
  /// Merged Chrome trace: wall-clock worker lanes next to the virtual-time
  /// events rendered from the journal (when it is on) in one container.
  /// "{}" when profiling is off.
  std::string runtime_trace_json() const;
  bool dump_runtime_trace(const std::string& path) const;

  // --- flight recorder (ClusterOptions::obs.journal) ---
  /// The run's event journal; null unless obs.enabled && obs.journal. Meta
  /// (n, t, protocol, seed) is stamped at construction.
  obs::Journal* journal() const;
  /// Deterministic JSONL export; empty string when journaling is disabled.
  std::string journal_jsonl() const;
  /// Write journal_jsonl() to `path`; false when disabled or on I/O error.
  bool dump_journal(const std::string& path) const;

  // --- windowed time-series (ClusterOptions::obs.series) ---
  /// The run's longitudinal recorder; null unless obs.enabled && obs.series.
  /// Windows close at virtual-time boundaries (deterministic bytes at any
  /// thread count); obs.series_wall adds labeled non-deterministic wall
  /// lines. Meta (n, t, protocol, seed, corrupt slots) is stamped at
  /// construction.
  obs::TimeSeries* series() const { return obs_ ? obs_->series() : nullptr; }
  /// Open the append-only icc-series/v1 stream sink (call before running);
  /// false when the recorder is off or on I/O error.
  bool stream_series(const std::string& path);
  /// Decimated in-memory series as icc-series/v1 JSONL; "" when off.
  std::string series_jsonl() const;
  /// Write series_jsonl() to `path`; false when off or on I/O error.
  bool dump_series(const std::string& path) const;

 private:
  void record_propose(sim::PartyIndex self, Round round, const types::Hash& hash,
                      sim::Time now);
  void record_commit(sim::PartyIndex self, const CommittedBlock& block);

  ClusterOptions options_;
  std::unique_ptr<crypto::CryptoProvider> crypto_;
  std::unique_ptr<obs::Obs> obs_;  ///< null unless options.obs.enabled
  /// Cluster-shared intern store (null when options.intern is off). Declared
  /// before sim_: parties hold raw pointers into it.
  std::unique_ptr<pipeline::InternStore> intern_;
  /// Declared before sim_: parties and the engine hold raw pointers into the
  /// pool, so it must be destroyed after them.
  std::unique_ptr<support::Executor> executor_;  ///< null when threads <= 1
  std::unique_ptr<sim::Simulation> sim_;
  std::vector<consensus::Icc0Party*> parties_;
  std::vector<bool> honest_;
  size_t honest_count_ = 0;

  struct PendingLatency {
    sim::Time proposed_at = -1;
    size_t commits = 0;
  };
  std::map<std::pair<Round, types::Hash>, PendingLatency> pending_latency_;
  std::vector<LatencySample> latencies_;
};

}  // namespace icc::harness
