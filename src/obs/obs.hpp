// Run-level telemetry: one Obs object per cluster bundles a metrics
// Registry, the event journal and the optional recorders behind a single
// enable switch. The Chrome trace is not recorded separately: it is
// rendered from the journal (obs/journal.hpp, trace_events_json).
//
// Probes follow the support/log.hpp discipline: disabled telemetry costs a
// null-pointer check at each probe site (parties are handed a null Obs*, so
// every probe method returns on its first branch), and enabling it must not
// change protocol behaviour — probes only read protocol state, never mutate
// it (asserted by the on/off determinism test in tests/obs/).
//
// The probe classes below concentrate the metric names, bucket layouts and
// per-round bookkeeping so the instrumented subsystems (consensus parties,
// gossip layer, network) stay one-liner call sites. Metric objects live in
// the Registry and are shared by name: n parties bumping
// "consensus.rounds" produce the aggregate directly.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/runtime.hpp"
#include "obs/timeseries.hpp"

namespace icc::obs {

struct ObsConfig {
  bool enabled = false;  ///< master switch; false = all probes off
  /// Wall-clock histograms for the ingress-pipeline decode/verify stages
  /// (~2 steady_clock reads per payload — opt-in so default telemetry stays
  /// within the <5% overhead budget; see EXPERIMENTS.md F-OBS).
  bool stage_wall_timing = false;
  /// Structured event journal (flight recorder, obs/journal.hpp). Opt-in on
  /// top of `enabled` — journaling records per-event history, not
  /// aggregates, so it has its own switch and capacity bound.
  bool journal = false;
  size_t journal_capacity = 1 << 20;  ///< max recorded events (excess counted)
  /// Causal layer on top of the journal: every wire transfer records a
  /// send/recv event pair with a deterministic edge id (schema
  /// icc-journal/v2; obs/causal.hpp). On by default when the journal is on;
  /// switch off to produce byte-light v1 journals.
  bool journal_causal = true;
  /// Wall-clock runtime profiler (obs/runtime.hpp). Opt-in on top of
  /// `enabled`; its output is explicitly NON-DETERMINISTIC (steady_clock
  /// spans, lock waits, executor health) and never feeds journal or metrics
  /// bytes — the determinism matrices stay green with it on.
  bool runtime = false;
  size_t runtime_span_capacity = 1 << 15;  ///< span-ring slots per lane
  /// Longitudinal windowed time-series (obs/timeseries.hpp). Opt-in on top
  /// of `enabled`; windows close at virtual-time boundaries (engine tick),
  /// so the series bytes are deterministic like the journal. series_wall
  /// additionally emits explicitly-labeled NON-deterministic wall lines
  /// (RSS, stream drops) — the runtime-profiler exemption, never mixed into
  /// the deterministic window records.
  bool series = false;
  int64_t series_window_us = 1'000'000;  ///< window length (virtual µs)
  size_t series_full_res = 512;          ///< full-resolution windows kept
  bool series_wall = false;              ///< wall lines (soak drivers only)
};

class Obs {
 public:
  explicit Obs(const ObsConfig& config)
      : config_(config),
        journal_((config.enabled && config.journal) ? config.journal_capacity : 0) {
    if (config.enabled && config.runtime)
      runtime_ = std::make_unique<RuntimeProfiler>(config.runtime_span_capacity);
    if (config.enabled && config.series) {
      SeriesConfig sc;
      sc.window_us = config.series_window_us;
      sc.full_res = config.series_full_res;
      sc.wall = config.series_wall;
      series_ = std::make_unique<TimeSeries>(&registry_, sc);
    }
  }

  bool enabled() const { return config_.enabled; }
  const ObsConfig& config() const { return config_; }
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  /// Cluster-wide flight recorder; null when journaling is off, so scribes
  /// (JournalScribe::attach) null-attach exactly like probes do.
  Journal* journal() { return journal_.enabled() ? &journal_ : nullptr; }
  const Journal* journal() const { return journal_.enabled() ? &journal_ : nullptr; }
  /// Wall-clock profiler; null when off, so instrumentation sites null-check
  /// exactly like every other probe.
  RuntimeProfiler* runtime() { return runtime_.get(); }
  const RuntimeProfiler* runtime() const { return runtime_.get(); }
  /// Windowed time-series recorder; null when off (probe sites null-check).
  TimeSeries* series() { return series_.get(); }
  const TimeSeries* series() const { return series_.get(); }

 private:
  ObsConfig config_;
  Registry registry_;
  Journal journal_;
  std::unique_ptr<RuntimeProfiler> runtime_;
  std::unique_ptr<TimeSeries> series_;
};

// ---------------------------------------------------------------------------
// Consensus probe (per party; wired through icc0/icc1/icc2)
// ---------------------------------------------------------------------------

/// Per-round protocol timings and leader-honesty tags. The paper's claims
/// these metrics quantify: reciprocal throughput 2δ / latency 3δ (§1,
/// F-LAT), O(1)-expected rounds to finalize (§1, F-RND), and the
/// O(δ)-honest / O(Δ_bnd)-corrupt round split (§1 "Robust consensus",
/// F-ROB). See DESIGN.md § Observability for the full mapping.
class PartyProbe {
 public:
  PartyProbe() = default;

  /// `honesty` tags rounds by the actual corruption status of the rank-0
  /// leader (supplied by the harness, which knows the corrupt slots);
  /// without it rounds are tagged by the party-observable proxy only.
  void attach(Obs* obs, std::function<bool(uint32_t)> honesty);
  bool on() const { return obs_ != nullptr; }

  /// Beacon ready, round started (Fig. 1 clause evaluation begins).
  void on_enter_round(uint64_t round, int64_t now);
  /// First valid proposal for `round` entered the pool.
  void on_proposal_seen(uint64_t round, int64_t now);
  /// This party proposed (clause (b)).
  void on_proposed();
  /// Round finished (clause (a)): a round-`round` notarization exists.
  /// `leader` is the rank-0 party; `leader_block` whether the notarized
  /// block is the leader's; `clean` whether N ⊆ {B} held (finalization
  /// share broadcast).
  void on_round_done(uint64_t round, uint32_t leader, bool leader_block, bool clean,
                     int64_t now);
  /// A round-`round` block finalized; `gap` = rounds since the previous
  /// finalized round (the paper's rounds-to-finalize).
  void on_finalized(uint64_t round, uint64_t gap, int64_t now);
  /// A block entered this party's output queue.
  void on_commit(uint64_t round, int64_t now);
  /// ICC2 only: the reliable-broadcast sub-layer reconstructed and delivered
  /// a full block-bearing artifact to the consensus layer.
  void on_rbc_delivered(uint64_t bytes);

 private:
  struct RoundState {
    int64_t start = -1;
    bool proposal_seen = false;
  };
  RoundState* state(uint64_t round);

  Obs* obs_ = nullptr;
  std::function<bool(uint32_t)> honesty_;

  Counter* rounds_ = nullptr;
  Counter* rounds_leader_block_ = nullptr;
  Counter* rounds_clean_ = nullptr;
  Counter* rounds_honest_leader_ = nullptr;
  Counter* rounds_corrupt_leader_ = nullptr;
  Counter* proposals_ = nullptr;
  Counter* commits_ = nullptr;
  Counter* finalized_ = nullptr;
  Counter* rbc_delivered_ = nullptr;
  Counter* rbc_bytes_ = nullptr;
  Histogram* propose_us_ = nullptr;
  Histogram* notarize_us_ = nullptr;
  Histogram* finalize_us_ = nullptr;
  Histogram* round_us_honest_ = nullptr;
  Histogram* round_us_corrupt_ = nullptr;
  Histogram* finalize_gap_ = nullptr;

  std::map<uint64_t, RoundState> round_state_;  // bounded (pruned on entry)
};

// ---------------------------------------------------------------------------
// Gossip probe (queue depth, delivery fan-out, fetch latency)
// ---------------------------------------------------------------------------

class GossipProbe {
 public:
  GossipProbe() = default;
  void attach(Obs* obs);
  bool on() const { return obs_ != nullptr; }

  void on_advert(int64_t pending_depth);
  void on_request_sent(bool retry);
  /// We uploaded an artifact to a requester (delivery fan-out).
  void on_request_served(uint64_t bytes);
  /// A pending artifact arrived; first-advert → stored is the fetch latency.
  void on_fetched(int64_t first_advert_at, int64_t now);
  /// An artifact left the store (pruned); `serves` = how many requesters we
  /// uploaded it to over its lifetime — the per-artifact delivery fan-out.
  void on_artifact_retired(uint64_t serves);
  void on_pending_depth(int64_t depth);

 private:
  Obs* obs_ = nullptr;
  Counter* adverts_ = nullptr;
  Counter* requests_ = nullptr;
  Counter* retries_ = nullptr;
  Counter* served_ = nullptr;
  Counter* served_bytes_ = nullptr;
  Gauge* pending_ = nullptr;
  Histogram* fetch_us_ = nullptr;
  Histogram* fanout_ = nullptr;  // serves per party snapshotted coarsely
};

// ---------------------------------------------------------------------------
// Network probe (in-flight depth, per-delivery delay)
// ---------------------------------------------------------------------------

/// The send path is the simulator's hottest probe site (every wire message).
/// Message/byte totals are NOT duplicated here — sim::NetworkMetrics already
/// counts them unconditionally, and the harness folds them into the registry
/// at snapshot time. The live probe only maintains what the always-on
/// accounting cannot: the in-flight depth and a delay histogram (sampled
/// 1-in-4, deterministically — link delays are strongly repetitive). The
/// sampling counters are per *sender*: each counter then advances in its
/// owner's program order, so the sampled multiset — and the histogram
/// snapshot — is identical at any thread count (a shared counter would make
/// "every 4th send" depend on how senders interleave).
class NetProbe {
 public:
  NetProbe() = default;
  void attach(Obs* obs, size_t n);
  bool on() const { return obs_ != nullptr; }

  void on_send(uint32_t from, uint64_t wire_bytes, int64_t delay_us);
  void on_deliver();

 private:
  Obs* obs_ = nullptr;
  Gauge* in_flight_ = nullptr;
  Histogram* delay_us_ = nullptr;
  std::vector<uint64_t> sample_;  ///< per-sender 1-in-4 sampling counters
};

/// Shared duration bucket layout: 100 µs … ~14 s, exponential.
std::vector<int64_t> duration_bounds();

}  // namespace icc::obs
