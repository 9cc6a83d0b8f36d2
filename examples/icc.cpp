// icc: run one simulated cluster from the command line, report on it, and
// write the telemetry artifacts asked for.
//
//   icc [flags]                       (any unknown flag prints the list)
//   icc --protocol icc2 --n 10 --crash 1 --equivocate 1 --adaptive --cup 10
//   icc --journal journal.jsonl --trace trace.json --metrics metrics.json
//   icc --protocol icc0 --n 4 --payload 256 --rounds 1000000 --series series.jsonl
//
// A plain run lasts --seconds of virtual time; --rounds N soaks instead, in
// 30 s chunks until round N, with bounded memory and the series stream
// flushed per chunk. Any of --trace, --metrics, --journal, --series or
// --runtime turns telemetry on; nothing is written unless asked for. A
// recorded journal is audited inline (obs::audit_journal); analyse the
// artifacts offline with icc_inspect. The trace opens in chrome://tracing or
// ui.perfetto.dev. --runtime output is wall-clock and NON-DETERMINISTIC;
// every other artifact is byte-identical for a seed at any ICC_THREADS.
//
// Exit status: 0 ok, 1 on a safety, P2 or audit violation, 2 on a bad flag
// or an artifact that cannot be written.
#include <chrono>
#include <cstdio>
#include <ctime>

#include "harness/cluster.hpp"
#include "harness/flags.hpp"
#include "harness/stats.hpp"
#include "obs/audit.hpp"
#include "support/json.hpp"
#include "support/proc.hpp"

namespace {

using namespace icc;

/// Soak mode: run to `target` in 30 s virtual chunks, flushing the series,
/// until the round is reached or a chunk makes no progress.
void soak(harness::Cluster& cluster, uint64_t target) {
  obs::TimeSeries* series = cluster.series();
  uint64_t prev_round = 0;
  for (uint64_t chunks = 1;; ++chunks) {
    cluster.run_for(sim::seconds(30));
    if (series) series->flush();
    const uint64_t round = cluster.max_honest_round();
    if (chunks % 20 == 0)
      std::fprintf(stderr, "  round %llu / %llu  (rss %lld MB)\n",
                   static_cast<unsigned long long>(round),
                   static_cast<unsigned long long>(target),
                   static_cast<long long>(support::proc_memory().rss_kb >> 10));
    if (round >= target) return;
    if (round == prev_round) {
      // A drained queue means every party stopped (max_round) or progress
      // halted; either way, running longer changes nothing.
      std::fprintf(stderr, "  progress stalled at round %llu of %llu; stopping\n",
                   static_cast<unsigned long long>(round),
                   static_cast<unsigned long long>(target));
      return;
    }
    prev_round = round;
  }
}

bool write(const std::string& path, bool ok) {
  if (!ok) std::fprintf(stderr, "icc: cannot write %s\n", path.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ClusterFlags f;
  std::string error;
  if (!harness::parse_cluster_flags(argc, argv, &f, &error)) {
    std::fprintf(stderr, "icc: %s\n%s", error.c_str(), harness::kClusterUsage);
    return 2;
  }
  const harness::ClusterOptions& o = f.options;
  if (o.corrupt.size() > o.t)
    std::fprintf(stderr, "warning: %zu corrupt parties exceed t = %zu; the protocol's "
                         "guarantees no longer apply (running anyway)\n", o.corrupt.size(), o.t);

  harness::Cluster cluster(o);
  for (const auto& [start, end] : f.async_windows)
    cluster.sim().network().synchrony().add_async_window(start, end);
  const char* proto = o.protocol == harness::Protocol::kIcc0   ? "ICC0"
                      : o.protocol == harness::Protocol::kIcc1 ? "ICC1"
                                                               : "ICC2";
  std::printf("icc: %s, n=%zu t=%zu, ", proto, o.n, o.t);
  if (f.rounds > 0) std::printf("soak to round %llu", static_cast<unsigned long long>(f.rounds));
  else std::printf("%lld s virtual", static_cast<long long>(f.seconds));
  std::printf(", %s crypto, seed %llu\n", o.crypto == harness::CryptoKind::kReal ? "real" : "fast",
              static_cast<unsigned long long>(o.seed));
  std::fflush(stdout);
  if (!f.series.empty() && !write(f.series, cluster.stream_series(f.series))) return 2;

  const std::clock_t cpu0 = std::clock();
  const auto wall0 = std::chrono::steady_clock::now();
  if (f.rounds > 0) soak(cluster, f.rounds);
  else cluster.run_for(sim::seconds(f.seconds));
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  const double cpu_s = static_cast<double>(std::clock() - cpu0) / CLOCKS_PER_SEC;

  // --- report ---
  const double secs = static_cast<double>(cluster.sim().engine().now()) / 1e6;
  const auto& m = cluster.sim().network().metrics();
  std::printf("\nrounds reached:       %zu\n", cluster.max_honest_round());
  std::printf("blocks committed:     %zu  (%.2f blocks/s over %.0f s virtual)\n",
              cluster.min_honest_committed(),
              static_cast<double>(cluster.min_honest_committed()) / secs, secs);
  harness::Summary latency;
  for (const auto& s : cluster.latencies()) latency.add(sim::to_ms(s.propose_to_commit));
  if (latency.count() > 0)
    std::printf("commit latency ms:    p50 %.1f   p99 %.1f   max %.1f\n",
                latency.percentile(0.5), latency.percentile(0.99), latency.max());
  std::printf("messages sent:        %lu  (%.0f /s, %lu MB)\n",
              static_cast<unsigned long>(m.total_messages),
              static_cast<double>(m.total_messages) / secs,
              static_cast<unsigned long>(m.total_bytes >> 20));
  std::printf("traffic per node:     %.2f Mb/s avg, %.2f Mb/s peak\n",
              static_cast<double>(m.total_bytes) * 8 / 1e6 / secs / static_cast<double>(o.n),
              static_cast<double>(m.max_bytes_sent()) * 8 / 1e6 / secs);
  if (o.intern) {
    // Physical counters: the real/hit split depends on wall-clock arrival
    // interleaving, so these are non-deterministic under ICC_THREADS > 1.
    const auto is = cluster.intern_stats();
    std::printf("intern (physical):    %lu parses, %lu decode hits, %lu real "
                "verifications, %lu memo hits, %lu primed, %lu beacon combines\n",
                static_cast<unsigned long>(is.parses),
                static_cast<unsigned long>(is.decode_hits),
                static_cast<unsigned long>(is.real_verifications),
                static_cast<unsigned long>(is.verdict_memo_hits),
                static_cast<unsigned long>(is.verdicts_primed),
                static_cast<unsigned long>(is.beacon_combines));
  }
  std::printf("wall / cpu:           %.1f s / %.1f s, rss %lld MB\n", wall_s, cpu_s,
              static_cast<long long>(support::proc_memory().rss_kb >> 10));

  // --- artifacts ---
  if (!f.metrics.empty() &&
      !write(f.metrics, support::json::write_file(f.metrics, cluster.metrics_json() + "\n")))
    return 2;
  // With --runtime the trace carries both clocks: virtual-time party tracks
  // plus wall-clock worker lanes, in one trace_event container.
  if (!f.trace.empty() && !write(f.trace, o.obs.runtime ? cluster.dump_runtime_trace(f.trace)
                                                        : cluster.dump_trace(f.trace)))
    return 2;
  if (obs::TimeSeries* ts = cluster.series()) {
    ts->flush();
    std::printf("series windows:       %lu closed -> %s\n",
                static_cast<unsigned long>(ts->windows_closed()), f.series.c_str());
    if (ts->dropped() > 0)
      std::fprintf(stderr, "*** WARNING: %lu series lines failed to write: %s is TRUNCATED "
                           "(disk full?) and its drift trends are unreliable.\n",
                   static_cast<unsigned long>(ts->dropped()), f.series.c_str());
  }
  if (o.obs.runtime) {
    const obs::RuntimeReport rep = cluster.runtime_report();
    obs::print_runtime_summary(stdout, rep, obs::analyze_runtime(rep));
    if (!write(f.runtime, cluster.dump_runtime_report(f.runtime))) return 2;
  }
  size_t violations = 0;
  if (const obs::Journal* journal = cluster.journal()) {
    if (journal->dropped() > 0)
      std::fprintf(stderr,
                   "*** WARNING: the journal dropped %lu events: the trace, audit and any "
                   "critical path cover a TRUNCATED run.\n*** Re-run with "
                   "--journal-capacity > %lu or a shorter --seconds.\n",
                   static_cast<unsigned long>(journal->dropped()),
                   static_cast<unsigned long>(journal->size() + journal->dropped()));
    if (!f.journal.empty() && !write(f.journal, cluster.dump_journal(f.journal))) return 2;
    const obs::AuditReport audit = obs::audit_journal(journal->events(), journal->meta(), true);
    violations = audit.violations.size();
    std::printf("journal audit:        %zu events, %zu violations, %lu rounds attributed "
                "(propose->finalize mean %.1f ms)\n",
                journal->size(), violations, static_cast<unsigned long>(audit.finalized_rounds),
                static_cast<double>(audit.mean_propose_to_final_us) / 1000.0);
    for (const auto& v : audit.violations)
      std::fprintf(stderr, "audit VIOLATION %s round %lu: %s\n", v.invariant.c_str(),
                   static_cast<unsigned long>(v.round), v.detail.c_str());
  }

  const auto safety = cluster.check_safety();
  const auto p2 = cluster.check_p2();
  std::printf("safety:               %s\n", safety ? safety->c_str() : "OK");
  std::printf("P2 (unique finality): %s\n", p2 ? p2->c_str() : "OK");
  return (safety || p2 || violations > 0) ? 1 : 0;
}
