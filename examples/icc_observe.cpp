// icc_observe — run a fully instrumented cluster and export its telemetry.
//
//   icc_observe [options]
//     --protocol icc0|icc1|icc2      (default icc1)
//     --n <int>                      parties (default 16)
//     --t <int>                      corruption bound (default (n-1)/3)
//     --seconds <int>                virtual run time (default 20)
//     --delta-ms <int>               fixed one-way delay; 0 = WAN model (default 10)
//     --payload <bytes>              block payload size (default 4096)
//     --crash <int>                  # crashed parties (default 0)
//     --equivocate <int>             # equivocating parties (default 0)
//     --trace <path>                 Chrome trace_event output, rendered from
//                                    the event journal (default trace.json)
//     --metrics <path>               metrics snapshot output (default metrics.json)
//     --journal <path>               flight-recorder JSONL output; also runs the
//                                    offline safety audit inline (icc_audit
//                                    semantics) and folds it into the digest
//     --no-causal                    write a v1 journal without send/recv
//                                    edges (smaller; critical-path analysis
//                                    then impossible). The causal layer is
//                                    only recorded for a journal file
//     --critpath                     run the causal critical-path analysis
//                                    inline (icc_critpath semantics) and fold
//                                    the hop/latency decomposition into the
//                                    digest; implies --journal (default path
//                                    journal.jsonl if none given)
//     --runtime                      wall-clock runtime profiler
//                                    (obs/runtime.hpp): per-worker spans,
//                                    lock-wait sampling, executor health.
//                                    Writes an icc-runtime/v1 report (feed it
//                                    to tools/icc_runtime) and merges the
//                                    wall-clock worker lanes into the Chrome
//                                    trace. Output is NON-DETERMINISTIC;
//                                    journal/metrics bytes are unchanged.
//     --runtime-report <path>        report output (default runtime.json)
//     --journal-capacity <int>       journal event bound (default 1<<22 here;
//                                    the causal layer records every transfer)
//     --stage-wall-timing            wall-clock decode/verify histograms
//     --series <path>                windowed time-series stream, icc-series/v1
//                                    JSONL (obs/timeseries.hpp) — analyze with
//                                    tools/icc_drift; deterministic bytes at
//                                    any thread count
//     --window-us <int>              series window length in virtual µs
//                                    (default 1000000; only meaningful with
//                                    --series)
//     --seed <int>                   run seed, echoed in the digest so a
//                                    failing run's journal/trace can be
//                                    reproduced exactly from the CLI
//
// The journal is always recorded; the trace is rendered from it and opens
// in chrome://tracing or https://ui.perfetto.dev: one process per party,
// with consensus rounds as spans and propose/finalize instants on lane 0,
// gossip fetches and pull retries on lane 1. The metrics snapshot is a
// single JSON object; see DESIGN.md § Observability for the mapping from
// metric names to the paper's claims.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/cluster.hpp"
#include "obs/audit.hpp"
#include "obs/causal.hpp"
#include "support/json.hpp"

int main(int argc, char** argv) {
  using namespace icc;

  harness::ClusterOptions o;
  o.n = 16;
  o.t = 0;  // resolved below
  o.protocol = harness::Protocol::kIcc1;
  o.seed = 42;
  o.delta_bnd = sim::msec(600);
  o.payload_size = 4096;
  o.obs.enabled = true;
  o.obs.journal = true;  // the trace is rendered from it
  int seconds = 20;
  int delta_ms = 10;
  int crash = 0, equivocate = 0;
  // The causal layer records every wire transfer, so give the journal room
  // for long runs by default (excess events are counted, never silently
  // dropped — the meta line carries the drop count).
  o.obs.journal_capacity = size_t{1} << 22;
  const char* trace_path = "trace.json";
  const char* metrics_path = "metrics.json";
  const char* journal_path = nullptr;
  const char* runtime_path = "runtime.json";
  const char* series_path = nullptr;
  bool critpath = false;

  for (int i = 1; i < argc; ++i) {
    auto is = [&](const char* flag) { return std::strcmp(argv[i], flag) == 0; };
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (is("--protocol")) {
      const char* v = next();
      if (!std::strcmp(v, "icc0")) o.protocol = harness::Protocol::kIcc0;
      else if (!std::strcmp(v, "icc1")) o.protocol = harness::Protocol::kIcc1;
      else if (!std::strcmp(v, "icc2")) o.protocol = harness::Protocol::kIcc2;
      else {
        std::fprintf(stderr, "unknown protocol %s\n", v);
        return 2;
      }
    } else if (is("--n")) o.n = static_cast<size_t>(atoi(next()));
    else if (is("--t")) o.t = static_cast<size_t>(atoi(next()));
    else if (is("--seconds")) seconds = atoi(next());
    else if (is("--delta-ms")) delta_ms = atoi(next());
    else if (is("--payload")) o.payload_size = static_cast<size_t>(atoi(next()));
    else if (is("--crash")) crash = atoi(next());
    else if (is("--equivocate")) equivocate = atoi(next());
    else if (is("--trace")) trace_path = next();
    else if (is("--metrics")) metrics_path = next();
    else if (is("--journal")) journal_path = next();
    else if (is("--no-causal")) o.obs.journal_causal = false;
    else if (is("--runtime")) o.obs.runtime = true;
    else if (is("--runtime-report")) {
      runtime_path = next();
      o.obs.runtime = true;
    }
    else if (is("--critpath")) critpath = true;
    else if (is("--journal-capacity"))
      o.obs.journal_capacity = static_cast<size_t>(atoll(next()));
    else if (is("--stage-wall-timing")) o.obs.stage_wall_timing = true;
    else if (is("--series")) {
      series_path = next();
      o.obs.series = true;
    }
    else if (is("--window-us")) o.obs.series_window_us = atoll(next());
    else if (is("--seed")) o.seed = static_cast<uint64_t>(atoll(next()));
    else {
      std::fprintf(stderr, "unknown flag %s (see header of examples/icc_observe.cpp)\n",
                   argv[i]);
      return 2;
    }
  }
  if (o.t == 0) o.t = (o.n - 1) / 3;

  size_t corrupted = 0;
  auto assign = [&](harness::CorruptBehavior b, int count) {
    for (int j = 0; j < count && corrupted < o.n; ++j) {
      o.corrupt.emplace_back(static_cast<sim::PartyIndex>(1 + 3 * corrupted % o.n), b);
      ++corrupted;
    }
  };
  assign(harness::Crashed{}, crash);
  consensus::ByzantineBehavior eq;
  eq.equivocate = true;
  assign(eq, equivocate);

  if (delta_ms > 0) {
    o.delay_model = [delta_ms](size_t, uint64_t) {
      return std::make_unique<sim::FixedDelay>(sim::msec(delta_ms));
    };
  } else {
    o.delay_model = [](size_t n, uint64_t seed) {
      sim::WanDelay::Config wan;
      wan.n = n;
      wan.seed = seed;
      return std::make_unique<sim::WanDelay>(wan);
    };
  }

  if (critpath && journal_path == nullptr) journal_path = "journal.jsonl";
  // The causal send/recv layer is only worth its cost in a journal file.
  if (journal_path == nullptr) o.obs.journal_causal = false;

  harness::Cluster cluster(o);
  const char* proto_name = o.protocol == harness::Protocol::kIcc0   ? "ICC0"
                           : o.protocol == harness::Protocol::kIcc1 ? "ICC1"
                                                                    : "ICC2";
  std::printf("icc_observe: %s, n=%zu t=%zu, %d s virtual, seed %llu, telemetry on\n",
              proto_name, o.n, o.t, seconds,
              static_cast<unsigned long long>(o.seed));
  if (series_path != nullptr && !cluster.stream_series(series_path)) {
    std::fprintf(stderr, "cannot open series sink %s\n", series_path);
    return 1;
  }
  cluster.run_for(sim::seconds(seconds));

  // --- console digest of the key metrics ---
  const obs::Registry& r = cluster.obs()->registry();
  auto counter = [&](const char* name) -> uint64_t {
    const obs::Counter* c = r.find_counter(name);
    return c ? c->value() : 0;
  };
  const size_t honest = o.n - corrupted;
  std::printf("\nrounds reached:      %zu\n", cluster.max_honest_round());
  std::printf("blocks committed:    %zu\n", cluster.min_honest_committed());
  std::printf("rounds observed:     %lu  (clean: %lu, on leader block: %lu)\n",
              static_cast<unsigned long>(counter("consensus.rounds") / honest),
              static_cast<unsigned long>(counter("consensus.rounds_clean") / honest),
              static_cast<unsigned long>(counter("consensus.rounds_leader_block") / honest));
  if (const obs::Histogram* h = r.find_histogram("consensus.finalize_us")) {
    if (h->count() > 0)
      std::printf("finalize latency ms: p50 %.1f   p99 %.1f   max %.1f\n",
                  static_cast<double>(h->percentile(0.5)) / 1000.0,
                  static_cast<double>(h->percentile(0.99)) / 1000.0,
                  static_cast<double>(h->max()) / 1000.0);
  }
  const auto& nm = cluster.sim().network().metrics();
  std::printf("wire messages:       %lu  (%lu MB)\n",
              static_cast<unsigned long>(nm.total_messages),
              static_cast<unsigned long>(nm.total_bytes >> 20));
  if (o.intern) {
    // PHYSICAL counters: the real/hit split depends on wall-clock arrival
    // interleaving, so these numbers are non-deterministic under threads>1 —
    // never diff them across runs (unlike every metric above).
    const auto is = cluster.intern_stats();
    std::printf("intern (physical):   %lu parses, %lu decode hits, %lu real "
                "verifications, %lu memo hits, %lu primed, %lu beacon combines\n",
                static_cast<unsigned long>(is.parses),
                static_cast<unsigned long>(is.decode_hits),
                static_cast<unsigned long>(is.real_verifications),
                static_cast<unsigned long>(is.verdict_memo_hits),
                static_cast<unsigned long>(is.verdicts_primed),
                static_cast<unsigned long>(is.beacon_combines));
  }
  const obs::Journal* journal = cluster.journal();
  if (journal->dropped() > 0)
    std::fprintf(stderr,
                 "\n*** WARNING: the journal dropped %lu events — the trace (and any "
                 "audit or critical path) covers a TRUNCATED run and will look "
                 "complete in the viewer.\n"
                 "*** Re-run with --journal-capacity > %lu or a shorter --seconds.\n\n",
                 static_cast<unsigned long>(journal->dropped()),
                 static_cast<unsigned long>(journal->size() + journal->dropped()));

  // --- artifacts ---
  if (!support::json::write_file(metrics_path, cluster.metrics_json() + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", metrics_path);
    return 1;
  }
  // With --runtime the trace file carries both clocks: virtual-time party
  // tracks plus wall-clock worker lanes, in one trace_event container.
  const bool trace_ok = o.obs.runtime ? cluster.dump_runtime_trace(trace_path)
                                      : cluster.dump_trace(trace_path);
  if (!trace_ok) {
    std::fprintf(stderr, "cannot write %s\n", trace_path);
    return 1;
  }
  std::printf("\nwrote %s and %s — open the trace in chrome://tracing or ui.perfetto.dev\n",
              metrics_path, trace_path);

  // --- windowed time-series (icc-series/v1 stream) ---
  if (series_path != nullptr) {
    obs::TimeSeries* ts = cluster.series();
    ts->flush();
    std::printf("series windows:      %lu closed -> %s  (analyze with tools/icc_drift)\n",
                static_cast<unsigned long>(ts->windows_closed()), series_path);
    if (ts->dropped() > 0)
      std::fprintf(stderr,
                   "*** WARNING: %lu series lines failed to write — %s is "
                   "TRUNCATED (disk full?) and icc_drift trends over it are "
                   "unreliable.\n",
                   static_cast<unsigned long>(ts->dropped()), series_path);
  }

  // --- wall-clock runtime profile (non-deterministic by design) ---
  if (o.obs.runtime) {
    const obs::RuntimeReport rep = cluster.runtime_report();
    obs::print_runtime_summary(stdout, rep, obs::analyze_runtime(rep));
    if (!cluster.dump_runtime_report(runtime_path)) {
      std::fprintf(stderr, "cannot write %s\n", runtime_path);
      return 1;
    }
    std::printf("wrote %s — analyze with tools/icc_runtime\n", runtime_path);
  }

  // --- flight recorder + inline offline audit (icc_audit semantics) ---
  size_t audit_violations = 0;
  if (journal_path != nullptr) {
    if (!cluster.dump_journal(journal_path)) {
      std::fprintf(stderr, "cannot write %s\n", journal_path);
      return 1;
    }
    obs::AuditReport audit = obs::audit_journal(journal->events(), journal->meta(), true);
    audit_violations = audit.violations.size();
    std::printf("journal events:      %zu recorded, %lu dropped -> %s\n", journal->size(),
                static_cast<unsigned long>(journal->dropped()), journal_path);
    std::printf("audit violations:    %zu  (%lu rounds attributed, "
                "propose->finalize mean %.1f ms)\n",
                audit_violations, static_cast<unsigned long>(audit.finalized_rounds),
                static_cast<double>(audit.mean_propose_to_final_us) / 1000.0);
    for (const auto& v : audit.violations)
      std::fprintf(stderr, "audit VIOLATION %s round %lu: %s\n", v.invariant.c_str(),
                   static_cast<unsigned long>(v.round), v.detail.c_str());
  }

  // --- inline causal critical-path summary (icc_critpath semantics) ---
  bool critpath_error = false;
  if (critpath) {
    obs::Journal::Parsed parsed;
    parsed.meta = journal->meta();
    parsed.meta.dropped = journal->dropped();
    parsed.has_meta = true;
    parsed.events = journal->events();
    obs::CausalAnalyzer analyzer(std::move(parsed));
    const obs::CritPathReport& cp = analyzer.report();
    if (!cp.error.empty()) {
      std::fprintf(stderr, "critpath REJECTED: %s\n", cp.error.c_str());
      critpath_error = true;
    } else {
      std::printf("critical path:       %lu/%lu rounds complete, hops {",
                  static_cast<unsigned long>(cp.rounds_complete),
                  static_cast<unsigned long>(cp.rounds_analyzed));
      bool first = true;
      for (const auto& [hops, count] : cp.hop_histogram) {
        std::printf("%s%d: %lu", first ? "" : ", ", hops,
                    static_cast<unsigned long>(count));
        first = false;
      }
      std::printf("}\n");
      std::printf("commit latency:      p50 %.1f ms = network %.0f%% + queue %.0f%% "
                  "+ crypto %.0f%%\n",
                  static_cast<double>(cp.total.p50) / 1000.0, cp.network_share * 100.0,
                  cp.queue_share * 100.0, cp.crypto_share * 100.0);
      if (!cp.stragglers.empty()) {
        const obs::EdgeStat& s = cp.stragglers.front();
        std::printf("slowest link:        %u -> %u (%lu hops on critical paths, "
                    "max %.1f ms)\n",
                    s.from, s.to, static_cast<unsigned long>(s.count),
                    static_cast<double>(s.max_us) / 1000.0);
      }
    }
  }

  auto safety = cluster.check_safety();
  std::printf("safety:              %s\n", safety ? safety->c_str() : "OK");
  return (safety || audit_violations > 0 || critpath_error) ? 1 : 0;
}
