// F-INTERN: cluster-shared artifact interning (DESIGN.md §7).
//
// In a committee of n every broadcast artifact is decoded n times and its
// signature checked n times — once per receiving party — even though both
// results are pure functions of the bytes. The intern store collapses that
// cluster-wide redundancy to ~1 parse and ~1 real signature check per
// distinct artifact, while every per-party (logical) counter, commit and
// journal byte stays identical (tests/pipeline/intern_test.cpp).
//
// This bench sweeps n with the real Ed25519/DVRF provider and reports, with
// interning on vs off: real verifications per committed block, parses per
// delivered artifact and wall-clock throughput. Counters are exact because
// the run is pinned at 1 worker thread (the verdict-memo split is benignly
// racy under a pool; see src/pipeline/intern.hpp).
//
// `--json PATH` writes the icc-bench/v1 baseline (virtual-time + counter
// values only — machine-independent, gated by ci/bench_compare.py).
// `--corrupt-smoke` instead runs a fast-crypto cluster with an equivocating
// leader and a crashed party and exits non-zero unless the intern-on run
// commits the exact (round, hash) sequence of the intern-off run.
// `--runtime` attaches the wall-clock runtime profiler (obs.runtime) to
// every leg and prints a per-leg utilization / parse / RSS line next to
// blk/s — NON-deterministic, informational only, never part of the JSON.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "harness/cluster.hpp"
#include "support/log.hpp"

namespace {

using icc::bench::BenchResult;
using icc::bench::write_bench_json;

using namespace icc;

bool g_runtime = false;

struct Leg {
  size_t blocks = 0;
  uint64_t logical_vfy = 0;  ///< per-party provider verifications (summed)
  uint64_t real_vfy = 0;     ///< crypto checks that actually ran cluster-wide
  uint64_t parses = 0;       ///< parse_message executions cluster-wide
  uint64_t decoded = 0;      ///< artifacts delivered past dedup (summed)
  double wall_s = 0;
  std::string runtime_line;  ///< --runtime: preformatted physical summary
};

Leg run_leg(size_t n, bool intern, sim::Duration sim_time) {
  harness::ClusterOptions o;
  o.n = n;
  o.t = (n - 1) / 3;
  o.seed = 42;
  o.crypto = harness::CryptoKind::kReal;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 512;
  o.record_payloads = false;
  o.prune_lag = 8;
  o.threads = 1;  // exact counters (see header comment)
  o.intern = intern;
  // --runtime: observation-only wall-clock profiling; the exact counters
  // above are unaffected (probes never mutate — tests/obs/runtime_test).
  o.obs.enabled = g_runtime;
  o.obs.runtime = g_runtime;
  o.delay_model = [](size_t, uint64_t) {
    return std::make_unique<sim::FixedDelay>(sim::msec(10));
  };

  timespec t0{}, t1{};
  clock_gettime(CLOCK_MONOTONIC, &t0);
  harness::Cluster c(o);
  c.run_for(sim_time);
  clock_gettime(CLOCK_MONOTONIC, &t1);

  Leg l;
  if (g_runtime) {
    const obs::RuntimeReport rep = c.runtime_report();
    const obs::RuntimeAnalysis a = obs::analyze_runtime(rep);
    int64_t parse_ns = 0;
    uint64_t parse_spans = 0;
    for (const auto& w : rep.workers) {
      const auto& p = w.tasks[static_cast<size_t>(obs::TaskKind::kInternParse)];
      parse_ns += p.exclusive_ns;
      parse_spans += p.count;
    }
    char buf[224];
    std::snprintf(buf, sizeof buf,
                  "       `- runtime (intern %-3s): util %5.1f %% (%s basis) | "
                  "parse %8.1f ms / %6llu spans | rss %lld kB",
                  intern ? "on" : "off", a.utilization * 100.0,
                  a.cpu_basis ? "cpu" : "wall",
                  static_cast<double>(parse_ns) / 1e6,
                  static_cast<unsigned long long>(parse_spans),
                  static_cast<long long>(rep.rss_kb));
    l.runtime_line = buf;
  }
  l.blocks = c.min_honest_committed();
  l.logical_vfy = c.verifier_stats().provider_verifications;
  l.decoded = c.pipeline_stats().decoded;
  if (intern) {
    l.real_vfy = c.intern_stats().real_verifications;
    l.parses = c.intern_stats().parses;
  } else {
    // Without the store every party does its own crypto and its own parsing:
    // the real cluster-wide work IS the logical total, and every delivered
    // artifact is one parse.
    l.real_vfy = l.logical_vfy;
    l.parses = l.decoded;
  }
  l.wall_s = static_cast<double>(t1.tv_sec - t0.tv_sec) +
             static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
  return l;
}

// Behaviour-neutrality smoke under faults, cheap enough for every CI run:
// an equivocating leader plus a crashed party, fast crypto, and the commit
// sequences of every honest party must match byte-for-byte across intern
// on/off. (The full matrix — journals, thread counts, all protocols — lives
// in tests/pipeline/intern_test.cpp; this guards the bench binary's own
// configuration path too.)
int corrupt_smoke_main() {
  auto committed = [](bool intern) {
    harness::ClusterOptions o;
    o.n = 16;
    o.t = 5;
    o.seed = 7;
    o.protocol = harness::Protocol::kIcc0;
    o.delta_bnd = sim::msec(300);
    o.payload_size = 256;
    o.intern = intern;
    o.threads = 1;
    o.delay_model = [](size_t, uint64_t) {
      return std::make_unique<sim::FixedDelay>(sim::msec(10));
    };
    consensus::ByzantineBehavior eq;
    eq.equivocate = true;
    o.corrupt = {{1, eq}, {4, harness::Crashed{}}};
    harness::Cluster c(o);
    c.run_for(sim::seconds(10));
    if (c.check_safety().has_value()) {
      std::fprintf(stderr, "corrupt-smoke: safety violation (intern %s)\n",
                   intern ? "on" : "off");
      std::exit(1);
    }
    std::vector<std::vector<std::pair<harness::Round, types::Hash>>> out;
    for (size_t i = 0; i < o.n; ++i) {
      std::vector<std::pair<harness::Round, types::Hash>> seq;
      if (c.is_honest(i) && c.party(i) != nullptr) {
        for (const auto& blk : c.party(i)->committed())
          seq.emplace_back(blk.round, blk.hash);
      }
      out.push_back(std::move(seq));
    }
    return out;
  };
  auto off = committed(false);
  auto on = committed(true);
  if (on != off) {
    std::fprintf(stderr,
                 "corrupt-smoke: FAIL — intern-on commit sequence differs from "
                 "intern-off under an equivocating leader\n");
    return 1;
  }
  size_t blocks = 0;
  for (const auto& seq : on) blocks = std::max(blocks, seq.size());
  std::printf("corrupt-smoke: OK — identical commit sequences (%zu blocks, "
              "equivocating leader + crash, intern on/off)\n", blocks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--corrupt-smoke") == 0) return corrupt_smoke_main();
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
    if (std::strcmp(argv[i], "--runtime") == 0) g_runtime = true;
  }

  std::printf("F-INTERN: cluster-shared artifact interning "
              "(ICC0, real Ed25519/DVRF, 1 thread, seed 42)\n");
  std::printf("%-6s | %-8s | %-16s | %-16s | %-8s | %-14s | %-20s\n", "n", "blocks",
              "real vfy/block", "real vfy/block", "intern", "parses per", "wall-clock blk/s");
  std::printf("%-6s | %-8s | %-16s | %-16s | %-8s | %-14s | %-20s\n", "", "",
              "  intern off", "  intern on", "speedup", "delivered", "  off -> on");
  std::printf("-------+----------+------------------+------------------+----------+"
              "----------------+---------------------\n");

  std::vector<BenchResult> results;
  bool ok = true;
  double n32_speedup = 0;
  for (size_t n : {16, 32, 64, 100}) {
    // Larger committees get a shorter window: the off leg's real crypto is
    // O(n^2) per round, and the sweep has to fit in a CI lane. n = 32 (the
    // gated point) keeps the longest window.
    const sim::Duration window =
        n == 32 ? sim::seconds(2) : n < 32 ? sim::seconds(1) : sim::msec(n == 64 ? 1000 : 500);
    Leg off = run_leg(n, false, window);
    Leg on = run_leg(n, true, window);

    // Neutrality check at bench level: virtual-time observables must agree.
    if (on.blocks != off.blocks || on.logical_vfy != off.logical_vfy ||
        on.decoded != off.decoded) {
      std::fprintf(stderr,
                   "F-INTERN: determinism violation at n=%zu: intern on/off "
                   "disagree on virtual-time observables\n", n);
      ok = false;
    }
    const double per_off =
        off.blocks ? static_cast<double>(off.real_vfy) / static_cast<double>(off.blocks) : 0;
    const double per_on =
        on.blocks ? static_cast<double>(on.real_vfy) / static_cast<double>(on.blocks) : 0;
    // Sign-and-prime seeds the shared memo at signing time, so an honest run
    // can legitimately reach *zero* real verifications — every receiver-side
    // check is answered by the signer's own priming.
    const double speedup = per_on > 0 ? per_off / per_on
                           : per_off > 0 ? std::numeric_limits<double>::infinity()
                                         : 0;
    const double parses_per =
        on.decoded ? static_cast<double>(on.parses) / static_cast<double>(on.decoded) : 0;
    if (n == 32) n32_speedup = speedup;
    std::printf("%4zu   | %8zu | %16.0f | %16.1f | %7.1fx | %14.3f | %7.1f -> %7.1f\n",
                n, on.blocks, per_off, per_on, speedup, parses_per,
                off.wall_s > 0 ? static_cast<double>(off.blocks) / off.wall_s : 0,
                on.wall_s > 0 ? static_cast<double>(on.blocks) / on.wall_s : 0);
    if (g_runtime) {
      // Line-atomic with any worker ICC_LOG output (support/log.hpp).
      std::lock_guard<std::mutex> lk(log_sink_mutex());
      std::printf("%s\n%s\n", off.runtime_line.c_str(), on.runtime_line.c_str());
    }

    std::string prefix = "n" + std::to_string(n);
    results.push_back({prefix + "/blocks", static_cast<double>(on.blocks), "count"});
    results.push_back({prefix + "/real_vfy_per_block", per_on, "count"});
    results.push_back({prefix + "/logical_vfy_per_block", per_off, "count"});
    results.push_back({prefix + "/parses_per_delivered", parses_per, "ratio"});
  }
  std::printf("\nreal vfy/block intern-off equals the per-party (logical) total: without\n"
              "the store every replica does its own crypto. Wall-clock is informational\n"
              "(host-dependent); every JSON value derives from virtual time + exact\n"
              "counters and is machine-independent.\n");

  if (!(n32_speedup >= 5.0)) {
    std::fprintf(stderr, "F-INTERN: FAIL — expected >= 5x fewer real verifications per "
                         "committed block at n=32, got %.1fx\n", n32_speedup);
    return 1;
  }
  if (!ok) return 1;
  if (json_path != nullptr) {
    if (!write_bench_json(json_path, "ingress_intern",
                          "\"protocol\":\"icc0\",\"crypto\":\"real\",\"seed\":42,\"threads\":1,"
                          "\"payload\":512,\"ns\":[16,32,64,100],\"windows_s\":[1,2,1,0.5]",
                          results)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
