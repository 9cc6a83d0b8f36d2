// perfbench — the repository benchmark. See README.md for the workloads,
// the metrics and what each layer metric is expected to move.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0): makes a fixed number of batches of repetitions,
// sized to take about S seconds, and reports the end-to-end metrics; wall
// and CPU time are the sum over virtual-time segments of the fastest
// repetition of each segment. Traced (--trace 1): alternates untraced and
// traced repetitions, runs the layer probes, and reports per-layer metrics,
// the cost ledger and the tracing overhead. Either way every repetition
// passes the correctness oracle, and all of them must agree bit for bit on
// every virtual-time observable. Human-readable lines go first; the last
// line of standard output is one JSON object. Exit status 1 when any check
// failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <malloc.h>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "workload.hpp"

namespace {

using perfbench::Metrics;

constexpr int kSetupPerRep = 4;
constexpr size_t kMinReps = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t k = v.size();
  return k % 2 ? v[k / 2] : 0.5 * (v[k / 2 - 1] + v[k / 2]);
}

/// One batch of identical repetitions, each on a fresh thread. 1-thread
/// workloads run one per core (up to 4) side by side, so every run samples
/// all of the host's cores instead of whichever one the scheduler kept it
/// on. Fresh threads also keep the runtime profiler's per-thread lane cache
/// from meeting a new profiler at a freed one's address.
std::vector<perfbench::RepResult> run_batch(const perfbench::Workload& w, uint64_t seed,
                                            bool traced) {
  const size_t copies =
      w.threads == 1 ? std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4) : 1;
  std::vector<perfbench::RepResult> out(copies);
  std::vector<std::exception_ptr> errors(copies);
  {
    std::vector<std::jthread> threads;  // joined on every path out of this scope
    for (size_t i = 0; i < copies; ++i)
      threads.emplace_back([&, i] {
        try {
          out[i] = perfbench::run_rep(w, seed, traced);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
  }
  // Hand the finished clusters' memory back, so that peak_rss_mb is the
  // footprint of one batch rather than of what the allocator kept from all
  // earlier ones (each fresh thread allocates from its own arena).
  malloc_trim(0);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return out;
}

/// Sum over the interval's virtual-time segments of the fastest
/// repetition's wall (or CPU) seconds for that segment. Repetitions are
/// bit-identical, so each segment does the same work in every one of them;
/// interference from other tenants of the host only ever adds time, and it
/// rarely hits the same segment in every repetition.
double segment_min_sum(const std::vector<perfbench::RepResult>& reps, bool cpu) {
  if (reps.empty()) return 0;
  double sum = 0;
  for (size_t k = 0; k < reps[0].segment_wall.size(); ++k) {
    double best = 1e300;
    for (const auto& r : reps) best = std::min(best, cpu ? r.segment_cpu[k] : r.segment_wall[k]);
    sum += best;
  }
  return sum;
}

/// Peak resident set of this process (VmHWM), MiB; 0 when unreadable.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool ends_with(const std::string& s, const char* suffix) {
  const size_t k = std::strlen(suffix);
  return s.size() >= k && s.compare(s.size() - k, k, suffix) == 0;
}

/// Virtual-time quantities are exact functions of (workload, seed), read
/// off the simulator clock; their unit says so, to keep them apart from
/// wall-clock measurements.
const char* unit_for(const std::string& name) {
  static const char* const kVirtualMs[] = {
      "commit_latency_p50_ms", "commit_latency_p90_ms", "cmd_latency_p50_ms",
      "cmd_latency_p99_ms",    "outage_ms",             "consensus.round_ms_p50",
      "consensus.round_ms_p90_corrupt_leader",          "gossip.fetch_ms_p50"};
  for (const char* v : kVirtualMs)
    if (name == v) return "virtual_ms";
  if (name == "virtual_blocks_per_s") return "blk/virtual_s";
  if (name == "setup_s") return "s";
  if (name == "wall_blocks_per_s") return "blk/s";
  if (name == "peak_rss_mb") return "MiB";
  if (name == "obs.trace_overhead_pct") return "%";
  if (ends_with(name, "_mb_s")) return "MB/s";
  if (ends_with(name, "_us") || ends_with(name, "_us_per_block") ||
      ends_with(name, "_us_per_block_replica"))
    return "us";
  if (ends_with(name, "_ns") || ends_with(name, "_ns_p50")) return "ns";
  if (name.find("bytes") != std::string::npos && ends_with(name, "_per_block")) return "B/block";
  if (ends_with(name, "_per_block")) return "1/block";
  if (ends_with(name, "_ratio") || ends_with(name, "_share") || ends_with(name, "_fraction") ||
      ends_with(name, "_per_delivered") ||
      name == "support.utilization")
    return "ratio";
  return "count";
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : "-1e308";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// FNV-1a over the exact bytes of every virtual-time value, for the
/// cross-process check in run.py.
std::string digest(const Metrics& vt) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& [k, v] : vt) {
    const std::string s = k + "=" + fmt(v) + ";";
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Outside-in cost ledger: calls per block (the traced run's counters)
/// times cost per call (the probes), per layer, as a share of the measured
/// process CPU per committed block. An estimate: where the counters do not
/// split calls by kind, the ICC per-round artifact mix (per party one
/// notarization share, one finalization share and one beacon share; one
/// proposal per round) weights the probe costs.
Metrics ledger(const perfbench::Workload& w, const Metrics& L, const Metrics& P,
               double cpu_us_per_block_replica) {
  const auto g = [](const Metrics& m, const char* k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const double n = static_cast<double>(w.n);
  const double honest = w.payload == 0 ? n - 1 : n;
  const double measured = cpu_us_per_block_replica * n;

  const double verify_mix = (g(P, "crypto.verify_sig_us") + 2 * n * g(P, "crypto.verify_share_us") +
                             n * g(P, "crypto.verify_beacon_share_us")) /
                            (3 * n + 1);
  const double sign_mix = (2 * g(P, "crypto.sign_us") + g(P, "crypto.sign_beacon_share_us")) / 3;
  const double crypto_us =
      g(L, "crypto.real_verifications_per_block") * verify_mix +
      g(L, "pipeline.primed_per_block") * sign_mix +
      g(L, "consensus.party_rounds_per_block") *
          (2 * g(P, "crypto.combine_multisig_us") + g(P, "crypto.combine_beacon_us"));

  // Verdict-cache keys are small hashes; dedup ids hash the whole wire
  // message, once per delivery, or once per distinct payload plus a
  // fingerprint pass per delivery when interning.
  const double small_hash_us = g(P, "crypto.sha256_small_ns") / 1e3;
  const double msg_bytes =
      g(L, "sim.bytes_per_block") / std::max(g(L, "sim.messages_per_block"), 1.0);
  const double msg_hash_us = msg_bytes / std::max(g(P, "crypto.sha256_mb_s"), 1e-9);
  const double delivered = g(L, "pipeline.delivered_per_block");
  const double pipeline_us =
      (g(L, "pipeline.verify_checks_per_block") + g(L, "pipeline.primed_per_block")) *
          small_hash_us +
      (delivered + (w.intern ? g(L, "pipeline.parses_per_block") : 0)) * msg_hash_us;

  // Each party parses each proposal once (dedup runs first); interning
  // parses it once per cluster; ICC2 parses the block RBC reconstructs.
  const double block_parses =
      w.intern ? 1 : (w.protocol == perfbench::Protocol::kIcc2 ? g(L, "rbc.deliveries_per_block")
                                                               : honest);
  const double small_parses = std::max(0.0, g(L, "pipeline.parses_per_block") - block_parses);
  const double types_us = small_parses * g(P, "types.parse_share_ns") / 1e3 +
                          block_parses * g(P, "types.parse_block_us");

  const double codec_us =
      w.protocol == perfbench::Protocol::kIcc2
          ? g(P, "codec.rs_encode_us") + g(P, "codec.merkle_build_us") +
                g(L, "rbc.deliveries_per_block") * g(P, "codec.rs_decode_us") +
                honest * n * g(P, "codec.merkle_verify_us")
          : 0;
  const double sim_us = g(L, "sim.messages_per_block") *
                        (g(L, "sim.delay_model_ns") + g(P, "sim.engine_event_ns")) / 1e3;
  const double smr_us = g(L, "smr.build_apply_us_per_block");

  Metrics m;
  const double base = std::max(measured, 1e-9);
  m["ledger.measured_us_per_block"] = measured;
  m["ledger.crypto_share"] = crypto_us / base;
  m["ledger.pipeline_share"] = pipeline_us / base;
  m["ledger.types_share"] = types_us / base;
  m["ledger.codec_share"] = codec_us / base;
  m["ledger.sim_share"] = sim_us / base;
  m["ledger.smr_share"] = smr_us / base;
  m["ledger.unattributed_share"] =
      1 - (crypto_us + pipeline_us + types_us + codec_us + sim_us + smr_us) / base;
  return m;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads: %s\n",
               argv0, perfbench::workload_names().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    char* end = nullptr;
    if (flag == "--workload") {
      name = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], &end);
      if (*end != '\0') seconds = 0;
    } else if (flag == "--trace") {
      trace = std::strcmp(argv[i + 1], "0") == 0 ? 0 : std::strcmp(argv[i + 1], "1") == 0 ? 1 : -1;
    } else {
      return usage(argv[0]);
    }
  }
  const perfbench::Workload* w = perfbench::find_workload(name);
  if (w == nullptr || !have_seed || !(seconds > 0) || trace < 0 || argc % 2 == 0)
    return usage(argv[0]);

  std::string error;
  uint64_t attempted = 0, failed = 0;
  std::vector<perfbench::RepResult> untraced, traced;
  std::optional<Metrics> reference_vt;  ///< the first repetition's
  double payload_mean = 0;
  // Every repetition, traced or not, passes the oracle and reproduces the
  // first repetition's virtual-time observables exactly.
  const auto check = [&](const perfbench::RepResult& r, const char* kind, size_t index) {
    attempted += r.attempted;
    failed += r.failed;
    std::printf("rep %zu (%s): %llu blocks, wall %.3f s, cpu %.3f s, setup %.4f s%s%s\n", index,
                kind, static_cast<unsigned long long>(r.blocks), r.wall_s, r.cpu_s, r.setup_s,
                r.error.empty() ? "" : ", FAILED: ", r.error.c_str());
    std::fflush(stdout);
    if (!r.error.empty() && error.empty()) error = r.error;
    if (!reference_vt) {
      reference_vt = r.vt;
      payload_mean = r.payload_mean;
    } else if (r.vt != *reference_vt && error.empty()) {
      error = std::string("virtual-time observables differ between repetitions (") + kind + ")";
    }
  };

  std::vector<double> setups;
  Metrics out;
  try {
    // A traced run alternates untraced and traced batches in the same time.
    const auto batches =
        static_cast<size_t>(std::lround(seconds / w->batch_seconds / (trace == 1 ? 2 : 1)));
    for (size_t b = 0; b < batches || untraced.size() < kMinReps; ++b) {
      // Set-up samples are spread over the run, so that their median does
      // not hang on whatever else the host was doing in one moment.
      for (int i = 0; i < kSetupPerRep; ++i) setups.push_back(perfbench::time_setup(*w, seed));
      for (auto& r : run_batch(*w, seed, false)) {
        untraced.push_back(std::move(r));
        check(untraced.back(), "untraced", untraced.size());
      }
      if (trace == 1) {
        for (auto& r : run_batch(*w, seed, true)) {
          traced.push_back(std::move(r));
          check(traced.back(), "traced", traced.size());
        }
      }
      if (!error.empty()) break;
    }
  } catch (const std::exception& e) {
    error = std::string("exception: ") + e.what();
  }

  const double blocks = untraced.empty() ? 0 : static_cast<double>(untraced[0].blocks);
  const double n = static_cast<double>(w->n);
  const auto cpu_per_block = [&](const std::vector<perfbench::RepResult>& reps) {
    return blocks > 0 ? segment_min_sum(reps, true) * 1e6 / blocks / n : 0.0;
  };
  const double cpu_us = cpu_per_block(untraced);
  std::vector<double> rep_blk_s, rep_cpu_us;
  for (const auto& r : untraced) {
    setups.push_back(r.setup_s);
    if (r.blocks == 0) continue;
    rep_blk_s.push_back(static_cast<double>(r.blocks) / r.wall_s);
    rep_cpu_us.push_back(r.cpu_s * 1e6 / static_cast<double>(r.blocks) / n);
  }
  std::printf("median over repetitions: %.4f blk/s, %.4f us cpu per block per replica\n",
              median(rep_blk_s), median(rep_cpu_us));

  if (trace == 0) {
    out["setup_s"] = median(setups);
    const double wall = segment_min_sum(untraced, false);
    out["wall_blocks_per_s"] = wall > 0 ? blocks / wall : 0;
    out["cpu_us_per_block_replica"] = cpu_us;
    out["peak_rss_mb"] = peak_rss_mb();
  } else if (error.empty() && reference_vt) {
    try {
      perfbench::ProbeInput in;
      in.n = w->n;
      in.t = w->t;
      in.real_crypto = w->real_crypto;
      in.seed = seed;
      in.payload = static_cast<size_t>(std::llround(payload_mean));
      const Metrics probes = perfbench::run_probes(in);
      std::map<std::string, std::vector<double>> samples;
      for (const auto& r : traced)
        for (const auto& [k, v] : r.layer) samples[k].push_back(v);
      Metrics layers;
      for (const auto& [k, v] : samples) layers[k] = median(v);
      out = layers;
      out.insert(probes.begin(), probes.end());
      const Metrics led = ledger(*w, layers, probes, cpu_us);
      out.insert(led.begin(), led.end());
      out.insert(reference_vt->begin(), reference_vt->end());
      out["obs.trace_overhead_pct"] = (cpu_per_block(traced) / cpu_us - 1) * 100;
    } catch (const std::exception& e) {
      error = std::string("exception: ") + e.what();
    }
  }

  std::printf("workload %s seed %llu: %zu untraced + %zu traced repetitions\n", w->name,
              static_cast<unsigned long long>(seed), untraced.size(), traced.size());
  if (reference_vt) {
    for (const auto& [k, v] : *reference_vt)
      std::printf("  %-40s %14.4f %s\n", k.c_str(), v, unit_for(k));
    std::printf("vt-digest %s\n", digest(*reference_vt).c_str());
  }
  for (const auto& [k, v] : out) std::printf("  %-40s %14.4f %s\n", k.c_str(), v, unit_for(k));
  if (!error.empty()) std::printf("CHECK FAILED: %s\n", error.c_str());

  std::string json = "{\"correct\": ";
  json += error.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(error.empty() ? failed : std::max<uint64_t>(failed, 1));
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : out) {
    json += (first ? "\"" : ", \"") + k + "\": {\"value\": " + fmt(v) + ", \"unit\": \"" +
            unit_for(k) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return error.empty() ? 0 : 1;
}
