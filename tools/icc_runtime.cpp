// icc_runtime: offline analyzer for icc-runtime/v1 wall-clock profiles.
//
// Reads a JSON report produced by the obs::RuntimeProfiler (harness::Cluster
// with ClusterOptions::obs.runtime, or examples/icc_observe --runtime) and
// prints the parallel-efficiency analysis: per-worker utilization, the
// single-run serial fraction with its Amdahl-law projected max speedup, the
// lock-contention hot-list (site × total wait × holders) and the top-k task
// kinds by exclusive wall time.
//
//   icc_runtime <runtime.json> [--top <k>] [--check] [--quiet]
//
// --check additionally asserts the analysis is sane (serial fraction in
// (0, 1], utilization in (0, 1], positive wall time) — the CI smoke gate.
//
// Exit status: 0 on success, 1 when --check fails, 2 on usage/I/O errors or
// malformed/truncated report input. The numbers in a report are wall-clock
// and NON-DETERMINISTIC (obs/runtime.hpp): comparing them across runs or
// thread counts measures the machine, not the code.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/runtime.hpp"
#include "support/json.hpp"

namespace {

namespace json = icc::support::json;

int usage() {
  std::fprintf(stderr, "usage: icc_runtime <runtime.json> [--top <k>] [--check] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path;
  size_t top_k = 5;
  bool check = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top_k = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (report_path.empty()) {
      report_path = argv[i];
    } else {
      return usage();
    }
  }
  if (report_path.empty()) return usage();

  std::string text;
  if (!json::read_file(report_path, &text)) {
    std::fprintf(stderr, "icc_runtime: cannot read %s\n", report_path.c_str());
    return 2;
  }

  std::string error;
  auto report = icc::obs::parse_runtime_report(text, &error);
  if (!report) {
    std::fprintf(stderr, "icc_runtime: malformed report: %s\n", error.c_str());
    return 2;
  }

  const icc::obs::RuntimeAnalysis analysis = icc::obs::analyze_runtime(*report);

  if (!quiet) {
    icc::obs::print_runtime_summary(stdout, *report, analysis);

    // Top-k task kinds by exclusive wall time, summed over workers.
    struct Top {
      icc::obs::TaskKind kind;
      icc::obs::TaskAgg total;
    };
    std::vector<Top> tops;
    for (size_t k = 0; k < icc::obs::kTaskKinds; ++k) {
      Top t{static_cast<icc::obs::TaskKind>(k), {}};
      for (const auto& w : report->workers) {
        const auto& agg = w.tasks[k];
        t.total.count += agg.count;
        t.total.total_ns += agg.total_ns;
        t.total.exclusive_ns += agg.exclusive_ns;
        t.total.max_ns = std::max(t.total.max_ns, agg.max_ns);
      }
      if (t.total.count > 0) tops.push_back(t);
    }
    std::sort(tops.begin(), tops.end(), [](const Top& a, const Top& b) {
      return a.total.exclusive_ns > b.total.exclusive_ns;
    });
    if (tops.size() > top_k) tops.resize(top_k);
    std::printf("top task kinds by exclusive wall time:\n");
    for (const Top& t : tops) {
      std::printf("  %-16s %10llu spans  excl %9.3f ms  incl %9.3f ms  max %7.3f ms\n",
                  icc::obs::task_kind_name(t.kind),
                  static_cast<unsigned long long>(t.total.count),
                  static_cast<double>(t.total.exclusive_ns) * 1e-6,
                  static_cast<double>(t.total.total_ns) * 1e-6,
                  static_cast<double>(t.total.max_ns) * 1e-6);
    }
    std::printf("amdahl projection: S(2)=%.2fx S(4)=%.2fx S(8)=%.2fx S(inf)=%.2fx "
                "(parallel-region share %.0f%%)\n",
                analysis.projected_speedup(2), analysis.projected_speedup(4),
                analysis.projected_speedup(8), analysis.amdahl_max,
                analysis.parallel_region_share * 100.0);
    if (report->has_intern) {
      std::printf("intern (physical, non-deterministic): parses %llu, decode hits %llu, "
                  "real verifications %llu, memo hits %llu, primed %llu\n",
                  static_cast<unsigned long long>(report->intern_parses),
                  static_cast<unsigned long long>(report->intern_decode_hits),
                  static_cast<unsigned long long>(report->intern_real_verifications),
                  static_cast<unsigned long long>(report->intern_memo_hits),
                  static_cast<unsigned long long>(report->intern_primed));
    }
    if (report->rss_kb >= 0) {
      std::printf("rss: %lld kB (peak %lld kB), defer high-water %llu\n",
                  static_cast<long long>(report->rss_kb),
                  static_cast<long long>(report->peak_rss_kb),
                  static_cast<unsigned long long>(report->defer_high_water));
    }
  }

  if (check) {
    const bool ok = report->wall_ns > 0 && analysis.serial_fraction > 0.0 &&
                    analysis.serial_fraction <= 1.0 && analysis.utilization > 0.0 &&
                    analysis.utilization <= 1.0 && !report->workers.empty();
    if (!ok) {
      std::fprintf(stderr,
                   "icc_runtime: check FAILED (wall_ns=%lld serial=%.6f util=%.6f "
                   "workers=%zu)\n",
                   static_cast<long long>(report->wall_ns), analysis.serial_fraction,
                   analysis.utilization, report->workers.size());
      return 1;
    }
    if (!quiet) std::printf("check OK: serial fraction %.4f in (0,1]\n", analysis.serial_fraction);
  }
  return 0;
}
