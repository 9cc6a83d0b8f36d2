// icc_inspect: offline analysis of the artifacts a cluster run writes. It
// links only the telemetry library, never the harness: an auditor needs
// nothing but the file.
//
//   icc_inspect audit    <journal.jsonl> [--report <out.json>] [--csv <out.csv>] [--quiet]
//   icc_inspect critpath <journal.jsonl> [--report <out.json>] [--dot <out.dot>]
//                        [--dot-round <r>] [--check-hops [n]] [--quiet]
//   icc_inspect runtime  <runtime.json> [--top <k>] [--check] [--quiet]
//   icc_inspect drift    <series.jsonl> [--check] [--quiet] [--head-tail <k>]
//
// audit     replays a journal through obs::audit_journal and prints the
//           icc-audit/v1 report; --csv writes one row per finalized round.
//           See obs/audit.hpp for the invariant-to-lemma mapping.
// critpath  rebuilds the causal happens-before DAG of an icc-journal/v2
//           journal and prints the icc-critpath/v1 report: each finalized
//           round's critical path from the leader's propose to the first
//           finalized event, with commit latency split into network /
//           crypto / queue time (obs/causal.hpp). --dot draws one round
//           (default: the first complete one), critical path in red.
//           --check-hops asserts every complete round has exactly n network
//           hops; without n, the protocol's (icc0/icc1 -> 3, icc2 -> 4: the
//           paper's 3δ/4δ claims).
// runtime   prints the parallel-efficiency analysis of an icc-runtime/v1
//           report: per-worker utilization, the serial fraction and its
//           Amdahl bound, lock contention and the top-k task kinds by
//           exclusive wall time. --check asserts serial fraction and
//           utilization in (0, 1] and a positive wall time. Its numbers are
//           wall-clock: comparing them across runs measures the machine.
// drift     looks for slow failures across the windows of an icc-series/v1
//           stream and prints one icc-drift/v1 document (the summary goes
//           to stderr unless --quiet). Detectors without enough data report
//           "skipped", never "fail":
//     rss          Theil-Sen slope of the wall lines' RSS; fails when the
//                  projected growth over the run leaves max(64 MiB, 25% of
//                  the median RSS). Skipped without wall lines.
//     latency      head-k vs tail-k medians of the window p50s and p99s of
//                  consensus.finalize_us; fails on > 25% and > 1 ms creep.
//     leaders      chi-square uniformity of honest-leader counts (corrupt
//                  slots from the meta line excluded); fails at p < 1e-3.
//     finalize_gap head vs tail mean finalize gap; fails on > 50% and
//                  > 0.5 rounds.
//
// Exit status, every subcommand: 0 ok; 1 a finding (an invariant violation,
// a causal-validation error, a failed hop check or --check); 2 a usage or
// I/O error or malformed input (stderr names the line).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/causal.hpp"
#include "obs/runtime.hpp"
#include "obs/timeseries.hpp"
#include "support/args.hpp"
#include "support/json.hpp"

namespace {

namespace json = icc::support::json;
namespace obs = icc::obs;

/// One subcommand's command line: the input file, its text, and the flags.
struct Input {
  const char* name = nullptr;
  std::string path, text;
  std::string report, csv, dot;
  std::optional<int64_t> dot_round, hops;
  size_t top = 5, head_tail = 0;  // head_tail 0 = max(8, windows / 10)
  bool quiet = false, check = false, check_hops = false;
};

/// Prints `icc_inspect <subcommand>: what` to stderr; returns `code`.
int say(const Input& in, int code, const std::string& what) {
  std::fprintf(stderr, "icc_inspect %s: %s\n", in.name, what.c_str());
  return code;
}

bool write(const Input& in, const std::string& path, const std::string& text) {
  if (path.empty() || json::write_file(path, text)) return true;
  say(in, 2, "cannot write " + path);
  return false;
}

int audit(const Input& in) {
  const obs::AuditReport report = obs::audit_jsonl(in.text);
  if (!report.error.empty()) return say(in, 2, in.path + ": " + report.error);
  if (!in.quiet) std::printf("%s\n", report.to_json().c_str());
  if (!write(in, in.report, report.to_json() + "\n") || !write(in, in.csv, report.rounds_csv()))
    return 2;
  for (const auto& v : report.violations)
    say(in, 1, "VIOLATION " + v.invariant + " round " + std::to_string(v.round) + ": " + v.detail);
  return report.ok() ? 0 : 1;
}

int critpath(const Input& in) {
  obs::Journal::Parsed parsed = obs::Journal::parse_jsonl(in.text);
  if (!parsed.error.empty()) return say(in, 2, in.path + ": " + parsed.error);
  const obs::CausalAnalyzer analyzer(std::move(parsed));
  const obs::CritPathReport& report = analyzer.report();
  if (!in.quiet) std::printf("%s\n", report.to_json().c_str());
  if (!write(in, in.report, report.to_json() + "\n")) return 2;
  if (!report.error.empty()) return say(in, 1, "REJECTED " + report.error);
  if (!in.dot.empty()) {
    int64_t round = in.dot_round.value_or(-1);
    for (const obs::RoundPath& rp : report.rounds)
      if (round < 0 && rp.complete) round = rp.round;
    if (round < 0) return say(in, 1, "no complete round to render");
    if (!write(in, in.dot, analyzer.to_dot(static_cast<uint64_t>(round)))) return 2;
  }
  if (in.check_hops) {
    const int expect = in.hops ? static_cast<int>(*in.hops)
                               : obs::CritPathReport::expected_hops(report.meta.protocol);
    if (expect < 0)
      return say(in, 2, "--check-hops needs a value (protocol \"" + report.meta.protocol +
                             "\" has no known hop count)");
    std::string violation;
    if (!report.check_hops(expect, &violation)) return say(in, 1, "HOP-CHECK FAILED " + violation);
    if (!in.quiet)
      say(in, 0, "hop check ok (" + std::to_string(report.rounds_complete) +
                      " complete rounds, " + std::to_string(expect) + " hops)");
  }
  return 0;
}

int runtime(const Input& in) {
  std::string error;
  const auto report = obs::parse_runtime_report(in.text, &error);
  if (!report) return say(in, 2, "malformed report: " + error);
  const obs::RuntimeAnalysis analysis = obs::analyze_runtime(*report);
  if (!in.quiet) {
    obs::print_runtime_summary(stdout, *report, analysis);
    // Top-k task kinds by exclusive wall time, summed over workers.
    std::vector<std::pair<obs::TaskKind, obs::TaskAgg>> tops;
    for (size_t k = 0; k < obs::kTaskKinds; ++k) {
      obs::TaskAgg total;
      for (const auto& w : report->workers) {
        total.count += w.tasks[k].count;
        total.total_ns += w.tasks[k].total_ns;
        total.exclusive_ns += w.tasks[k].exclusive_ns;
        total.max_ns = std::max(total.max_ns, w.tasks[k].max_ns);
      }
      if (total.count > 0) tops.emplace_back(static_cast<obs::TaskKind>(k), total);
    }
    std::sort(tops.begin(), tops.end(), [](const auto& a, const auto& b) {
      return a.second.exclusive_ns > b.second.exclusive_ns;
    });
    tops.resize(std::min(tops.size(), in.top));
    std::printf("top task kinds by exclusive wall time:\n");
    for (const auto& [kind, t] : tops)
      std::printf("  %-16s %10llu spans  excl %9.3f ms  incl %9.3f ms  max %7.3f ms\n",
                  obs::task_kind_name(kind), static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.exclusive_ns) * 1e-6,
                  static_cast<double>(t.total_ns) * 1e-6, static_cast<double>(t.max_ns) * 1e-6);
    std::printf("amdahl projection: S(2)=%.2fx S(4)=%.2fx S(8)=%.2fx S(inf)=%.2fx "
                "(parallel-region share %.0f%%)\n",
                analysis.projected_speedup(2), analysis.projected_speedup(4),
                analysis.projected_speedup(8), analysis.amdahl_max,
                analysis.parallel_region_share * 100.0);
    if (report->has_intern)
      std::printf("intern (physical, non-deterministic): parses %llu, decode hits %llu, "
                  "real verifications %llu, memo hits %llu, primed %llu\n",
                  static_cast<unsigned long long>(report->intern_parses),
                  static_cast<unsigned long long>(report->intern_decode_hits),
                  static_cast<unsigned long long>(report->intern_real_verifications),
                  static_cast<unsigned long long>(report->intern_memo_hits),
                  static_cast<unsigned long long>(report->intern_primed));
    if (report->rss_kb >= 0)
      std::printf("rss: %lld kB (peak %lld kB), defer high-water %llu\n",
                  static_cast<long long>(report->rss_kb),
                  static_cast<long long>(report->peak_rss_kb),
                  static_cast<unsigned long long>(report->defer_high_water));
  }
  if (!in.check) return 0;
  if (report->wall_ns <= 0 || analysis.serial_fraction <= 0.0 ||
      analysis.serial_fraction > 1.0 || analysis.utilization <= 0.0 ||
      analysis.utilization > 1.0 || report->workers.empty()) {
    char why[160];
    std::snprintf(why, sizeof(why), "check FAILED (wall_ns=%lld serial=%.6f util=%.6f workers=%zu)",
                  static_cast<long long>(report->wall_ns), analysis.serial_fraction,
                  analysis.utilization, report->workers.size());
    return say(in, 1, why);
  }
  if (!in.quiet) std::printf("check OK: serial fraction %.4f in (0,1]\n", analysis.serial_fraction);
  return 0;
}

// --- drift ------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2.0;
}

/// Theil-Sen estimator: median of all pairwise slopes, over at most 1024
/// evenly subsampled points so the pair count stays bounded.
double theil_sen_slope(const std::vector<std::pair<double, double>>& all) {
  std::vector<std::pair<double, double>> pts = all;
  if (all.size() > 1024) {
    pts.clear();
    const double step = static_cast<double>(all.size() - 1) / 1023.0;
    for (size_t i = 0; i < 1024; ++i)
      pts.push_back(all[static_cast<size_t>(std::lround(step * static_cast<double>(i)))]);
  }
  std::vector<double> slopes;
  for (size_t i = 0; i < pts.size(); ++i)
    for (size_t j = i + 1; j < pts.size(); ++j)
      if (const double dx = pts[j].first - pts[i].first; dx != 0.0)
        slopes.push_back((pts[j].second - pts[i].second) / dx);
  return median(std::move(slopes));
}

/// Regularized upper incomplete gamma Q(a, x); the chi-square survival
/// function is Q(df/2, chi2/2). Series below a+1, Lentz continued fraction
/// above.
double gamma_q(double a, double x) {
  if (a <= 0.0 || x <= 0.0) return 1.0;
  const double log_prefix = -x + a * std::log(x) - std::lgamma(a);
  if (x < a + 1.0) {
    double ap = a, sum = 1.0 / a, del = sum;
    for (int i = 0; i < 500 && std::fabs(del) >= std::fabs(sum) * 1e-14; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
    }
    return 1.0 - sum * std::exp(log_prefix);
  }
  double b = x + 1.0 - a, c = 1e300, d = 1.0 / b, h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::fabs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-14) break;
  }
  return std::exp(log_prefix) * h;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

struct Detector {
  explicit Detector(const char* n) : name(n) {}

  std::string name;
  std::string status = "skipped";  // ok | fail | skipped
  std::string detail;              // extra JSON fields, each led by ','
  std::string why;                 // one-line summary

  void judge(bool failed, std::string summary) {
    status = failed ? "fail" : "ok";
    why = std::move(summary);
  }
  void field(const char* key, double v) { detail += ",\"" + std::string(key) + "\":" + num(v); }
};

template <typename... T>
std::string format(const char* fmt, T... args) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

/// Window snapshots of histogram `name`, windows without samples skipped.
std::vector<obs::SeriesHist> hist_series(const obs::TimeSeries::Parsed& p, const char* name) {
  std::vector<obs::SeriesHist> out;
  for (const auto& w : p.windows) {
    const auto h = std::find_if(w.hists.begin(), w.hists.end(),
                                [&](const auto& nh) { return nh.first == name; });
    if (h != w.hists.end() && h->second.count > 0) out.push_back(h->second);
  }
  return out;
}

/// Medians of the first and last k values.
std::pair<double, double> head_tail(const std::vector<double>& v, size_t k) {
  const auto kk = static_cast<ptrdiff_t>(k);
  return {median({v.begin(), v.begin() + kk}), median({v.end() - kk, v.end()})};
}

int drift(const Input& in) {
  const obs::TimeSeries::Parsed p = obs::TimeSeries::parse_jsonl(in.text);
  if (!p.error.empty()) return say(in, 2, in.path + ": " + p.error);
  if (p.windows.empty()) return say(in, 2, in.path + ": no windows");
  const size_t windows = p.windows.size();
  const size_t k = std::min(in.head_tail != 0 ? in.head_tail : std::max<size_t>(8, windows / 10),
                            windows / 2);
  std::vector<Detector> dets{Detector("rss"), Detector("latency"), Detector("leaders"),
                             Detector("finalize_gap")};

  Detector& rss = dets[0];
  if (p.wall.size() < 8) {
    rss.why = p.meta.wall ? "fewer than 8 wall samples" : "series recorded without wall lines";
  } else {
    std::vector<std::pair<double, double>> pts;
    std::vector<double> kb;
    for (const auto& w : p.wall) {
      pts.emplace_back(static_cast<double>(w.seq), static_cast<double>(w.rss_kb));
      kb.push_back(static_cast<double>(w.rss_kb));
    }
    const double slope = theil_sen_slope(pts);  // kB per window
    const double projected = slope * (pts.back().first - pts.front().first);
    const double med = median(std::move(kb));
    const double band = std::max(65536.0, 0.25 * med);
    rss.judge(projected > band,
              format("slope %.3f kB/window, projected %+.0f kB over %zu windows (band %.0f kB)",
                     slope, projected, p.wall.size(), band));
    rss.field("slope_kb_per_window", slope);
    rss.field("projected_growth_kb", projected);
    rss.field("median_rss_kb", med);
    rss.field("band_kb", band);
  }

  Detector& latency = dets[1];
  std::vector<double> p50s, p99s;
  for (const obs::SeriesHist& h : hist_series(p, "consensus.finalize_us")) {
    p50s.push_back(static_cast<double>(h.p50));
    p99s.push_back(static_cast<double>(h.p99));
  }
  if (p50s.size() < 16) {
    latency.why = "fewer than 16 windows with finalize_us samples";
  } else {
    const size_t kk = std::min(k, p50s.size() / 2);
    const auto [h50, t50] = head_tail(p50s, kk);
    const auto [h99, t99] = head_tail(p99s, kk);
    const auto creep = [](double h, double t) { return t > h * 1.25 && t - h > 1000.0; };
    latency.judge(creep(h50, t50) || creep(h99, t99),
                  format("p50 %.0f->%.0f us, p99 %.0f->%.0f us over first/last %zu windows",
                         h50, t50, h99, t99, kk));
    latency.field("head_p50_us", h50);
    latency.field("tail_p50_us", t50);
    latency.field("head_p99_us", h99);
    latency.field("tail_p99_us", t99);
    latency.detail += ",\"k\":" + std::to_string(kk);
  }

  Detector& leaders = dets[2];
  const std::set<uint32_t> corrupt(p.meta.corrupt.begin(), p.meta.corrupt.end());
  std::vector<double> counts(p.meta.n, 0.0);
  for (const auto& w : p.windows)
    for (const auto& [party, c] : w.leaders)
      if (party < counts.size()) counts[party] += static_cast<double>(c);
  std::vector<double> honest;
  for (uint32_t party = 0; party < counts.size(); ++party)
    if (corrupt.count(party) == 0) honest.push_back(counts[party]);
  double total = 0;
  for (double c : honest) total += c;
  if (honest.size() < 2 || total < 1000.0) {
    leaders.why = "fewer than 1000 honest-leader rounds";
  } else {
    // The beacon permutes uniformly over all n slots, so each honest slot
    // expects an equal share of the rounds honest parties led.
    const double expect = total / static_cast<double>(honest.size());
    double chi2 = 0;
    for (double c : honest) chi2 += (c - expect) * (c - expect) / expect;
    const double df = static_cast<double>(honest.size() - 1);
    const double pv = gamma_q(df / 2.0, chi2 / 2.0);
    leaders.judge(pv < 1e-3, format("chi2 %.2f (df %.0f) over %.0f rounds, p=%.3g", chi2, df,
                                    total, pv));
    leaders.field("chi2", chi2);
    leaders.field("df", df);
    leaders.field("rounds", total);
    leaders.field("p_value", pv);
  }

  Detector& gap = dets[3];
  std::vector<double> means;
  for (const obs::SeriesHist& h : hist_series(p, "consensus.finalize_gap_rounds"))
    means.push_back(static_cast<double>(h.sum) / static_cast<double>(h.count));
  if (means.size() < 16) {
    gap.why = "fewer than 16 windows with finalize_gap samples";
  } else {
    const size_t kk = std::min(k, means.size() / 2);
    const auto [head, tail] = head_tail(means, kk);
    gap.judge(tail > head * 1.5 && tail - head > 0.5,
              format("mean gap %.2f -> %.2f rounds over first/last %zu windows", head, tail, kk));
    gap.field("head_mean", head);
    gap.field("tail_mean", tail);
    gap.detail += ",\"k\":" + std::to_string(kk);
  }

  std::string failed, names;
  std::string out = "{\"schema\":\"icc-drift/v1\",\"source\":\"" + json::escape(in.path) +
                    "\",\"protocol\":\"" + json::escape(p.meta.protocol) +
                    "\",\"seed\":" + std::to_string(p.meta.seed) +
                    ",\"windows\":" + std::to_string(windows) +
                    ",\"wall_samples\":" + std::to_string(p.wall.size()) + ",\"detectors\":{";
  for (const Detector& d : dets) {
    out += (&d == &dets[0] ? "\"" : ",\"") + d.name + "\":{\"status\":\"" + d.status + "\"" +
           d.detail + "}";
    if (d.status != "fail") continue;
    failed += (failed.empty() ? "\"" : ",\"") + d.name + "\"";
    names += (names.empty() ? "" : ", ") + d.name;
  }
  std::printf("%s},\"failed\":[%s]}\n", out.c_str(), failed.c_str());
  if (!in.quiet) {
    std::fprintf(stderr,
                 "icc_inspect drift: %s: %zu windows, %zu wall samples (%s, n=%u, seed %llu)\n",
                 in.path.c_str(), windows, p.wall.size(), p.meta.protocol.c_str(), p.meta.n,
                 static_cast<unsigned long long>(p.meta.seed));
    for (const Detector& d : dets)
      std::fprintf(stderr, "  %-13s %-7s %s\n", d.name.c_str(), d.status.c_str(), d.why.c_str());
  }
  return in.check && !names.empty() ? say(in, 1, "CHECK FAILED: " + names) : 0;
}

struct Command {
  const char* name;
  const char* usage;  // every flag the subcommand takes, after the file
  int (*run)(const Input&);
};

constexpr Command kCommands[] = {
    {"audit", "<journal.jsonl> [--report <out.json>] [--csv <out.csv>] [--quiet]", audit},
    {"critpath",
     "<journal.jsonl> [--report <out.json>] [--dot <out.dot>] [--dot-round <r>] "
     "[--check-hops [n]] [--quiet]",
     critpath},
    {"runtime", "<runtime.json> [--top <k>] [--check] [--quiet]", runtime},
    {"drift", "<series.jsonl> [--check] [--quiet] [--head-tail <k>]", drift},
};

int usage(const char* error) {
  std::fprintf(stderr, "icc_inspect: %s\n", error);
  for (const Command& c : kCommands)
    std::fprintf(stderr, "usage: icc_inspect %s %s\n", c.name, c.usage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing subcommand");
  const Command* cmd = nullptr;
  for (const Command& c : kCommands)
    if (argv[1] == std::string_view(c.name)) cmd = &c;
  if (cmd == nullptr) return usage(("unknown subcommand " + std::string(argv[1])).c_str());
  if (argc < 3 || argv[2][0] == '-')
    return usage((std::string(cmd->name) + ": missing input file").c_str());

  Input in;
  in.name = cmd->name;
  in.path = argv[2];
  // A flag is valid where the subcommand's usage line lists it: "[--flag]"
  // or "[--flag <value>]".
  const std::string_view flags = cmd->usage;
  auto takes = [&](const std::string& flag) {
    return flags.find("[" + flag + "]") != flags.npos || flags.find("[" + flag + " ") != flags.npos;
  };
  icc::support::Args a(argc, argv, 3);
  while (!a.done()) {
    const std::string flag(a.next());
    if (!takes(flag)) a.fail("unknown option " + flag);
    else if (flag == "--report") in.report = a.value(flag);
    else if (flag == "--csv") in.csv = a.value(flag);
    else if (flag == "--dot") in.dot = a.value(flag);
    else if (flag == "--dot-round") in.dot_round = a.number(flag, 0, UINT32_MAX);
    else if (flag == "--top") in.top = static_cast<size_t>(a.number(flag, 0, 1 << 20));
    else if (flag == "--head-tail") in.head_tail = static_cast<size_t>(a.number(flag, 0, 1 << 30));
    else if (flag == "--quiet") in.quiet = true;
    else if (flag == "--check") in.check = true;
    else if (flag == "--check-hops") {
      in.check_hops = true;
      in.hops = a.maybe_number(0, 1 << 10);
    }
  }
  if (!a.error().empty()) return usage((std::string(cmd->name) + ": " + a.error()).c_str());
  if (!json::read_file(in.path, &in.text)) return say(in, 2, "cannot read " + in.path);
  return cmd->run(in);
}
