// icc_drift: offline trend analyzer for icc-series/v1 longitudinal telemetry.
//
// Reads a windowed time-series stream (examples/icc_soak, icc_observe
// --series, or Cluster::dump_series) and looks for the slow failures a
// single end-of-run snapshot cannot see:
//
//   rss          Theil-Sen (median-of-pairwise-slopes) regression on the
//                non-deterministic wall lines' RSS. Robust to GC-style
//                steps and one-off spikes; fails when the projected growth
//                over the observed span leaves the band
//                max(64 MiB, 25% of the median RSS). Skipped when the
//                series was recorded without wall lines (--no-wall).
//   latency      First-k vs last-k creep on the per-window commit-latency
//                percentiles (consensus.finalize_us): fails when the tail
//                median of window p50s (or p99s) exceeds the head median by
//                more than 25% and by an absolute 1 ms floor.
//   leaders      Chi-square uniformity test on honest-leader frequency.
//                The beacon permutes leadership uniformly, so a biased
//                beacon (or a broken permutation) shows up as a p-value
//                collapse; fails at p < 1e-3. Corrupt slots (from the meta
//                line) are excluded.
//   finalize_gap Head vs tail trend on the mean finalize-gap (rounds
//                between notarization and finalization): fails when the
//                tail mean exceeds the head mean by 50% and by 0.5 rounds.
//
// Detectors without enough data report "skipped", never "fail".
//
//   icc_drift <series.jsonl> [--check] [--quiet] [--head-tail <k>]
//
// stdout is always one icc-drift/v1 JSON document; the human-readable
// summary goes to stderr unless --quiet. Exit status: 0 on success, 1 when
// --check is set and any detector failed (the summary names it), 2 on
// usage/I/O errors or malformed/truncated series input.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "obs/timeseries.hpp"
#include "support/json.hpp"

namespace {

namespace json = icc::support::json;

int usage() {
  std::fprintf(stderr,
               "usage: icc_drift <series.jsonl> [--check] [--quiet] [--head-tail <k>]\n");
  return 2;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid), v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid) - 1,
                     v.begin() + static_cast<ptrdiff_t>(mid));
    m = (m + v[mid - 1]) / 2.0;
  }
  return m;
}

/// Theil-Sen estimator: median of all pairwise slopes. Subsamples evenly to
/// at most 1024 points so the pair count stays bounded on huge series.
double theil_sen_slope(const std::vector<std::pair<double, double>>& pts_in) {
  std::vector<std::pair<double, double>> pts;
  if (pts_in.size() > 1024) {
    const double step = static_cast<double>(pts_in.size() - 1) / 1023.0;
    for (size_t i = 0; i < 1024; ++i)
      pts.push_back(pts_in[static_cast<size_t>(std::lround(step * static_cast<double>(i)))]);
  } else {
    pts = pts_in;
  }
  std::vector<double> slopes;
  slopes.reserve(pts.size() * (pts.size() - 1) / 2);
  for (size_t i = 0; i < pts.size(); ++i)
    for (size_t j = i + 1; j < pts.size(); ++j) {
      const double dx = pts[j].first - pts[i].first;
      if (dx != 0.0) slopes.push_back((pts[j].second - pts[i].second) / dx);
    }
  return median(std::move(slopes));
}

/// Regularized upper incomplete gamma Q(a, x) — the chi-square survival
/// function is Q(df/2, chi2/2). Series expansion below a+1, Lentz continued
/// fraction above (the standard split; both converge fast there).
double gamma_q(double a, double x) {
  if (a <= 0.0 || x < 0.0) return 1.0;
  if (x == 0.0) return 1.0;
  const double log_prefix = -x + a * std::log(x) - std::lgamma(a);
  if (x < a + 1.0) {
    double ap = a, sum = 1.0 / a, del = sum;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::fabs(del) < std::fabs(sum) * 1e-14) break;
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

struct Detector {
  std::string name;
  std::string status = "skipped";  // ok | fail | skipped
  std::string detail;              // JSON fragment: extra fields
  std::string why;                 // human-readable one-liner
};

const icc::obs::SeriesHist* find_hist(const icc::obs::SeriesWindow& w, const char* name) {
  for (const auto& [n, h] : w.hists)
    if (n == name) return &h;
  return nullptr;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string series_path;
  bool check = false;
  bool quiet = false;
  size_t head_tail = 0;  // 0 = auto: max(8, windows/10)

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--head-tail") == 0 && i + 1 < argc) {
      head_tail = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (series_path.empty()) {
      series_path = argv[i];
    } else {
      return usage();
    }
  }
  if (series_path.empty()) return usage();

  std::string text;
  if (!json::read_file(series_path, &text)) {
    std::fprintf(stderr, "icc_drift: cannot read %s\n", series_path.c_str());
    return 2;
  }

  const icc::obs::TimeSeries::Parsed parsed = icc::obs::TimeSeries::parse_jsonl(text);
  if (!parsed.error.empty()) {
    std::fprintf(stderr, "icc_drift: %s: %s\n", series_path.c_str(), parsed.error.c_str());
    return 2;
  }
  if (parsed.windows.empty()) {
    std::fprintf(stderr, "icc_drift: %s: no windows\n", series_path.c_str());
    return 2;
  }
  const auto& windows = parsed.windows;
  const size_t k = head_tail != 0
                       ? std::min(head_tail, windows.size() / 2)
                       : std::min(std::max<size_t>(8, windows.size() / 10),
                                  windows.size() / 2);

  std::vector<Detector> dets;

  // --- rss: Theil-Sen slope on the wall lines ---------------------------
  {
    Detector d{"rss"};
    if (parsed.wall.size() < 8) {
      d.why = parsed.meta.wall ? "fewer than 8 wall samples" : "series recorded without wall lines";
    } else {
      std::vector<std::pair<double, double>> pts;
      std::vector<double> rss;
      for (const auto& w : parsed.wall) {
        pts.emplace_back(static_cast<double>(w.seq), static_cast<double>(w.rss_kb));
        rss.push_back(static_cast<double>(w.rss_kb));
      }
      const double slope = theil_sen_slope(pts);  // kB per window
      const double span = pts.back().first - pts.front().first;
      const double projected = slope * span;      // kB growth over the run
      const double med = median(std::move(rss));
      const double band = std::max(65536.0, 0.25 * med);
      d.status = projected <= band ? "ok" : "fail";
      char why[160];
      std::snprintf(why, sizeof(why),
                    "slope %.3f kB/window, projected %+.0f kB over %zu windows (band %.0f kB)",
                    slope, projected, parsed.wall.size(), band);
      d.why = why;
      d.detail = ",\"slope_kb_per_window\":" + num(slope) +
                 ",\"projected_growth_kb\":" + num(projected) +
                 ",\"median_rss_kb\":" + num(med) + ",\"band_kb\":" + num(band);
    }
    dets.push_back(std::move(d));
  }

  // --- latency: head-k vs tail-k percentile creep -----------------------
  {
    Detector d{"latency"};
    std::vector<double> p50s, p99s;
    for (const auto& w : windows)
      if (const auto* h = find_hist(w, "consensus.finalize_us"); h && h->count > 0) {
        p50s.push_back(static_cast<double>(h->p50));
        p99s.push_back(static_cast<double>(h->p99));
      }
    if (p50s.size() < 16) {
      d.why = "fewer than 16 windows with finalize_us samples";
    } else {
      const size_t kk = std::min(k, p50s.size() / 2);
      auto head_tail_median = [&](const std::vector<double>& v) {
        return std::make_pair(
            median({v.begin(), v.begin() + static_cast<ptrdiff_t>(kk)}),
            median({v.end() - static_cast<ptrdiff_t>(kk), v.end()}));
      };
      const auto [h50, t50] = head_tail_median(p50s);
      const auto [h99, t99] = head_tail_median(p99s);
      const bool creep50 = t50 > h50 * 1.25 && t50 - h50 > 1000.0;
      const bool creep99 = t99 > h99 * 1.25 && t99 - h99 > 1000.0;
      d.status = (creep50 || creep99) ? "fail" : "ok";
      char why[160];
      std::snprintf(why, sizeof(why),
                    "p50 %.0f->%.0f us, p99 %.0f->%.0f us over first/last %zu windows",
                    h50, t50, h99, t99, kk);
      d.why = why;
      d.detail = ",\"head_p50_us\":" + num(h50) + ",\"tail_p50_us\":" + num(t50) +
                 ",\"head_p99_us\":" + num(h99) + ",\"tail_p99_us\":" + num(t99) +
                 ",\"k\":" + std::to_string(kk);
    }
    dets.push_back(std::move(d));
  }

  // --- leaders: chi-square uniformity over honest-leader counts ---------
  {
    Detector d{"leaders"};
    const std::set<uint32_t> corrupt(parsed.meta.corrupt.begin(), parsed.meta.corrupt.end());
    std::vector<uint64_t> counts(static_cast<size_t>(parsed.meta.n), 0);
    for (const auto& w : windows)
      for (const auto& [party, c] : w.leaders)
        if (party < counts.size()) counts[party] += c;
    std::vector<double> honest;
    double total = 0;
    for (uint32_t p = 0; p < counts.size(); ++p)
      if (corrupt.find(p) == corrupt.end()) {
        honest.push_back(static_cast<double>(counts[p]));
        total += static_cast<double>(counts[p]);
      }
    if (honest.size() < 2 || total < 1000.0) {
      d.why = "fewer than 1000 honest-leader rounds";
    } else {
      // The beacon permutes uniformly over ALL n slots, so each honest slot
      // expects total/|honest| of the rounds led by honest parties.
      const double expect = total / static_cast<double>(honest.size());
      double chi2 = 0;
      for (double c : honest) chi2 += (c - expect) * (c - expect) / expect;
      const double df = static_cast<double>(honest.size() - 1);
      const double p = gamma_q(df / 2.0, chi2 / 2.0);
      d.status = p < 1e-3 ? "fail" : "ok";
      char why[160];
      std::snprintf(why, sizeof(why),
                    "chi2 %.2f (df %.0f) over %.0f rounds, p=%.3g",
                    chi2, df, total, p);
      d.why = why;
      d.detail = ",\"chi2\":" + num(chi2) + ",\"df\":" + num(df) +
                 ",\"rounds\":" + num(total) + ",\"p_value\":" + num(p);
    }
    dets.push_back(std::move(d));
  }

  // --- finalize_gap: head vs tail mean-gap trend ------------------------
  {
    Detector d{"finalize_gap"};
    std::vector<double> means;
    for (const auto& w : windows)
      if (const auto* h = find_hist(w, "consensus.finalize_gap_rounds"); h && h->count > 0)
        means.push_back(static_cast<double>(h->sum) / static_cast<double>(h->count));
    if (means.size() < 16) {
      d.why = "fewer than 16 windows with finalize_gap samples";
    } else {
      const size_t kk = std::min(k, means.size() / 2);
      const double head = median({means.begin(), means.begin() + static_cast<ptrdiff_t>(kk)});
      const double tail = median({means.end() - static_cast<ptrdiff_t>(kk), means.end()});
      d.status = (tail > head * 1.5 && tail - head > 0.5) ? "fail" : "ok";
      char why[160];
      std::snprintf(why, sizeof(why), "mean gap %.2f -> %.2f rounds over first/last %zu windows",
                    head, tail, kk);
      d.why = why;
      d.detail = ",\"head_mean\":" + num(head) + ",\"tail_mean\":" + num(tail) +
                 ",\"k\":" + std::to_string(kk);
    }
    dets.push_back(std::move(d));
  }

  // --- report -----------------------------------------------------------
  std::vector<std::string> failed;
  for (const auto& d : dets)
    if (d.status == "fail") failed.push_back(d.name);

  std::string report = "{\"schema\":\"icc-drift/v1\",\"source\":\"" +
                       json::escape(series_path) + "\",\"protocol\":\"" +
                       json::escape(parsed.meta.protocol) +
                       "\",\"seed\":" + std::to_string(parsed.meta.seed) +
                       ",\"windows\":" + std::to_string(windows.size()) +
                       ",\"wall_samples\":" + std::to_string(parsed.wall.size()) +
                       ",\"detectors\":{";
  for (size_t i = 0; i < dets.size(); ++i) {
    if (i) report += ",";
    report += "\"" + dets[i].name + "\":{\"status\":\"" + dets[i].status + "\"" +
              dets[i].detail + "}";
  }
  report += "},\"failed\":[";
  for (size_t i = 0; i < failed.size(); ++i) {
    if (i) report += ",";
    report += "\"" + failed[i] + "\"";
  }
  report += "]}";
  std::printf("%s\n", report.c_str());

  if (!quiet) {
    std::fprintf(stderr, "icc_drift: %s — %zu windows, %zu wall samples (%s, n=%u, seed %llu)\n",
                 series_path.c_str(), windows.size(), parsed.wall.size(),
                 parsed.meta.protocol.c_str(), parsed.meta.n,
                 static_cast<unsigned long long>(parsed.meta.seed));
    for (const auto& d : dets)
      std::fprintf(stderr, "  %-13s %-7s %s\n", d.name.c_str(), d.status.c_str(),
                   d.why.c_str());
  }

  if (check && !failed.empty()) {
    std::string names;
    for (const auto& f : failed) names += (names.empty() ? "" : ", ") + f;
    std::fprintf(stderr, "icc_drift: CHECK FAILED: %s\n", names.c_str());
    return 1;
  }
  return 0;
}
