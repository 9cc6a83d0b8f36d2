// icc_soak — long-horizon soak driver: millions of rounds under the windowed
// time-series recorder, watching for drift (ROADMAP item 5).
//
//   icc_soak [options]
//     --protocol icc0|icc1|icc2      (default icc0)
//     --n <int>                      parties (default 4)
//     --t <int>                      corruption bound (default (n-1)/3)
//     --rounds <int>                 target round count (default 1000000)
//     --seed <int>                   run seed, echoed in the digest
//     --delta-ms <int>               fixed one-way delay; 0 = WAN model (default 10)
//     --payload <bytes>              block payload size (default 256)
//     --threads <int>                worker threads (0 = ICC_THREADS; default)
//     --window-us <int>              series window length, virtual µs (default 1e6)
//     --series <path>                icc-series/v1 stream sink (default
//                                    soak-series.jsonl); windows append as
//                                    they close, flushed periodically
//     --full-res <int>               in-memory full-resolution windows (512)
//     --no-wall                      suppress the non-deterministic wall lines
//                                    (RSS); icc_drift then skips the RSS
//                                    detector
//     --committed-history <int>      per-party committed() bound (default 1024;
//                                    0 = unbounded — NOT advisable at 1M rounds)
//     --crash <int>                  # crashed parties (default 0)
//     --equivocate <int>             # equivocating parties (default 0)
//     --async <a>:<b>                asynchrony window [a, b) in virtual ms —
//                                    all traffic stalls until b; repeatable
//     --partition <a>:<b>:<k>        partition window [a, b) in virtual ms:
//                                    messages crossing the {<k} | {>=k} cut
//                                    are held until b (eventual delivery
//                                    preserved); repeatable
//
// The driver runs in virtual-time chunks until the target round is reached
// (or progress stops), flushing the series stream as it goes, then prints a
// digest and checks safety. Analyze the series with tools/icc_drift; the
// deterministic window lines are byte-identical for a given seed at any
// --threads value (wall lines are the labeled non-deterministic exemption).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "support/proc.hpp"

namespace {

/// Cross-group traffic inside a partition window is held until the window
/// closes (then travels with its normal delay) — the schedule-level analogue
/// of SynchronySchedule::add_async_window, restricted to the cut.
class PartitionDelay final : public icc::sim::DelayModel {
 public:
  struct Window {
    icc::sim::Time start, end;
    uint32_t split;  ///< parties < split vs >= split
  };
  PartitionDelay(std::unique_ptr<icc::sim::DelayModel> inner, std::vector<Window> windows)
      : inner_(std::move(inner)), windows_(std::move(windows)) {}

  icc::sim::Duration delay(icc::sim::PartyIndex from, icc::sim::PartyIndex to,
                           icc::sim::Time now, size_t bytes,
                           icc::Xoshiro256& rng) override {
    icc::sim::Duration hold = 0;
    for (const Window& w : windows_) {
      const bool cross = (from < w.split) != (to < w.split);
      if (cross && now >= w.start && now < w.end) hold = std::max(hold, w.end - now);
    }
    return hold + inner_->delay(from, to, now, bytes, rng);
  }

 private:
  std::unique_ptr<icc::sim::DelayModel> inner_;
  std::vector<Window> windows_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace icc;

  harness::ClusterOptions o;
  o.n = 4;
  o.t = 0;  // resolved below
  o.protocol = harness::Protocol::kIcc0;
  o.crypto = harness::CryptoKind::kFast;
  o.seed = 42;
  o.payload_size = 256;
  o.record_payloads = false;
  o.record_latencies = false;
  o.committed_history = 1024;
  o.obs.enabled = true;
  o.obs.series = true;
  o.obs.series_wall = true;

  uint64_t target_rounds = 1'000'000;
  int delta_ms = 10;
  int crash = 0, equivocate = 0;
  const char* series_path = "soak-series.jsonl";
  std::vector<std::pair<int64_t, int64_t>> async_windows;           // ms
  std::vector<std::tuple<int64_t, int64_t, uint32_t>> partitions;   // ms, ms, split

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
    else if (is("--rounds")) target_rounds = static_cast<uint64_t>(atoll(next()));
    else if (is("--seed")) o.seed = static_cast<uint64_t>(atoll(next()));
    else if (is("--delta-ms")) delta_ms = atoi(next());
    else if (is("--payload")) o.payload_size = static_cast<size_t>(atoi(next()));
    else if (is("--threads")) o.threads = static_cast<size_t>(atoi(next()));
    else if (is("--window-us")) o.obs.series_window_us = atoll(next());
    else if (is("--series")) series_path = next();
    else if (is("--full-res")) o.obs.series_full_res = static_cast<size_t>(atoll(next()));
    else if (is("--no-wall")) o.obs.series_wall = false;
    else if (is("--committed-history"))
      o.committed_history = static_cast<consensus::Round>(atoll(next()));
    else if (is("--crash")) crash = atoi(next());
    else if (is("--equivocate")) equivocate = atoi(next());
    else if (is("--async")) {
      int64_t a = 0, b = 0;
      if (std::sscanf(next(), "%ld:%ld", &a, &b) != 2 || b <= a) {
        std::fprintf(stderr, "bad --async window (want start_ms:end_ms)\n");
        return 2;
      }
      async_windows.emplace_back(a, b);
    } else if (is("--partition")) {
      int64_t a = 0, b = 0;
      unsigned k = 0;
      if (std::sscanf(next(), "%ld:%ld:%u", &a, &b, &k) != 3 || b <= a || k == 0) {
        std::fprintf(stderr, "bad --partition window (want start_ms:end_ms:split)\n");
        return 2;
      }
      partitions.emplace_back(a, b, k);
    } else {
      std::fprintf(stderr, "unknown flag %s (see header of examples/icc_soak.cpp)\n",
                   argv[i]);
      return 2;
    }
  }
  if (o.t == 0) o.t = (o.n - 1) / 3;
  o.max_round = static_cast<consensus::Round>(target_rounds);

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

  o.delay_model = [delta_ms, partitions](size_t n, uint64_t seed) {
    std::unique_ptr<sim::DelayModel> base;
    if (delta_ms > 0) {
      base = std::make_unique<sim::FixedDelay>(sim::msec(delta_ms));
    } else {
      sim::WanDelay::Config wan;
      wan.n = n;
      wan.seed = seed;
      base = std::make_unique<sim::WanDelay>(wan);
    }
    if (partitions.empty()) return base;
    std::vector<PartitionDelay::Window> ws;
    for (const auto& [a, b, k] : partitions)
      ws.push_back({sim::msec(a), sim::msec(b), k});
    return std::unique_ptr<sim::DelayModel>(
        std::make_unique<PartitionDelay>(std::move(base), std::move(ws)));
  };

  harness::Cluster cluster(o);
  for (const auto& [a, b] : async_windows)
    cluster.sim().network().synchrony().add_async_window(sim::msec(a), sim::msec(b));

  obs::TimeSeries* series = cluster.series();
  if (!cluster.stream_series(series_path)) {
    std::fprintf(stderr, "cannot open series sink %s\n", series_path);
    return 2;
  }

  const char* proto_name = o.protocol == harness::Protocol::kIcc0   ? "icc0"
                           : o.protocol == harness::Protocol::kIcc1 ? "icc1"
                                                                    : "icc2";
  std::fprintf(stderr,
               "icc_soak: %s, n=%zu t=%zu, target %llu rounds, window %lld us, "
               "seed %llu -> %s\n",
               proto_name, o.n, o.t, static_cast<unsigned long long>(target_rounds),
               static_cast<long long>(o.obs.series_window_us),
               static_cast<unsigned long long>(o.seed), series_path);

  const std::clock_t cpu0 = std::clock();
  const std::time_t wall0 = std::time(nullptr);
  const sim::Duration chunk = sim::seconds(30);
  uint64_t prev_round = 0;
  uint64_t chunks = 0;
  while (true) {
    cluster.run_for(chunk);
    series->flush();
    const uint64_t round = cluster.max_honest_round();
    if (++chunks % 20 == 0) {
      std::fprintf(stderr, "  round %llu / %llu  (windows %llu, rss %lld MB)\n",
                   static_cast<unsigned long long>(round),
                   static_cast<unsigned long long>(target_rounds),
                   static_cast<unsigned long long>(series->windows_closed()),
                   static_cast<long long>(support::proc_memory().rss_kb >> 10));
    }
    if (round >= target_rounds) break;
    if (round == prev_round) {
      // A drained queue means every party stopped (max_round) or progress
      // genuinely halted — either way, running longer changes nothing.
      std::fprintf(stderr, "  progress stalled at round %llu; stopping\n",
                   static_cast<unsigned long long>(round));
      break;
    }
    prev_round = round;
  }
  series->flush();

  const double cpu_s =
      static_cast<double>(std::clock() - cpu0) / static_cast<double>(CLOCKS_PER_SEC);
  const double wall_s = std::difftime(std::time(nullptr), wall0);
  const uint64_t rounds = cluster.max_honest_round();
  const uint64_t committed = cluster.min_honest_committed();

  std::printf("rounds:            %llu\n", static_cast<unsigned long long>(rounds));
  std::printf("blocks committed:  %llu\n", static_cast<unsigned long long>(committed));
  std::printf("virtual time:      %lld s\n",
              static_cast<long long>(cluster.sim().engine().now() / 1'000'000));
  std::printf("windows closed:    %llu  (dropped %llu)\n",
              static_cast<unsigned long long>(series->windows_closed()),
              static_cast<unsigned long long>(series->dropped()));
  std::printf("wall / cpu:        %.0f s / %.0f s\n", wall_s, cpu_s);
  std::printf("rss:               %lld MB\n",
              static_cast<long long>(support::proc_memory().rss_kb >> 10));
  std::printf("seed:              %llu\n", static_cast<unsigned long long>(o.seed));
  std::printf("series:            %s\n", series_path);
  if (series->dropped() > 0)
    std::fprintf(stderr,
                 "*** WARNING: %llu series lines failed to write — the stream "
                 "is TRUNCATED (disk full?).\n",
                 static_cast<unsigned long long>(series->dropped()));

  auto safety = cluster.check_safety();
  std::printf("safety:            %s\n", safety ? safety->c_str() : "OK");
  if (rounds < target_rounds)
    std::fprintf(stderr, "note: stopped %llu rounds short of the target\n",
                 static_cast<unsigned long long>(target_rounds - rounds));
  return safety ? 1 : 0;
}
