// The paper's claims (§1, §1.1, §3.5; EXPERIMENTS.md F-MSG … F-PIPE) as one
// table of simulated runs, each claim gated by a named predicate.
//
// A row is one run: the claim it serves, cluster or baseline options, a
// virtual run length and a measurement that turns the finished run into
// named values. One loop runs the rows in order, prints one table per claim
// and checks every run's safety. The values come from virtual time and
// logical counters only, so `--json <path>` (icc-bench/v1, committed as
// BENCH_paper.json and gated by ci/bench_compare.py) is byte-identical
// across runs and ICC_THREADS. The per-row wall clock is printed, never
// written. Each claim's predicate then checks the values; the exit status
// is 1 if any fails, and the failing predicates are named.
//
//   bench_paper [--json <path>]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "bench_json.hpp"
#include "harness/baseline_cluster.hpp"
#include "harness/cluster.hpp"

namespace {

using namespace icc;
using bench::BenchResult;
using harness::Protocol;
using types::Round;
using Values = std::vector<BenchResult>;

template <class OptionsT, class ClusterT>
struct Spec {
  using Cluster = ClusterT;
  OptionsT options;
  std::function<Values(ClusterT&)> measure;
};
using IccRun = Spec<harness::ClusterOptions, harness::Cluster>;
using BaselineRun = Spec<harness::BaselineOptions, harness::BaselineCluster>;

struct Row {
  const char* claim;
  std::string label;
  sim::Duration run;
  std::variant<IccRun, BaselineRun> spec;
};

// ---------------------------------------------------------------------------
// Options and measurements shared by the rows
// ---------------------------------------------------------------------------

std::function<std::unique_ptr<sim::DelayModel>(size_t, uint64_t)> fixed(sim::Duration d) {
  return [d](size_t, uint64_t) -> std::unique_ptr<sim::DelayModel> {
    return std::make_unique<sim::FixedDelay>(d);
  };
}

// The options every ICC row starts from (t = floor((n-1)/3)); rows override
// what they vary.
harness::ClusterOptions icc(size_t n, uint64_t seed, sim::Duration delta_bnd,
                            Protocol protocol = Protocol::kIcc0) {
  harness::ClusterOptions o;
  o.n = n;
  o.t = (n - 1) / 3;
  o.seed = seed;
  o.protocol = protocol;
  o.delta_bnd = delta_bnd;
  o.payload_size = 128;
  o.record_payloads = false;
  o.prune_lag = 8;
  o.delay_model = fixed(sim::msec(10));
  return o;
}

harness::BaselineOptions baseline(harness::BaselineKind kind, uint64_t seed) {
  harness::BaselineOptions o;
  o.kind = kind;
  o.n = 7;
  o.t = 2;
  o.seed = seed;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 128;
  o.record_payloads = false;
  return o;
}

// t parties at slots start + k * stride that equivocate and never finalize:
// the behaviour that maximizes finalization gaps.
void add_equivocators(harness::ClusterOptions& o, size_t start, size_t stride) {
  consensus::ByzantineBehavior b;
  b.equivocate = true;
  b.withhold_finalization = true;
  for (size_t i = 0; i < o.t; ++i)
    o.corrupt.emplace_back(static_cast<sim::PartyIndex>(start + stride * i), b);
}

const char* protocol_name(Protocol p) {
  return p == Protocol::kIcc0 ? "icc0" : p == Protocol::kIcc1 ? "icc1" : "icc2";
}

double round_ms_in_20s(double rounds) { return rounds > 1 ? 20000.0 / rounds : 0; }

std::string window_name(sim::Time t0, sim::Time t1) {
  return std::to_string(t0 / sim::seconds(1)) + "-" + std::to_string(t1 / sim::seconds(1)) + "s";
}

// Per-party traffic per round in block-size units: the busiest party
// (bottleneck) and the average party.
Values dissemination(harness::Cluster& c, size_t n, size_t block) {
  const double rounds = static_cast<double>(c.party(0)->current_round());
  if (rounds < 2) return {{"bottleneck_per_S", 0, "S"}, {"total_per_nS", 0, "S"}};
  const auto& m = c.sim().network().metrics();
  const double s = static_cast<double>(block);
  return {{"bottleneck_per_S", m.max_bytes_sent() / rounds / s, "S"},
          {"total_per_nS", m.total_bytes / rounds / (n * s), "S"}};
}

// Gaps between consecutive finalized rounds: blocks that share one commit
// time were committed by one finalization, the highest of them finalized.
Values finalization_gaps(harness::Cluster& c) {
  size_t first_honest = 0;
  while (!c.is_honest(first_honest)) ++first_honest;
  std::map<sim::Time, Round> last_round_at;
  for (const auto& blk : c.party(first_honest)->committed())
    last_round_at[blk.committed_at] = std::max(last_round_at[blk.committed_at], blk.round);
  std::vector<Round> gaps;
  Round prev = 0;
  for (const auto& [at, round] : last_round_at) {
    gaps.push_back(round - prev);
    prev = round;
  }
  if (gaps.empty()) return {{"rounds", 0, "rounds"}};
  double hist[5] = {}, mean = 0;
  for (Round g : gaps) {
    mean += g;
    hist[std::min<Round>(g, 4)]++;
  }
  std::sort(gaps.begin(), gaps.end());
  return {{"rounds", prev, "rounds"},
          {"mean_gap", mean / static_cast<double>(gaps.size()), "rounds"},
          {"p99_gap", gaps[(gaps.size() * 99) / 100], "rounds"},
          {"gaps_1", hist[1], "count"},
          {"gaps_2", hist[2], "count"},
          {"gaps_3", hist[3], "count"},
          {"gaps_4plus", hist[4], "count"}};
}

// Drops every message to or from one party until the partition heals.
class PartitionOne final : public sim::DelayModel {
 public:
  PartitionOne(sim::PartyIndex victim, sim::Time heal_at, sim::Duration base)
      : victim_(victim), heal_at_(heal_at), base_(base) {}
  sim::Duration delay(sim::PartyIndex from, sim::PartyIndex to, sim::Time now, size_t,
                      Xoshiro256&) override {
    if ((from == victim_ || to == victim_) && now < heal_at_) return sim::seconds(100000);
    return base_;
  }

 private:
  sim::PartyIndex victim_;
  sim::Time heal_at_;
  sim::Duration base_;
};

// ---------------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------------

constexpr Protocol kProtocols[] = {Protocol::kIcc0, Protocol::kIcc1, Protocol::kIcc2};
const sim::Duration kRobWindow = sim::seconds(5);
const sim::Time kRobEnd = sim::seconds(40);

std::vector<Row> table() {
  std::vector<Row> rows;
  auto add = [&rows](const char* claim, std::string label, sim::Duration run, auto spec) {
    rows.push_back({claim, std::move(label), run, std::move(spec)});
  };

  // F-MSG: synchronous, t equivocators, and adversarial reordering (delays
  // up to ~8x the delay-function unit).
  const std::function<Values(harness::Cluster&)> msgs = [](harness::Cluster& c) {
    Round rounds = 0;
    for (const auto* p : c.parties())
      if (p) rounds = std::max(rounds, p->current_round());
    const double n = static_cast<double>(c.parties().size());
    const double per =
        rounds ? static_cast<double>(c.sim().network().metrics().total_messages) / rounds : 0;
    return Values{{"msgs_per_round", per, "msgs"}, {"per_n2", per / (n * n), "msgs"}};
  };
  for (size_t n : {4, 7, 10, 13, 19, 28, 40}) {
    harness::ClusterOptions o = icc(n, 21 + n, sim::msec(150));
    const std::string ns = std::string("n") + std::to_string(n);
    add("F-MSG", ns + "/sync", sim::seconds(20), IccRun{o, msgs});
    harness::ClusterOptions byz = o;
    add_equivocators(byz, 1, 3);
    add("F-MSG", ns + "/byzantine", sim::seconds(20), IccRun{byz, msgs});
    o.delay_model = [](size_t, uint64_t) {
      return std::make_unique<sim::UniformDelay>(sim::msec(10), sim::msec(2500));
    };
    add("F-MSG", ns + "/reorder", sim::seconds(20), IccRun{o, msgs});
  }

  // F-RND: gaps between finalized rounds with t equivocators.
  for (size_t n : {4, 7, 13, 19, 31}) {
    harness::ClusterOptions o = icc(n, 31 + n, sim::msec(120));
    o.payload_size = 64;
    o.delay_model = fixed(sim::msec(8));
    add_equivocators(o, 1, 2);
    add("F-RND", std::string("n") + std::to_string(n), sim::seconds(60),
        IccRun{o, finalization_gaps});
  }

  // F-ROB: blocks/s per 5 s window for ICC0 with two withholding parties
  // (from the time-series recorder, averaged over the 5 honest parties),
  // and for PBFT-lite with crashed leaders and with a leader that throttles
  // just under the 4 Delta_bnd view-change timeout ([15]).
  consensus::ByzantineBehavior withhold;
  withhold.withhold_proposal = true;
  withhold.withhold_finalization = true;
  harness::ClusterOptions rob = icc(7, 41, sim::msec(300));
  rob.obs.enabled = rob.obs.series = true;
  rob.obs.series_window_us = kRobWindow;
  rob.corrupt = {{1, withhold}, {4, withhold}};
  add("F-ROB", "icc0_withholding", kRobEnd, IccRun{rob, [](harness::Cluster& c) {
        Values out;
        for (const obs::SeriesWindow* w : c.series()->windows()) {
          uint64_t committed = 0;
          for (const auto& [name, delta] : w->counters)
            if (name == "consensus.blocks_committed") committed = delta;
          out.emplace_back(window_name(w->start_us, w->end_us),
                           committed / 5.0 / sim::to_sec(kRobWindow * w->res), "blocks/s");
        }
        return out;
      }});
  for (bool crash : {true, false}) {
    harness::BaselineOptions o = baseline(harness::BaselineKind::kPbft, 41);
    if (crash) o.crashed = {0, 1};
    else o.pbft_propose_delay[0] = sim::msec(1100);
    add("F-ROB", crash ? "pbft_leaders_crash" : "pbft_slow_leader", kRobEnd,
        BaselineRun{o, [observer = crash ? 2 : 3](harness::BaselineCluster& c) {
          Values out;
          for (sim::Time t0 = 0; t0 < kRobEnd; t0 += kRobWindow) {
            size_t count = 0;
            for (const auto& b : c.party(observer)->committed())
              count += b.committed_at >= t0 && b.committed_at < t0 + kRobWindow;
            out.emplace_back(window_name(t0, t0 + kRobWindow), count / sim::to_sec(kRobWindow),
                             "blocks/s");
          }
          return out;
        }});
  }
  // Round durations from party 0's commit times: fast (< Delta_bnd) rounds
  // had an honest leader, slow ones waited out a withholding one.
  rob = icc(7, 43, sim::msec(300));
  withhold.withhold_finalization = false;
  rob.corrupt = {{1, withhold}, {4, withhold}};
  add("F-ROB", "icc0_round_split", sim::seconds(60), IccRun{rob, [](harness::Cluster& c) {
        double count[2] = {}, sum[2] = {};
        const auto& blocks = c.party(0)->committed();
        for (size_t i = 1; i < blocks.size(); ++i) {
          const double ms = sim::to_ms(blocks[i].committed_at - blocks[i - 1].committed_at);
          count[ms >= 300.0]++;
          sum[ms >= 300.0] += ms;
        }
        return Values{{"fast_rounds", count[0], "rounds"},
                      {"fast_avg_ms", sum[0] / std::max(1.0, count[0]), "virtual_ms"},
                      {"slow_rounds", count[1], "rounds"},
                      {"slow_avg_ms", sum[1] / std::max(1.0, count[1]), "virtual_ms"},
                      {"slow_fraction", count[1] / std::max(1.0, count[0] + count[1]), "ratio"}};
      }});

  // F-RBC: per-party dissemination cost against block size S, under fixed
  // 15 ms delays for n in {13, 40}, and under a seeded WAN for n = 16.
  std::vector<std::tuple<size_t, size_t, bool>> shapes;  // (n, S, WAN)
  for (size_t n : {13, 40})
    for (size_t s : {64 * 1024, 256 * 1024, 1024 * 1024}) shapes.emplace_back(n, s, false);
  shapes.emplace_back(16, 64 * 1024, true);
  for (auto [n, s, wan] : shapes) {
    for (Protocol p : kProtocols) {
      harness::ClusterOptions o = icc(n, 51, sim::msec(400), p);
      o.payload_size = s;
      o.prune_lag = 4;
      o.max_round = wan ? 0 : 6;
      o.delay_model = fixed(sim::msec(15));
      if (wan) {
        o.delay_model = [](size_t num, uint64_t seed) {
          sim::WanDelay::Config config;
          config.n = num;
          config.seed = seed;
          return std::make_unique<sim::WanDelay>(config);
        };
      }
      add("F-RBC",
          std::string(wan ? "wan_n" : "n") + std::to_string(n) + "/" + std::to_string(s / 1024) +
              "KB/" + protocol_name(p),
          sim::seconds(wan ? 10 : 30),
          IccRun{o, [n, s](harness::Cluster& c) { return dissemination(c, n, s); }});
    }
  }

  // F-OPT: mean round time against delta with Delta_bnd = 300 ms, ICC0
  // against Tendermint-lite.
  for (int d : {2, 5, 10, 25, 50, 100}) {
    const std::string label = std::string("delta") + std::to_string(d) + "ms/";
    harness::ClusterOptions o = icc(7, 61, sim::msec(300));
    o.delay_model = fixed(sim::msec(d));
    add("F-OPT", label + "icc0", sim::seconds(20), IccRun{o, [](harness::Cluster& c) {
          return Values{{"round_ms", round_ms_in_20s(c.party(0)->current_round()), "virtual_ms"}};
        }});
    harness::BaselineOptions tm = baseline(harness::BaselineKind::kTendermint, 61);
    tm.delay_model = fixed(sim::msec(d));
    add("F-OPT", label + "tendermint", sim::seconds(20),
        BaselineRun{tm, [](harness::BaselineCluster& c) {
          return Values{
              {"round_ms", round_ms_in_20s(c.party(0)->committed().size()), "virtual_ms"}};
        }});
  }

  // F-BOT: commit latency behind 100 Mbit/s (12.5 B/us) per-party uplinks
  // that serialize sends, plus 10 ms propagation; n = 13.
  for (size_t s : {16 * 1024, 128 * 1024, 512 * 1024, 1024 * 1024}) {
    for (Protocol p : kProtocols) {
      harness::ClusterOptions o = icc(13, 97, sim::seconds(4), p);
      o.payload_size = s;
      o.prune_lag = 4;
      o.max_round = 10;
      o.delay_model = [](size_t n, uint64_t) {
        return std::make_unique<sim::QueuedDelay>(
            std::make_unique<sim::FixedDelay>(sim::msec(10)), n, 12.5);
      };
      add("F-BOT", std::to_string(s / 1024) + "KB/" + protocol_name(p), sim::seconds(120),
          IccRun{o, [](harness::Cluster& c) {
            return Values{{"latency_ms", c.avg_latency_ms(), "virtual_ms"}};
          }});
    }
  }

  // F-ABL(a): the eq. (2) governor epsilon at delta = 10 ms.
  for (int eps : {0, 50, 200, 500, 1000}) {
    harness::ClusterOptions o = icc(7, 91, sim::msec(300));
    o.epsilon = sim::msec(eps);
    o.payload_size = 2048;
    add("F-ABL(a)", std::string("eps") + std::to_string(eps) + "ms", sim::seconds(20),
        IccRun{o, [](harness::Cluster& c) {
          return Values{{"blocks_per_s", c.blocks_per_second(sim::seconds(20)), "blocks/s"},
                        {"kB_per_s_node", c.sim().network().metrics().bytes_sent[0] / 20.0 / 1024,
                         "kB/s"}};
        }});
  }

  // F-ABL(b): fixed against adaptive Delta_bnd when the real delay is 25 ms.
  const std::pair<int, bool> bounds[] = {
      {2, false}, {2, true}, {300, false}, {2000, false}, {2000, true}};
  for (auto [bound_ms, adaptive] : bounds) {
    harness::ClusterOptions o = icc(7, 92, sim::msec(bound_ms));
    o.payload_size = 256;
    o.adaptive.enabled = adaptive;
    o.adaptive.floor = sim::msec(1);
    o.delay_model = fixed(sim::msec(25));
    add("F-ABL(b)",
        std::string(adaptive ? "adaptive_from_" : "fixed_") + std::to_string(bound_ms) + "ms",
        sim::seconds(30), IccRun{o, [](harness::Cluster& c) {
          const double rounds = static_cast<double>(c.party(0)->current_round());
          return Values{{"rounds", rounds, "rounds"},
                        {"finalized_per_round",
                         c.party(0)->committed().size() / std::max(1.0, rounds), "ratio"},
                        {"local_delta_ms", sim::to_ms(c.party(0)->delta_bound()), "virtual_ms"}};
        }});
  }

  // F-ABL(c): blind echo-push against dedup push against advertise/pull,
  // n = 10, 128 kB blocks.
  const std::tuple<const char*, Protocol, size_t> modes[] = {
      {"icc0_echo_push", Protocol::kIcc0, 0},
      {"icc1_dedup_push", Protocol::kIcc1, SIZE_MAX},
      {"icc1_advert_pull", Protocol::kIcc1, 4096}};
  for (auto [label, p, push_threshold] : modes) {
    harness::ClusterOptions o = icc(10, 93, sim::msec(300), p);
    o.payload_size = 128 * 1024;
    o.prune_lag = 4;
    o.max_round = 12;
    o.gossip.push_threshold = push_threshold;
    o.delay_model = fixed(sim::msec(15));
    add("F-ABL(c)", label, sim::seconds(30), IccRun{o, [](harness::Cluster& c) {
          const double rounds = std::max<double>(1, c.party(0)->current_round());
          return Values{{"bottleneck_kB_per_round",
                         c.sim().network().metrics().max_bytes_sent() / rounds / 1024, "kB"},
                        {"latency_ms", c.avg_latency_ms(), "virtual_ms"}};
        }});
  }

  // F-ABL(d): a replica partitioned for the first 20 s of a pruning cluster,
  // with and without catch-up packages. After the partition heals, step in
  // 100 ms until it is within 5 finalized rounds of the tip (rejoin_s), or
  // give up at 40 s (rejoin_s = -1).
  for (Round interval : {10u, 0u}) {
    harness::ClusterOptions o = icc(4, 94, sim::msec(100));
    o.payload_size = 256;
    o.record_payloads = true;
    o.cup_interval = interval;
    o.prune_lag = 4;
    o.delay_model = [](size_t, uint64_t) -> std::unique_ptr<sim::DelayModel> {
      return std::make_unique<PartitionOne>(3, sim::seconds(20), sim::msec(10));
    };
    add("F-ABL(d)", interval ? "cup_every_10" : "cup_disabled", sim::seconds(20),
        IccRun{o, [](harness::Cluster& c) {
          auto behind = [&c] {
            return static_cast<double>(c.party(0)->last_finalized_round()) -
                   static_cast<double>(c.party(3)->last_finalized_round());
          };
          sim::Time t = sim::seconds(20);
          while (behind() > 5 && t < sim::seconds(40)) c.run_until(t += sim::msec(100));
          return Values{{"rejoin_s", behind() <= 5 ? sim::to_sec(t - sim::seconds(20)) : -1.0,
                         "virtual_s"},
                        {"rounds_behind", behind(), "rounds"}};
        }});
  }

  // F-PIPE: real Ed25519/DVRF verifications per committed block with the
  // ingress pipeline's dedup and verdict cache stages off, then on.
  for (bool on : {false, true}) {
    harness::ClusterOptions o = icc(16, 42, sim::msec(300));
    o.crypto = harness::CryptoKind::kReal;
    o.payload_size = 512;
    o.pipeline.stages = on;
    add("F-PIPE", on ? "stages_on" : "stages_off", sim::seconds(2),
        IccRun{o, [](harness::Cluster& c) {
          const pipeline::Verifier::Stats v = c.verifier_stats();
          const double blocks = std::max<double>(1, c.min_honest_committed());
          return Values{{"committed", c.min_honest_committed(), "blocks"},
                        {"real_verifications", v.provider_verifications, "count"},
                        {"real_per_block", v.provider_verifications / blocks, "1/block"},
                        {"cache_hits", v.cache_hits, "count"},
                        {"primed", v.primed, "count"},
                        {"combine_checks_skipped", v.combine_share_checks_skipped, "count"},
                        {"duplicates", c.pipeline_stats().duplicates, "count"}};
        }});
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Claims: one predicate gates each claim's rows
// ---------------------------------------------------------------------------

using Results = std::map<std::string, double>;

double get(const Results& r, const std::string& name) {
  auto it = r.find(name);
  return it == r.end() ? std::numeric_limits<double>::quiet_NaN() : it->second;
}

// Each claim's predicate over the results: (claim, what it checks, holds).
std::vector<std::tuple<const char*, const char*, bool>> check(const Results& r) {
  // True when some result name starts with `prefix` and `test(rest, value)`
  // holds for every such result; `rest` is the name after the prefix.
  auto every = [&r](const std::string& prefix, auto test) {
    auto it = r.lower_bound(prefix);
    if (it == r.end() || !it->first.starts_with(prefix)) return false;
    for (; it != r.end() && it->first.starts_with(prefix); ++it)
      if (!test(it->first.substr(prefix.size()), it->second)) return false;
    return true;
  };
  double lo = INFINITY, hi = 0;
  every("F-MSG/n", [&](const std::string& m, double v) {
    if (m.ends_with("/sync/per_n2") && std::stoi(m) >= 10) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return true;
  });
  const double echo = get(r, "F-ABL(c)/icc0_echo_push/bottleneck_kB_per_round");
  return {
      {"F-MSG", "synchronous messages/round/n^2 spans <= 25% over n >= 10 (O(n^2))",
       hi > 0 && hi <= 1.25 * lo},
      {"F-RND", "mean gap between finalized rounds < 2 at every n (O(1) expected)",
       every("F-RND/",
             [](const std::string& m, double v) { return !m.ends_with("/mean_gap") || v < 2; })},
      {"F-ROB",
       "ICC0 commits in every window, honest-leader rounds average <= 3 delta, and "
       "slow rounds are 2/7 +- 0.1 of all (the corrupt-leader share)",
       every("F-ROB/icc0_withholding/", [](const std::string&, double v) { return v > 0; }) &&
           get(r, "F-ROB/icc0_round_split/fast_avg_ms") <= 30 &&
           std::abs(get(r, "F-ROB/icc0_round_split/slow_fraction") - 2.0 / 7.0) <= 0.1},
      {"F-RBC", "ICC2 bottleneck/S <= n/k + 1 (k = n - 2t) in every row (O(S) per party)",
       every("F-RBC/",
             [](const std::string& m, double v) {
               if (!m.ends_with("/icc2/bottleneck_per_S")) return true;
               const size_t n = std::stoul(m.substr(m.find_first_of("0123456789")));
               return v <= static_cast<double>(n) / static_cast<double>(n - 2 * ((n - 1) / 3)) + 1;
             })},
      {"F-OPT", "ICC0 round <= 2 delta + 1 ms and Tendermint round >= Delta_bnd at every delta",
       every("F-OPT/delta",
             [](const std::string& m, double v) {
               return m.ends_with("/icc0/round_ms") ? v <= 2 * std::stoi(m) + 1 : v >= 300;
             })},
      {"F-BOT", "at 1 MB, commit latency ICC2 < ICC1 < ICC0",
       get(r, "F-BOT/1024KB/icc2/latency_ms") < get(r, "F-BOT/1024KB/icc1/latency_ms") &&
           get(r, "F-BOT/1024KB/icc1/latency_ms") < get(r, "F-BOT/1024KB/icc0/latency_ms")},
      {"F-ABL(a)", "1 / (blocks/s) is within 5% of max(2 delta, delta + epsilon)",
       every("F-ABL(a)/eps",
             [](const std::string& m, double v) {
               const double expect = std::max(20.0, 10.0 + std::stoi(m));
               return !m.ends_with("/blocks_per_s") || std::abs(1000 / v - expect) <= 0.05 * expect;
             })},
      {"F-ABL(b)",
       "an adaptive bound finalizes every round from a 12x too small start; a fixed one does not",
       get(r, "F-ABL(b)/adaptive_from_2ms/finalized_per_round") >= 0.99 &&
           get(r, "F-ABL(b)/fixed_2ms/finalized_per_round") < 0.5},
      {"F-ABL(c)", "ICC1's content-addressed dedup at least halves ICC0's echo-push bottleneck",
       every("F-ABL(c)/icc1",
             [echo](const std::string& m, double v) {
               return !m.ends_with("/bottleneck_kB_per_round") || 2 * v <= echo;
             })},
      {"F-ABL(d)", "a replica that lost pruned history rejoins with CUPs and never without them",
       get(r, "F-ABL(d)/cup_every_10/rejoin_s") >= 0 &&
           get(r, "F-ABL(d)/cup_disabled/rejoin_s") < 0},
      {"F-PIPE", "the ingress pipeline cuts real verifications per committed block >= 2x",
       get(r, "F-PIPE/stages_off/real_per_block") >=
           2 * get(r, "F-PIPE/stages_on/real_per_block")},
  };
}

bool safe(harness::Cluster& c) { return !c.check_safety(); }
bool safe(harness::BaselineCluster& c) { return c.outputs_consistent(); }

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = argc == 3 && std::strcmp(argv[1], "--json") == 0 ? argv[2] : nullptr;
  if (argc != 1 && json_path == nullptr) {
    std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
    return 2;
  }

  Values results;
  std::vector<std::string> unsafe;
  std::string claim, columns;
  const std::vector<Row> rows = table();
  for (const Row& row : rows) {
    const auto t0 = std::chrono::steady_clock::now();
    const Values values = std::visit(
        [&row, &unsafe](const auto& spec) {
          typename std::decay_t<decltype(spec)>::Cluster c(spec.options);
          c.run_for(row.run);
          Values v = spec.measure(c);
          if (!safe(c)) unsafe.push_back(std::string(row.claim) + "/" + row.label);
          return v;
        },
        row.spec);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    // One table per claim, with a new header whenever the columns change.
    auto width = [](const BenchResult& v) { return std::max<int>(9, v.name.size()); };
    std::string cols;
    for (const BenchResult& v : values)
      cols += std::string(width(v) + 1 - v.name.size(), ' ') + v.name;
    if (claim != row.claim) std::printf("\n%s\n", row.claim);
    if (claim != row.claim || cols != columns)
      std::printf("  %-24s%s %9s\n", "", cols.c_str(), "wall_s*");
    claim = row.claim;
    columns = cols;
    std::printf("  %-24s", row.label.c_str());
    for (const BenchResult& v : values)
      std::printf(v.value == std::floor(v.value) ? " %*.0f" : " %*.2f", width(v), v.value);
    std::printf(" %9.1f\n", wall_s);
    std::fflush(stdout);
    for (const BenchResult& v : values)
      results.emplace_back(std::string(row.claim) + "/" + row.label + "/" + v.name, v.value,
                           v.unit);
  }
  std::printf("\n* wall_s is host-dependent wall-clock time: printed, never gated.\n\n");

  Results by_name;
  for (const BenchResult& r : results) by_name[r.name] = r.value;
  int failed = 0;
  for (const auto& [id, predicate, ok] : check(by_name)) {
    failed += !ok;
    std::printf("%s %s: %s\n", ok ? "PASS" : "FAIL", id, predicate);
  }
  failed += !unsafe.empty();
  std::printf("%s SAFETY: honest outputs are prefix-consistent in every run\n",
              unsafe.empty() ? "PASS" : "FAIL");
  for (const std::string& label : unsafe) std::printf("  unsafe run: %s\n", label.c_str());

  if (json_path) {
    if (!bench::write_bench_json(json_path, "paper", "\"rows\":" + std::to_string(rows.size()),
                                 results)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  if (failed) std::printf("bench_paper: %d predicate(s) failed\n", failed);
  return failed ? 1 : 0;
}
