// The `icc` driver's flag grammar (harness/flags.hpp): argv -> ClusterFlags,
// or a rejection naming the flag (the driver exits 2), table-driven; plus
// corrupt-slot placement and the driver's exit codes as a subprocess
// (path injected as ICC_BIN).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "harness/flags.hpp"

namespace icc::harness {
namespace {

struct Parsed {
  bool ok = false;
  std::string error;
  ClusterFlags flags;
};

Parsed parse(std::vector<const char*> args) {
  args.insert(args.begin(), "icc");
  Parsed p;
  p.ok = parse_cluster_flags(static_cast<int>(args.size()), args.data(), &p.flags, &p.error);
  return p;
}

std::vector<sim::PartyIndex> slots(const ClusterOptions& o) {
  std::vector<sim::PartyIndex> out;
  for (const auto& [slot, behaviour] : o.corrupt) out.push_back(slot);
  return out;
}

bool is_crash(const CorruptBehavior& b) { return std::holds_alternative<Crashed>(b); }

TEST(ClusterFlags, Defaults) {
  const Parsed p = parse({});
  ASSERT_TRUE(p.ok) << p.error;
  const ClusterOptions& o = p.flags.options;
  EXPECT_EQ(o.protocol, Protocol::kIcc1);
  EXPECT_EQ(o.n, 16u);
  EXPECT_EQ(o.t, 5u);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_EQ(o.delta_bnd, sim::msec(600));
  EXPECT_EQ(o.epsilon, 0);
  EXPECT_EQ(o.payload_size, 4096u);
  EXPECT_EQ(o.crypto, CryptoKind::kFast);
  EXPECT_EQ(o.cup_interval, 0u);
  EXPECT_FALSE(o.adaptive.enabled);
  EXPECT_TRUE(o.corrupt.empty());
  EXPECT_TRUE(p.flags.async_windows.empty());
  EXPECT_EQ(p.flags.seconds, 20);
  EXPECT_EQ(p.flags.rounds, 0u);
  EXPECT_TRUE(o.record_payloads);
  EXPECT_TRUE(o.record_latencies);
  EXPECT_EQ(o.committed_history, 0u);
  EXPECT_EQ(o.max_round, 0u);
  // No artifact asked for: telemetry stays off and nothing is written.
  EXPECT_FALSE(o.obs.enabled);
  EXPECT_TRUE(p.flags.trace.empty() && p.flags.metrics.empty() && p.flags.journal.empty() &&
              p.flags.series.empty() && p.flags.runtime.empty());
  EXPECT_EQ(o.obs.journal_capacity, size_t{1} << 22);
  auto model = o.delay_model(o.n, o.seed);
  EXPECT_NE(dynamic_cast<sim::FixedDelay*>(model.get()), nullptr);
}

struct Case {
  std::vector<const char*> args;
  std::function<void(const ClusterFlags&)> check;
};

TEST(ClusterFlags, EachSpellingSetsItsField) {
  const std::vector<Case> cases = {
      {{"--protocol", "icc0"}, [](auto& f) { EXPECT_EQ(f.options.protocol, Protocol::kIcc0); }},
      {{"--protocol", "icc2"}, [](auto& f) { EXPECT_EQ(f.options.protocol, Protocol::kIcc2); }},
      {{"--n", "7"}, [](auto& f) { EXPECT_EQ(f.options.n, 7u); EXPECT_EQ(f.options.t, 2u); }},
      {{"--t", "3"}, [](auto& f) { EXPECT_EQ(f.options.t, 3u); }},
      {{"--t", "0"}, [](auto& f) { EXPECT_EQ(f.options.t, 0u); }},  // 0 is a value, not "unset"
      {{"--seed", "9"}, [](auto& f) { EXPECT_EQ(f.options.seed, 9u); }},
      {{"--seconds", "3"}, [](auto& f) { EXPECT_EQ(f.seconds, 3); }},
      {{"--delta-ms", "0"},
       [](auto& f) {
         auto model = f.options.delay_model(f.options.n, f.options.seed);
         EXPECT_NE(dynamic_cast<sim::WanDelay*>(model.get()), nullptr);
       }},
      {{"--delta-bnd-ms", "300"}, [](auto& f) { EXPECT_EQ(f.options.delta_bnd, sim::msec(300)); }},
      {{"--epsilon-ms", "20"}, [](auto& f) { EXPECT_EQ(f.options.epsilon, sim::msec(20)); }},
      {{"--adaptive"}, [](auto& f) { EXPECT_TRUE(f.options.adaptive.enabled); }},
      {{"--async", "100:250", "--async", "0:5"},
       [](auto& f) {
         const std::vector<std::pair<sim::Time, sim::Time>> want = {
             {sim::msec(100), sim::msec(250)}, {0, sim::msec(5)}};
         EXPECT_EQ(f.async_windows, want);
       }},
      {{"--partition", "0:500:8"},
       [](auto& f) {
         auto model = f.options.delay_model(f.options.n, f.options.seed);
         EXPECT_NE(dynamic_cast<PartitionDelay*>(model.get()), nullptr);
       }},
      {{"--crash", "1", "--equivocate", "1", "--censor", "1"},
       [](auto& f) {
         const auto& c = f.options.corrupt;
         ASSERT_EQ(c.size(), 3u);
         EXPECT_TRUE(is_crash(c[0].second));
         EXPECT_TRUE(std::get<consensus::ByzantineBehavior>(c[1].second).equivocate);
         EXPECT_TRUE(std::get<consensus::ByzantineBehavior>(c[2].second).empty_payload);
         EXPECT_EQ(slots(f.options), (std::vector<sim::PartyIndex>{1, 4, 7}));
       }},
      {{"--real-crypto"}, [](auto& f) { EXPECT_EQ(f.options.crypto, CryptoKind::kReal); }},
      {{"--cup", "10"}, [](auto& f) { EXPECT_EQ(f.options.cup_interval, 10u); }},
      {{"--payload", "256"}, [](auto& f) { EXPECT_EQ(f.options.payload_size, 256u); }},
      {{"--trace", "t.json"},
       [](auto& f) {
         EXPECT_EQ(f.trace, "t.json");
         EXPECT_TRUE(f.options.obs.enabled && f.options.obs.journal);
         EXPECT_FALSE(f.options.obs.journal_causal);  // only a journal file pays for it
       }},
      {{"--metrics", "m.json"},
       [](auto& f) {
         EXPECT_EQ(f.metrics, "m.json");
         EXPECT_TRUE(f.options.obs.enabled);
         EXPECT_FALSE(f.options.obs.journal);
       }},
      {{"--journal", "j.jsonl"},
       [](auto& f) {
         EXPECT_EQ(f.journal, "j.jsonl");
         EXPECT_TRUE(f.options.obs.enabled && f.options.obs.journal &&
                     f.options.obs.journal_causal);
       }},
      {{"--journal", "j.jsonl", "--no-causal"},
       [](auto& f) { EXPECT_FALSE(f.options.obs.journal_causal); }},
      {{"--journal-capacity", "1000"},
       [](auto& f) { EXPECT_EQ(f.options.obs.journal_capacity, 1000u); }},
      {{"--series", "s.jsonl", "--window-us", "500000"},
       [](auto& f) {
         EXPECT_EQ(f.series, "s.jsonl");
         EXPECT_TRUE(f.options.obs.enabled && f.options.obs.series);
         EXPECT_FALSE(f.options.obs.series_wall);
         EXPECT_EQ(f.options.obs.series_window_us, 500000);
       }},
      {{"--runtime", "r.json"},
       [](auto& f) {
         EXPECT_EQ(f.runtime, "r.json");
         EXPECT_TRUE(f.options.obs.enabled && f.options.obs.runtime);
         EXPECT_FALSE(f.options.obs.journal);
       }},
      {{"--stage-wall-timing"}, [](auto& f) { EXPECT_TRUE(f.options.obs.stage_wall_timing); }},
      // Soak mode implies the bounded-memory settings.
      {{"--rounds", "500"},
       [](auto& f) {
         EXPECT_EQ(f.rounds, 500u);
         EXPECT_EQ(f.options.max_round, 500u);
         EXPECT_FALSE(f.options.record_payloads);
         EXPECT_FALSE(f.options.record_latencies);
         EXPECT_EQ(f.options.committed_history, 1024u);
         EXPECT_TRUE(f.options.obs.series_wall);
         EXPECT_FALSE(f.options.obs.enabled);  // until an artifact is asked for
       }},
  };
  for (const Case& c : cases) {
    const Parsed p = parse(c.args);
    SCOPED_TRACE(c.args.front());
    ASSERT_TRUE(p.ok) << p.error;
    c.check(p.flags);
  }
}

TEST(ClusterFlags, RejectsNamingTheFlag) {
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases = {
      {{"--bogus"}, "unknown flag --bogus"},
      {{"--n"}, "missing value for --n"},
      {{"--seed", "7", "--journal"}, "missing value for --journal"},
      {{"--n", "abc"}, "--n: 'abc'"},
      {{"--n", "0"}, "--n: '0'"},
      {{"--n", "5x"}, "--n: '5x'"},
      {{"--n", "+5"}, "--n: '+5'"},
      {{"--n", ""}, "--n: ''"},
      {{"--seed", "-1"}, "--seed: '-1'"},
      {{"--seconds", "99999999999999999999"}, "--seconds:"},
      {{"--protocol", "icc3"}, "--protocol: unknown protocol 'icc3'"},
      {{"--t", "16"}, "--t: 16 must be below n = 16"},
      {{"--async", "5"}, "--async: bad window '5'"},
      {{"--async", "5:3"}, "--async: bad window '5:3'"},
      {{"--async", "5:5"}, "--async: bad window"},
      {{"--async", "a:9"}, "--async: bad window"},
      {{"--async", "1:2:3"}, "--async: bad window"},
      {{"--async", ":9"}, "--async: bad window"},
      {{"--partition", "1:2"}, "--partition: bad window '1:2'"},
      {{"--partition", "2:1:3"}, "--partition: bad window"},
      {{"--partition", "1:2:3:4"}, "--partition: bad window"},
      {{"--partition", "1:2:0"}, "--partition: split 0 is not in [1, n)"},
      {{"--partition", "1:2:16"}, "--partition: split 16 is not in [1, n)"},
      {{"--n", "4", "--crash", "5"}, "5 corrupt parties exceed n = 4"},
      {{"--n", "4", "--crash", "2", "--equivocate", "2", "--censor", "1"},
       "5 corrupt parties exceed n = 4"},
      {{"--rounds", "0"}, "--rounds: '0'"},
  };
  for (const auto& [args, message] : cases) {
    const Parsed p = parse(args);
    EXPECT_FALSE(p.ok) << message;
    EXPECT_NE(p.error.find(message), std::string::npos) << p.error << " vs " << message;
  }
}

// Corrupt party c sits at 1, 4, 7, ... (the slots within-t runs always
// used), then 2, 5, ..., then 0, 3, ...: distinct and in range up to n.
TEST(ClusterFlags, CorruptSlotsAreDistinctAndInRange) {
  for (size_t n : {4u, 6u, 16u}) {
    std::set<sim::PartyIndex> seen;
    for (size_t c = 0; c < n; ++c) {
      const sim::PartyIndex slot = corrupt_slot(c, n);
      EXPECT_LT(slot, n) << "n=" << n << " c=" << c;
      EXPECT_TRUE(seen.insert(slot).second) << "n=" << n << " c=" << c;
      if (c < (n - 1) / 3) {
        EXPECT_EQ(slot, 1 + 3 * c);  // every run within t
      }
    }
  }
  auto crashed = [](const char* n, const char* crash) {
    const Parsed p = parse({"--n", n, "--crash", crash});
    EXPECT_TRUE(p.ok) << p.error;
    return slots(p.flags.options);
  };
  EXPECT_EQ(crashed("4", "2"), (std::vector<sim::PartyIndex>{1, 2}));
  EXPECT_EQ(crashed("4", "4"), (std::vector<sim::PartyIndex>{1, 2, 0, 3}));
  EXPECT_EQ(crashed("6", "6"), (std::vector<sim::PartyIndex>{1, 4, 2, 5, 0, 3}));
  EXPECT_EQ(crashed("16", "5"), (std::vector<sim::PartyIndex>{1, 4, 7, 10, 13}));
  EXPECT_EQ(crashed("16", "7"), (std::vector<sim::PartyIndex>{1, 4, 7, 10, 13, 2, 5}));
}

// Two of four parties crashed leave no quorum of n - t = 3: nothing commits.
// (Slot 4 used to be assigned here, a party that does not exist, so one
// crash silently went missing and the run committed blocks.)
TEST(ClusterFlags, TwoCrashedOfFourCommitNothing) {
  const Parsed p =
      parse({"--protocol", "icc0", "--n", "4", "--crash", "2", "--delta-ms", "10"});
  ASSERT_TRUE(p.ok) << p.error;
  Cluster cluster(p.flags.options);
  cluster.run_for(sim::seconds(5));
  EXPECT_EQ(cluster.min_honest_committed(), 0u);
  EXPECT_EQ(cluster.check_safety(), std::nullopt);
}

int run_icc(const std::string& args) {
  const int status = std::system((std::string(ICC_BIN) + " " + args + " >/dev/null 2>&1").c_str());
  EXPECT_TRUE(WIFEXITED(status)) << args;  // a signal (once SIGFPE) is a failure
  return WEXITSTATUS(status);
}

TEST(ClusterFlags, DriverExitCodes) {
  EXPECT_EQ(run_icc("--n 4 --crash 4 --seconds 2"), 0);  // no honest party left
  EXPECT_EQ(run_icc("--n 4 --crash 5"), 2);
  EXPECT_EQ(run_icc("--n abc"), 2);
  EXPECT_EQ(run_icc("--bogus"), 2);
}

}  // namespace
}  // namespace icc::harness
