// Table 1 reproduction: "Average block rate and sent traffic" for a small
// (13-node) and a large (40-node) subnet under three scenarios:
//   (a) without load           — blocks carry only management information,
//   (b) with load              — 100 state-changing requests/s of 1 KB each,
//   (c) with load and node failures — one third of the nodes silent.
//
// Setup mirrors Section 5: ICC1 with the gossip sub-layer over a WAN whose
// ping RTTs lie in 6-110 ms with loss < 0.001. Two knobs the paper does not
// publish are calibrated once, and documented in EXPERIMENTS.md:
//   * epsilon (the "governor" of eq. 2) — set per subnet size to land the
//     no-load block rate near the deployment's (1.09 / 0.41 blocks/s);
//   * per-block management payload (the deployment's blocks are never empty:
//     ingress metadata, signature batches, etc.).
// The absolute Mb/s cannot match the paper exactly (their numbers include
// client chatter, key resharing, logs and metrics; Section 5 says so); the
// comparison targets the paper's *shape*: load adds ~3 Mb/s of gossip
// traffic, failures cut the block rate ~2.5x and reduce traffic.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "harness/cluster.hpp"
#include "smr/smr.hpp"

namespace {

using namespace icc;

struct Scenario {
  const char* name;
  bool load;
  bool failures;
};

struct Row {
  double blocks_per_s;
  double mbps;
};

Row run_scenario(size_t n, size_t t, bool load, bool failures, sim::Duration window,
                 sim::Duration epsilon, sim::Duration delta_bnd) {
  std::vector<std::shared_ptr<smr::CommandQueue>> queues(n);
  std::vector<std::shared_ptr<smr::Replica>> replicas(n);
  for (size_t i = 0; i < n; ++i) {
    queues[i] = std::make_shared<smr::CommandQueue>();
    replicas[i] = std::make_shared<smr::Replica>(queues[i], std::make_shared<smr::KvStore>());
  }

  harness::ClusterOptions o;
  o.n = n;
  o.t = t;
  o.protocol = harness::Protocol::kIcc1;
  o.seed = 1234 + n;
  o.delta_bnd = delta_bnd;
  o.epsilon = epsilon;
  o.record_payloads = true;  // replicas need the command batches
  o.prune_lag = 8;
  o.delay_model = [](size_t num, uint64_t seed) {
    sim::WanDelay::Config wan;
    wan.n = num;
    wan.seed = seed;
    wan.loss_probability = 0.0005;
    return std::make_unique<sim::WanDelay>(wan);
  };
  o.payload_factory = [&](sim::PartyIndex i) { return queues[i]; };
  o.on_commit = [&](sim::PartyIndex self, const consensus::CommittedBlock& b) {
    replicas[self]->on_commit(b);
  };
  if (failures) {
    for (size_t i = 0; i < n / 3; ++i) {
      o.corrupt.emplace_back(static_cast<sim::PartyIndex>(3 * i + 2), harness::Crashed{});
    }
  }
  harness::Cluster cluster(o);

  // Every block carries management information (the deployment's no-load
  // blocks are far from empty); modeled as a fixed 48 KB command.
  uint64_t next_id = 1;
  const size_t kManagementBytes = 48 * 1024;
  std::function<void()> mgmt_pump = [&] {
    smr::Command cmd;
    cmd.id = next_id++;
    cmd.data.assign(kManagementBytes, 0x11);
    for (size_t p = 0; p < n; ++p) {
      if (replicas[p]) replicas[p]->submit(cmd);
    }
    if (cluster.sim().engine().now() < window) {
      cluster.sim().engine().schedule_after(sim::msec(500), mgmt_pump);
    }
  };
  cluster.sim().engine().schedule_at(0, mgmt_pump);

  // 100 requests/s x 1 KB, pumped every 100 ms. Ingress messages reach every
  // replica (the deployment gossips them subnet-wide), so whichever party
  // the beacon ranks first can include them. Declared at function scope:
  // scheduled events reference this object during run_for.
  std::function<void()> load_pump = [&] {
    for (int i = 0; i < 10; ++i) {
      smr::Command cmd;
      cmd.id = next_id++;
      cmd.data.assign(1024, 0x5a);
      for (size_t p = 0; p < n; ++p) replicas[p]->submit(cmd);
    }
    if (cluster.sim().engine().now() < window) {
      cluster.sim().engine().schedule_after(sim::msec(100), load_pump);
    }
  };
  if (load) cluster.sim().engine().schedule_at(0, load_pump);

  cluster.run_for(window);

  auto safety = cluster.check_safety();
  if (safety) std::fprintf(stderr, "SAFETY VIOLATION: %s\n", safety->c_str());

  const auto& m = cluster.sim().network().metrics();
  double secs = sim::to_sec(window);
  Row row;
  row.blocks_per_s = cluster.blocks_per_second(window);
  double sum = 0;
  size_t live = 0;
  for (size_t i = 0; i < n; ++i) {
    if (m.bytes_sent[i] == 0) continue;  // crashed nodes send nothing
    sum += static_cast<double>(m.bytes_sent[i]) * 8.0 / 1e6 / secs;
    live++;
  }
  row.mbps = live ? sum / static_cast<double>(live) : 0.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  int window_s = 30;
  const char* json_path = "BENCH_table1.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      window_s = atoi(argv[i]);
    }
  }
  sim::Duration window = sim::seconds(window_s);

  const Scenario scenarios[] = {{"without load", false, false},
                                {"with load", true, false},
                                {"load + failures", true, true}};

  struct SubnetSpec {
    size_t n, t;
    sim::Duration epsilon;
    sim::Duration delta_bnd;
    double paper_rate[3];
    double paper_mbps[3];
  };
  // epsilon calibrated once to the deployment's no-load block rate;
  // delta_bnd grows with subnet size (larger subnets get more conservative
  // bounds, which is also what makes their failure scenario slower).
  const SubnetSpec subnets[] = {
      {13, 4, sim::msec(800), sim::msec(900), {1.09, 1.10, 0.45}, {1.64, 4.72, 4.39}},
      {40, 13, sim::msec(2300), sim::msec(2000), {0.41, 0.41, 0.16}, {4.63, 7.32, 5.06}},
  };

  std::printf("Table 1: average block rate and sent traffic (window %.0f s)\n",
              sim::to_sec(window));
  std::printf("%-10s %-18s %-24s %-24s\n", "subnet", "scenario", "blocks/s (paper)",
              "Mb/s per node (paper)");
  std::printf("--------------------------------------------------------------------------\n");
  // Named scalars for the committed BENCH_table1.json baseline.
  std::vector<bench::BenchResult> results;
  const char* scenario_key[] = {"no_load", "load", "load_failures"};
  for (const auto& sub : subnets) {
    for (int s = 0; s < 3; ++s) {
      Row r = run_scenario(sub.n, sub.t, scenarios[s].load, scenarios[s].failures, window,
                           sub.epsilon, sub.delta_bnd);
      std::printf("%2zu nodes   %-18s %6.2f   (%4.2f)        %6.2f   (%4.2f)\n", sub.n,
                  scenarios[s].name, r.blocks_per_s, sub.paper_rate[s], r.mbps,
                  sub.paper_mbps[s]);
      std::string prefix = "n" + std::to_string(sub.n) + "/" + scenario_key[s];
      results.push_back({prefix + "/blocks_per_s", r.blocks_per_s, "blocks/s"});
      results.push_back({prefix + "/mbps_per_node", r.mbps, "Mb/s"});
    }
  }
  std::printf("\nNotes: paper traffic includes non-consensus overhead (clients, key\n"
              "resharing, logs, metrics); this harness counts consensus + gossip\n"
              "traffic only. The shape to check: load adds ~3 Mb/s, failures cut\n"
              "block rate ~2.5x and reduce per-node traffic; larger subnets are\n"
              "slower but chattier.\n");

  if (!bench::write_bench_json(json_path, "table1",
                               std::string("\"window_s\":") + std::to_string(window_s) +
                                   ",\"subnets\":[13,40],\"seed_base\":1234",
                               results)) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::printf("wrote %s\n", json_path);
  return 0;
}
