// Workloads of the repository benchmark and the runner for one repetition.
//
// A repetition builds a fresh cluster from the workload's configuration and
// the run's seed, runs a fixed virtual-time warm-up, then times a fixed
// virtual-time interval. Because both intervals are fixed in virtual time,
// every virtual-time observable of a repetition is an exact function of
// (workload, seed); the wall-clock and CPU cost of the same work is what
// varies between runs and what later changes are expected to move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Named scalar results. Ordered, so printing is deterministic.
using Metrics = std::map<std::string, double>;

enum class Protocol { kIcc0, kIcc1, kIcc2 };

struct Workload {
  const char* name;
  Protocol protocol;
  size_t n;
  size_t t;
  size_t threads;
  bool real_crypto;
  bool intern;
  bool wan;             ///< seeded WanDelay; otherwise FixedDelay(10 ms)
  size_t payload;       ///< fixed payload bytes; 0 = KV client commands
  int64_t warmup_us;    ///< virtual warm-up, untimed
  int64_t measure_us;   ///< virtual measured interval
  /// Nonzero: the cluster's own seed (keys, beacon, hence the leader
  /// schedule), fixed for every run; --seed then drives only the client
  /// command stream. Zero: --seed seeds the cluster and the network.
  uint64_t cluster_seed;
  /// Wall seconds one batch of repetitions took on the 4-vCPU host this
  /// benchmark was sized on. A run makes round(--seconds / batch_seconds)
  /// batches, a count that does not depend on the speed of the host or of
  /// the code, so that every run takes the fastest-segment minimum over as
  /// many samples as any other.
  double batch_seconds;
};

/// Virtual-time granularity of RepResult::segment_wall / segment_cpu.
constexpr int64_t kSegmentUs = 5'000;

/// The workload named `name`, or null.
const Workload* find_workload(const std::string& name);
/// Comma-separated list of the workload names (for usage messages).
std::string workload_names();

struct RepResult {
  double setup_s = 0;   ///< wall time of cluster construction
  double wall_s = 0;    ///< wall time of the measured interval
  double cpu_s = 0;     ///< process CPU time of the measured interval
  /// Wall and CPU seconds of each kSegment of virtual time in the interval.
  /// Repetitions do identical work segment by segment, so the fastest
  /// repetition of each segment estimates its cost without interference.
  std::vector<double> segment_wall, segment_cpu;
  uint64_t blocks = 0;  ///< blocks committed in the measured interval
  /// Virtual-time observables: exact, identical for every repetition of a
  /// (workload, seed), traced or not. The oracle compares them bit for bit.
  Metrics vt;
  /// Counters and wall-clock layer timings of a traced repetition (empty
  /// when untraced).
  Metrics layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Mean payload bytes per committed block (sizes the layer probes).
  double payload_mean = 0;
  /// First correctness violation found, empty when the oracle passed.
  std::string error;
};

/// One repetition. `traced` attaches telemetry and the benchmark's timing
/// wrappers; it must not change any virtual-time observable.
RepResult run_rep(const Workload& w, uint64_t seed, bool traced);

/// Wall seconds to construct (and tear down) the workload's cluster once,
/// without running it.
double time_setup(const Workload& w, uint64_t seed);

}  // namespace perfbench
