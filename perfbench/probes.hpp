// Layer probes: timed calls into each layer's public functions, from
// outside, on inputs shaped like the workload's own traffic.
//
// Every probe first asserts that the layer gives the correct answer on its
// input (a valid signature verifies and a tampered one does not, decode of
// encode is the identity, parse of serialize is the identity, a cache hit
// is really a hit), so a probe can never end up timing a fast-reject path.
// A failed self-check throws std::runtime_error.
#pragma once

#include <cstddef>
#include <cstdint>

#include "workload.hpp"

namespace perfbench {

struct ProbeInput {
  size_t n = 0;
  size_t t = 0;
  bool real_crypto = true;
  uint64_t seed = 0;
  size_t payload = 0;  ///< block payload bytes measured in the run
};

/// One value per probe, per call (names end in _us / _ns) or rate (_mb_s).
Metrics run_probes(const ProbeInput& in);

}  // namespace perfbench
