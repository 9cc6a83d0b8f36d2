// Process memory counters read from /proc/self/status.
#pragma once

#include <cstdint>

namespace icc::support {

struct ProcMemory {
  int64_t rss_kb = -1;       ///< VmRSS: resident set now
  int64_t peak_rss_kb = -1;  ///< VmHWM: resident high-water mark
};

/// This process's VmRSS and VmHWM in kB; a field is -1 when it is not
/// available (a platform without /proc, or a missing line).
ProcMemory proc_memory();

}  // namespace icc::support
