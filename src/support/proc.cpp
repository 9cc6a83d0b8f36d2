#include "support/proc.hpp"

#include <cstdlib>
#include <fstream>
#include <string>

namespace icc::support {

ProcMemory proc_memory() {
  ProcMemory m;
#if defined(__linux__)
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    int64_t* dst = nullptr;
    if (line.rfind("VmRSS:", 0) == 0) dst = &m.rss_kb;
    else if (line.rfind("VmHWM:", 0) == 0) dst = &m.peak_rss_kb;
    if (dst != nullptr) *dst = std::strtoll(line.c_str() + 6, nullptr, 10);
  }
#endif
  return m;
}

}  // namespace icc::support
