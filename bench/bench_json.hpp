// The icc-bench/v1 baseline writer shared by the harness benches. The
// committed BENCH_*.json files are gated in CI by ci/bench_compare.py; their
// values come from virtual time and logical counters, so they are identical
// on any machine.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace icc::bench {

/// One named scalar of a baseline.
struct BenchResult {
  template <class T>
  BenchResult(std::string n, T v, const char* u)
      : name(std::move(n)), value(static_cast<double>(v)), unit(u) {}
  std::string name;
  double value;
  const char* unit;
};

/// Writes {"schema":"icc-bench/v1","bench":...,"config":{config},"results":[...]}
/// with one result per line; false if the file cannot be written.
inline bool write_bench_json(const char* path, const char* bench, const std::string& config,
                             const std::vector<BenchResult>& results) {
  using support::json::escape;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"schema\":\"icc-bench/v1\",\"bench\":\"" << escape(bench) << "\",\"config\":{"
      << config << "},\"results\":[";
  char buf[64];
  for (size_t i = 0; i < results.size(); ++i) {
    if (i) out << ",";
    std::snprintf(buf, sizeof buf, "%.3f", results[i].value);
    out << "\n  {\"name\":\"" << escape(results[i].name) << "\",\"value\":" << buf
        << ",\"unit\":\"" << escape(results[i].unit) << "\"}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace icc::bench
