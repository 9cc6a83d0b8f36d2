// The `icc` driver's command line: one parser that turns flags into
// ClusterOptions plus what the driver does around the run.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.hpp"

namespace icc::harness {

/// Cross-group traffic inside a partition window is held until the window
/// closes (then travels with its normal delay): the schedule-level analogue
/// of SynchronySchedule::add_async_window, restricted to the cut.
class PartitionDelay final : public sim::DelayModel {
 public:
  struct Window {
    sim::Time start, end;
    uint32_t split;  ///< parties < split vs >= split
  };
  PartitionDelay(std::unique_ptr<sim::DelayModel> inner, std::vector<Window> windows)
      : inner_(std::move(inner)), windows_(std::move(windows)) {}

  sim::Duration delay(sim::PartyIndex from, sim::PartyIndex to, sim::Time now, size_t bytes,
                      Xoshiro256& rng) override {
    sim::Duration hold = 0;
    for (const Window& w : windows_) {
      const bool cross = (from < w.split) != (to < w.split);
      if (cross && now >= w.start && now < w.end) hold = std::max(hold, w.end - now);
    }
    return hold + inner_->delay(from, to, now, bytes, rng);
  }

 private:
  std::unique_ptr<sim::DelayModel> inner_;
  std::vector<Window> windows_;
};

struct ClusterFlags {
  ClusterOptions options;
  int64_t seconds = 20;  ///< virtual run time
  /// Soak mode when nonzero: run in 30 s chunks until this round (or until
  /// progress stops), with bounded memory; `seconds` is then unused.
  uint64_t rounds = 0;
  /// Asynchrony windows [start, end): all traffic sent inside one stalls
  /// until its end. Add them to the cluster's SynchronySchedule before
  /// running.
  std::vector<std::pair<sim::Time, sim::Time>> async_windows;
  /// Artifact paths; empty = not written. Asking for any turns telemetry on.
  std::string trace, metrics, journal, series, runtime;
};

/// Corrupt slot of the c-th corrupt party (0-based, counted across
/// behaviours) in an n-party cluster: 1, 4, 7, ... (the slots every run
/// within t has always used), then 2, 5, 8, ..., then 0, 3, 6, ...; distinct
/// and in [0, n) for every c < n.
sim::PartyIndex corrupt_slot(size_t c, size_t n);

/// Parses argv[1, argc). On success fills `*out` and returns true; otherwise
/// returns false with `*error` naming the flag (the driver exits 2).
bool parse_cluster_flags(int argc, const char* const* argv, ClusterFlags* out,
                         std::string* error);

/// One line per flag, for the driver's usage message.
extern const char* const kClusterUsage;

}  // namespace icc::harness
