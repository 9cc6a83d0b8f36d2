// Longitudinal telemetry: a windowed time-series recorder over the metrics
// Registry.
//
// Every other telemetry artifact (metrics snapshot, journal, critical path,
// runtime profile) describes a run at exit; the time-series gives it a time
// axis. At every fixed VIRTUAL-TIME window boundary (the engine's tick hook,
// sim/engine.hpp::set_tick) the recorder closes a window capturing
//
//   * per-window deltas of every Registry counter (zero deltas omitted),
//   * gauge samples at the boundary,
//   * windowed snapshots of a configured histogram set (commit latency,
//     round time, finalize gap) — diffed cumulatively, never reset, so the
//     final metrics snapshot is unchanged by recording,
//   * per-round leader identity + outcome tallies (the beacon-bias feed:
//     rounds led per party, honest/corrupt-leader, leader-block, clean).
//
// Determinism contract (same as the journal, DESIGN.md §6): window
// boundaries are virtual time, counter updates are commutative, gauge sets
// and the round feed ride the defer queue, so the same seed produces a
// byte-identical series at any thread count, with the recorder on or off.
// The ONE exemption — mirroring obs/runtime.hpp — is the opt-in "wall"
// lines (RSS, stream drop counters): explicitly labeled non-deterministic,
// emitted as separate `"type":"wall"` records that never mix into the
// deterministic window bytes.
//
// Bounded memory for long-horizon (soak) runs comes from hierarchical
// decimation: the last `full_res` windows are kept at full resolution; when
// a level overflows, its 10 oldest windows merge into one 10× coarser
// window on the next level (counters add, histogram buckets add and
// re-resolve, gauges keep the newest sample), cascading upward. A window's
// `res` field says how many base windows it covers. Independently of the
// in-memory hierarchy, an optional append-only stream sink receives every
// full-resolution window as it closes (schema icc-series/v1 JSONL), so a
// million-round soak holds O(full_res · log) windows in RAM while the file
// keeps everything.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace icc::obs {

/// Run-identifying header, written as the first icc-series/v1 line. The
/// corrupt slot list lets offline analyzers (icc_inspect drift) restrict the
/// leader-uniformity test to honest parties.
struct SeriesMeta {
  uint32_t n = 0;
  uint32_t t = 0;
  std::string protocol;
  uint64_t seed = 0;
  int64_t window_us = 0;
  uint64_t full_res = 0;
  bool wall = false;  ///< run emits non-deterministic wall lines
  std::vector<uint32_t> corrupt;
  static constexpr const char* kSchema = "icc-series/v1";
};

/// Windowed view of one histogram: the delta of the cumulative bucket state
/// across the window. Percentiles are nearest-rank over bucket upper bounds
/// (integer µs/values — no floats anywhere in the deterministic bytes);
/// `max_le` is the upper bound of the highest non-empty bucket.
struct SeriesHist {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t p50 = 0;
  int64_t p90 = 0;
  int64_t p99 = 0;
  int64_t max_le = 0;
  /// In-memory only (decimation merges re-resolve percentiles from these);
  /// not exported, empty on parsed windows.
  std::vector<uint64_t> buckets;
  uint64_t overflow = 0;
};

/// One closed window. `seq` is the index of the first base window covered;
/// `res` how many base windows were merged in (1 = full resolution).
struct SeriesWindow {
  uint64_t seq = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint32_t res = 1;
  uint64_t rounds = 0;        ///< rounds completed in the window
  uint64_t leader_block = 0;  ///< ... finishing on the leader's block
  uint64_t clean = 0;         ///< ... with N ⊆ {B} (finalization share cast)
  uint64_t honest_leader = 0;
  uint64_t corrupt_leader = 0;
  std::vector<std::pair<uint32_t, uint64_t>> leaders;  ///< party → rounds led
  std::vector<std::pair<std::string, uint64_t>> counters;  ///< deltas, name-sorted
  std::vector<std::pair<std::string, int64_t>> gauges;     ///< boundary samples
  std::vector<std::pair<std::string, SeriesHist>> hists;
};

/// One non-deterministic wall-clock sample (opt-in; see header comment).
struct SeriesWall {
  uint64_t seq = 0;
  int64_t rss_kb = -1;
  int64_t peak_rss_kb = -1;
  uint64_t dropped = 0;  ///< stream-sink window lines dropped so far (I/O)
};

struct SeriesConfig {
  int64_t window_us = 1'000'000;  ///< window length (virtual µs)
  uint64_t full_res = 512;        ///< full-resolution windows kept (min 16)
  bool wall = false;              ///< emit wall lines (non-deterministic)
  /// Histograms windowed per boundary. Defaults cover the soak questions:
  /// commit latency (finalize_us), round time (notarize_us), finalize gap.
  std::vector<std::string> hist_names = {
      "consensus.finalize_us", "consensus.notarize_us", "consensus.finalize_gap_rounds"};
};

/// The recorder. Not owned by the Registry: benches build one over their own
/// registry and drive boundaries by hand; the harness builds one inside Obs
/// and drives it from the engine tick. All methods except on_round() are
/// coordinating-thread-only (quiescent points); on_round() defers itself.
class TimeSeries {
 public:
  TimeSeries(Registry* registry, SeriesConfig config);

  SeriesMeta& meta() { return meta_; }
  const SeriesMeta& meta() const { return meta_; }
  const SeriesConfig& config() const { return config_; }

  /// Open the append-only stream sink: writes the meta line now, then every
  /// full-resolution window (plus its wall line when configured) as it
  /// closes. Set the meta first. False on I/O error.
  bool open_stream(const std::string& path);
  bool streaming() const { return stream_.is_open(); }
  void flush();

  /// Per-round leader/outcome feed (PartyProbe::on_round_done). Every honest
  /// party reports each round; the first report in canonical order wins
  /// (deduplicated by round number), so the tallies are deterministic.
  /// Defers itself inside parallel regions, like Gauge::set.
  void on_round(uint64_t round, uint32_t leader, bool honest, bool leader_block,
                bool clean);

  /// Close the window ending at `boundary_us` (engine tick hook). Reads the
  /// registry, appends the window, streams it, decimates.
  void on_boundary(int64_t boundary_us);

  uint64_t windows_closed() const { return next_seq_; }
  /// Stream-sink lines that failed to write (I/O); exports are never
  /// silently partial — the icc driver warns loudly when nonzero.
  uint64_t dropped() const { return dropped_; }

  /// Decimated in-memory windows, oldest → newest.
  std::vector<const SeriesWindow*> windows() const;

  // --- export (deterministic except wall lines) ---
  std::string meta_json() const;
  static std::string window_json(const SeriesWindow& w);
  static std::string wall_json(const SeriesWall& w);
  /// Meta + decimated windows (+ retained wall lines when configured).
  std::string to_jsonl() const;
  bool write_jsonl(const std::string& path) const;

  // --- parsing (icc_inspect drift, tests), through support/json ---
  /// The meta line comes first; unknown record types and keys are skipped.
  /// Parsing stops at the first line that is not valid JSON or has a known
  /// field of the wrong type, and `error` names that line.
  struct Parsed {
    SeriesMeta meta;
    bool has_meta = false;
    std::vector<SeriesWindow> windows;
    std::vector<SeriesWall> wall;
    std::string error;  ///< "" when the whole document parsed
  };
  static Parsed parse_jsonl(const std::string& text);

 private:
  void on_round_in_order(uint64_t round, uint32_t leader, bool honest, bool leader_block,
                         bool clean);
  void close_window(int64_t boundary_us);
  void decimate();
  /// Merge (and pop) the `count` oldest windows of `level` into one coarser
  /// window; histogram percentiles are re-resolved from the merged buckets.
  SeriesWindow merge_windows(std::deque<SeriesWindow>& level, size_t count);
  static void resolve_hist(SeriesHist* h, const std::vector<int64_t>& bounds);

  Registry* registry_;
  SeriesConfig config_;
  SeriesMeta meta_;

  // Cumulative snapshots from the previous boundary (diffed, never reset).
  std::map<std::string, uint64_t> prev_counters_;
  struct HistPrev {
    std::vector<uint64_t> buckets;
    uint64_t overflow = 0;
    uint64_t count = 0;
    int64_t sum = 0;
  };
  std::map<std::string, HistPrev> prev_hists_;

  // Current (open) window's round tallies.
  std::map<uint32_t, uint64_t> open_leaders_;
  uint64_t open_rounds_ = 0, open_leader_block_ = 0, open_clean_ = 0;
  uint64_t open_honest_ = 0, open_corrupt_ = 0;
  std::set<uint64_t> seen_rounds_;  ///< dedup (pruned 256 behind the max)

  // Decimation hierarchy: levels_[0] = full resolution, levels_[k] = 10^k.
  std::vector<std::deque<SeriesWindow>> levels_;
  uint64_t next_seq_ = 0;
  int64_t last_boundary_ = 0;

  std::deque<SeriesWall> wall_;  ///< retained wall samples (bounded)
  std::ofstream stream_;
  uint64_t dropped_ = 0;
};

}  // namespace icc::obs
