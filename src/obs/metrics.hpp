// Low-overhead metrics: counters, gauges, fixed-bucket histograms, and a
// Registry that snapshots everything to JSON.
//
// Hot-path discipline (same as support/log.hpp): a probe that fires on every
// simulated message must cost a handful of instructions. Counter::add and
// Gauge::add are single relaxed atomic adds; Histogram::record is one binary
// search over a small fixed bound vector plus a few relaxed atomic updates.
//
// Memory-order contract (DESIGN.md §6 "Threading model"):
//
//   * Hot-path updates (Counter::add, Gauge::add, Histogram::record) are
//     std::memory_order_relaxed read-modify-writes. They are *commutative*:
//     the final value depends only on the multiset of updates, never on the
//     interleaving — which is what keeps metrics snapshots bit-identical
//     across thread counts when the parallel engine (sim/engine.hpp) steps
//     parties concurrently. Relaxed suffices because no metric value is used
//     to synchronize anything: readers only run at quiescent points.
//   * Gauge::set is last-write-wins and therefore NOT commutative; inside a
//     parallel region it routes through the engine's deterministic defer
//     queue (support/defer.hpp), so the "last" write is the last one in
//     canonical event order, not in wall-clock order.
//   * Registration (Registry::counter/gauge/histogram) and reads
//     (value()/snapshot_json()/merge()) are NOT thread-safe; they run on the
//     coordinating thread before the run starts or after it quiesces. Only
//     the update methods above may be called concurrently.
//
// Metric objects are owned by the Registry and have stable addresses for the
// lifetime of the Registry, so probes cache raw pointers and never pay the
// name lookup after attachment.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace icc::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(uint64_t d = 1) { value_.fetch_add(d, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void merge(const Counter& o) { add(o.value()); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depths, watermarks). add() is
/// safe from concurrent probes; set() defers inside parallel regions (see
/// the memory-order contract above).
class Gauge {
 public:
  void set(int64_t v);
  void add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram over int64 samples (virtual-time durations in µs,
/// sizes, counts). Bucket i counts samples <= bounds[i] (cumulative-style
/// "le" upper bounds, first matching bucket wins); samples above the last
/// bound land in the overflow bucket. Sum/min/max are exact regardless of
/// bucket resolution. All of record()'s updates commute (adds plus CAS
/// min/max), so concurrent recording yields the same final state as any
/// sequential ordering of the same samples.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);
  /// Move = relaxed snapshot of the scalar cells (atomics are immovable);
  /// only used at quiescent points (e.g. harness::Stats::to_histogram).
  Histogram(Histogram&& o) noexcept
      : bounds_(std::move(o.bounds_)),
        buckets_(std::move(o.buckets_)),
        overflow_(o.overflow_.load(std::memory_order_relaxed)),
        count_(o.count_.load(std::memory_order_relaxed)),
        sum_(o.sum_.load(std::memory_order_relaxed)),
        min_(o.min_.load(std::memory_order_relaxed)),
        max_(o.max_.load(std::memory_order_relaxed)) {}

  void record(int64_t v);
  void merge(const Histogram& o);  ///< requires identical bounds

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t min() const { return count() ? min_.load(std::memory_order_relaxed) : 0; }
  int64_t max() const { return count() ? max_.load(std::memory_order_relaxed) : 0; }
  double mean() const {
    const uint64_t c = count();
    return c ? static_cast<double>(sum()) / static_cast<double>(c) : 0.0;
  }
  /// q in [0, 1]; nearest-rank over the bucket upper bounds (resolution is
  /// the bucket width; exact min/max are available separately).
  int64_t percentile(double q) const;

  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Snapshot of the per-bucket counts (by value: the live buckets are
  /// atomics). Quiescent-point API, like every reader here.
  std::vector<uint64_t> bucket_counts() const;
  uint64_t overflow() const { return overflow_.load(std::memory_order_relaxed); }

  /// Exponential bucket bounds: start, start*factor, ... (count bounds).
  static std::vector<int64_t> exponential(int64_t start, double factor, size_t count);
  /// Linear bucket bounds: step, 2*step, ... (count bounds).
  static std::vector<int64_t> linear(int64_t step, size_t count);

 private:
  std::vector<int64_t> bounds_;                 // ascending "le" upper bounds
  std::vector<std::atomic<uint64_t>> buckets_;  // one per bound
  std::atomic<uint64_t> overflow_{0};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// Named metric store. Lookup is by exact name; re-registering a name
/// returns the existing metric (so n parties naturally share aggregate
/// metrics). Snapshot order is deterministic (name-sorted). Registration
/// and snapshots are coordinating-thread-only; see the header contract.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is used only on first registration of `name`.
  Histogram& histogram(const std::string& name, std::vector<int64_t> bounds);

  /// Merge every metric of `o` into this registry (same-name histograms
  /// must have identical bounds; gauges take the other's value).
  void merge(const Registry& o);

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string snapshot_json() const;

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Visit every counter / gauge in name order. Coordinating-thread-only,
  /// like every reader here; the time-series recorder (obs/timeseries.hpp)
  /// diffs successive visits at window boundaries.
  void visit_counters(
      const std::function<void(const std::string&, const Counter&)>& fn) const;
  void visit_gauges(const std::function<void(const std::string&, const Gauge&)>& fn) const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace icc::obs
