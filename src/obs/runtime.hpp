// Wall-clock runtime observatory (DESIGN.md §5.3).
//
// Everything else under src/obs/ lives in *virtual* time and is part of the
// byte-determinism contract: journals, metrics and traces must be identical
// at any thread count. This file is the deliberate exception. The
// RuntimeProfiler answers the questions virtual time cannot — where does
// wall-clock go across worker threads, which shard locks contend, how far
// from linear is the executor — and its output is therefore explicitly
// NON-DETERMINISTIC: timestamps come from steady_clock, counters depend on
// OS scheduling, and nothing here is ever mixed into journal or metrics
// bytes (asserted by tests/obs/runtime_test.cpp). Diffing two runtime
// reports across runs or thread counts is a category error.
//
// Recording model:
//   * Per-thread *lanes*, registered lazily through a thread_local cache the
//     first time a thread touches the profiler. Spans are RAII scopes
//     (SpanScope), so on one lane they nest properly: each lane keeps a
//     stack of its open spans and adds a span's count, inclusive and
//     exclusive time and max to its kind's totals the moment it closes.
//     The totals therefore cover the whole run. Each lane also owns a
//     fixed-capacity span ring (kind, start, end, two numeric args) that
//     feeds only the Chrome trace — an overflowing ring overwrites its
//     oldest spans and counts them in `spans_dropped`, it never corrupts or
//     reallocates.
//   * Lock-wait sampling is try_lock-first (SampledLock): an uncontended
//     acquisition costs the try_lock plus one counter bump and reads no
//     clock; only the contended path pays two steady_clock reads to time
//     the blocking lock().
//   * Executor health flows in through support::TaskProbe (support/ cannot
//     depend on obs/, so the executor sees only that interface): idle
//     windows, slices claimed vs stolen per thread. The engine adds
//     defer-queue depth high-water; RSS gauges are read from /proc at
//     export time.
//
// Disabled cost: every instrumentation site is a single pointer check
// (profiler absent = null), the same null-probe discipline as obs.hpp.
//
// Exports: an `icc-runtime/v1` JSON report (parse_runtime_report /
// analyze_runtime round-trip it, icc_inspect runtime consumes it offline) and
// a Chrome trace with one track per lane that trace_json() places
// side-by-side with the virtual-time events rendered from the journal in
// one trace container.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/executor.hpp"

namespace icc::obs {

/// Span kinds recorded by the instrumented subsystems. The report names
/// each kind, so the order is in-process only.
enum class TaskKind : uint8_t {
  kEngineBatch = 0,  ///< coordinating thread: one run_batch (arg0 = batch id, arg1 = events)
  kParallelRegion,   ///< coordinating thread: inside executor->parallel_for (arg0 = groups)
  kPartyGroup,       ///< worker: one owner group's events (arg0 = owner, arg1 = events)
  kDeferReplay,      ///< coordinating thread: deferred side-effect replay (arg0 = closures)
  kInternParse,      ///< worker: parse of a new interned payload (arg0 = bytes)
  kCount
};
constexpr size_t kTaskKinds = static_cast<size_t>(TaskKind::kCount);
const char* task_kind_name(TaskKind kind);

/// Sampled lock sites. The journal has no reservation mutex to sample —
/// journal appends ride the DeferQueue onto the coordinating thread
/// (DESIGN.md §6) — so the executor's batch-queue mutex stands in as the
/// coordination lock alongside the sharded caches.
enum class LockSite : uint8_t {
  kExecutorQueue = 0,  ///< support::Executor batch deque mutex
  kVerifierCache,      ///< per-party verdict-cache shard mutexes
  kInternArtifacts,    ///< InternStore artifact shard mutexes
  kInternVerdicts,     ///< InternStore verdict- and beacon-memo shard mutexes
  kCount
};
constexpr size_t kLockSites = static_cast<size_t>(LockSite::kCount);
const char* lock_site_name(LockSite site);

// ---------------------------------------------------------------------------
// Report structures (what the JSON serializes; icc_inspect runtime's model)
// ---------------------------------------------------------------------------

struct LockStat {
  uint64_t acquisitions = 0;  ///< sampled acquisitions (uncontended + contended)
  uint64_t contended = 0;     ///< acquisitions that had to block
  int64_t wait_ns = 0;        ///< total blocked time
  int64_t max_wait_ns = 0;    ///< worst single wait
};

struct TaskAgg {
  uint64_t count = 0;
  int64_t total_ns = 0;      ///< inclusive wall time
  int64_t exclusive_ns = 0;  ///< total minus same-lane nested spans
  int64_t max_ns = 0;
};

struct WorkerReport {
  std::string name;           ///< "main", "worker-K" or "thread-K"
  int64_t busy_ns = 0;        ///< lane window minus measured idle
  int64_t idle_ns = 0;        ///< blocked waiting for work (cv / join waits)
  int64_t cpu_ns = -1;        ///< per-thread CPU over the window; -1 = unknown
  uint64_t claimed = 0;       ///< slices run from batches this thread published
  uint64_t stolen = 0;        ///< slices run from batches another thread published
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;  ///< ring overwrites (the trace is then partial)
  std::array<TaskAgg, kTaskKinds> tasks{};
  std::array<LockStat, kLockSites> locks{};
};

struct RuntimeReport {
  uint32_t threads = 1;      ///< configured pool size (including the caller)
  int64_t wall_ns = 0;       ///< profiler construction -> export
  uint64_t defer_high_water = 0;  ///< deepest per-event defer queue seen
  int64_t rss_kb = -1;       ///< VmRSS at export; -1 = unknown
  int64_t peak_rss_kb = -1;  ///< VmHWM at export; -1 = unknown
  // Cluster-shared intern store physical counters (filled by the harness;
  // absent when interning is off). PHYSICAL means benignly racy and
  // scheduling-dependent — never compare across runs or thread counts.
  bool has_intern = false;
  uint64_t intern_parses = 0;
  uint64_t intern_decode_hits = 0;
  uint64_t intern_real_verifications = 0;
  uint64_t intern_memo_hits = 0;
  uint64_t intern_primed = 0;
  std::vector<WorkerReport> workers;
};

/// Derived parallel-efficiency numbers (the analysis icc_inspect runtime
/// prints; shared here so benches can print the same summary in-process).
struct RuntimeAnalysis {
  /// Basis for busy time: per-thread CPU when the platform provides it
  /// (machine-honest on oversubscribed hosts), else wall-minus-idle.
  bool cpu_basis = false;
  double utilization = 0;      ///< sum(busy) / (threads * wall)
  double serial_fraction = 1;  ///< Amdahl f from one run; clamped to (0, 1]
  double amdahl_max = 1;       ///< 1 / f
  /// Wall share of the coordinator covered by parallel regions: a
  /// host-independent structural bound on the parallelizable fraction.
  double parallel_region_share = 0;
  /// Amdahl projection S(p) = 1 / (f + (1-f)/p).
  double projected_speedup(double p) const {
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / p);
  }
};

RuntimeAnalysis analyze_runtime(const RuntimeReport& report);

/// Serialize to the icc-runtime/v1 JSON document.
std::string runtime_report_json(const RuntimeReport& report);
/// Parse an icc-runtime/v1 document; nullopt (with *error set) on malformed
/// or truncated input. Exact inverse of runtime_report_json for every field
/// the analysis consumes.
std::optional<RuntimeReport> parse_runtime_report(const std::string& json,
                                                  std::string* error);

// ---------------------------------------------------------------------------
// The live profiler
// ---------------------------------------------------------------------------

class RuntimeProfiler final : public support::TaskProbe {
 public:
  /// `span_capacity` = trace ring slots per lane (0 keeps lanes and
  /// per-kind totals but traces no spans).
  explicit RuntimeProfiler(size_t span_capacity);
  ~RuntimeProfiler() override;

  RuntimeProfiler(const RuntimeProfiler&) = delete;
  RuntimeProfiler& operator=(const RuntimeProfiler&) = delete;

  /// Configured pool size for utilization math (set by the harness; defaults
  /// to 1).
  void set_threads(size_t threads) { threads_ = threads; }

  static int64_t now_ns();

  // --- spans (called by SpanScope, which null-checks; same thread, nested) ---
  void span_begin();
  void span_end(TaskKind kind, int64_t t0_ns, int64_t t1_ns, uint64_t arg0, uint64_t arg1);

  // --- lock sampling (called by SampledLock) ---
  void lock_sample(LockSite site, int64_t wait_ns);

  // --- engine health (coordinating thread only) ---
  void defer_depth(size_t depth) {
    if (depth > defer_high_water_) defer_high_water_ = depth;
  }

  // --- support::TaskProbe (executor health) ---
  void idle_begin(bool worker) override;
  void idle_end() override;
  void slice(bool stolen) override;
  void queue_lock_wait(int64_t wait_ns) override {
    lock_sample(LockSite::kExecutorQueue, wait_ns);
  }

  /// Snapshot everything into a report. Call at a quiescent point (no batch
  /// in flight); parked workers' open idle windows are folded in.
  RuntimeReport make_report() const;

  /// Chrome trace of the span rings: one pid ("icc-runtime"), one tid per
  /// lane, wall-clock µs since profiler start. `virtual_events` (the
  /// journal's trace_events_json, possibly empty) are merged into the same
  /// {"traceEvents": ...} container (distinct pids), so one file shows both
  /// clocks side by side; `journal_dropped` goes into the metadata.
  std::string trace_json(const std::string& virtual_events, uint64_t journal_dropped) const;

 private:
  struct Span {
    int64_t t0_ns = 0;
    int64_t t1_ns = 0;
    uint64_t arg0 = 0;
    uint64_t arg1 = 0;
    TaskKind kind = TaskKind::kEngineBatch;
  };

  /// Per-thread recording lane. Non-atomic fields are written only by the
  /// owning thread during slices, whose effects are ordered before the
  /// coordinator's export by the batch join; the atomics are the fields a
  /// parked worker may still touch (or the exporter read) outside that
  /// happens-before edge.
  struct alignas(64) Lane {
    std::atomic<bool> used{false};
    std::atomic<bool> is_worker{false};
    int64_t start_ns = 0;             ///< registration time (lane window start)
    uint64_t tid = 0;                 ///< OS thread id (0 = unknown)
    int64_t cpu_start_ns = -1;        ///< thread CPU clock at registration
    std::atomic<int64_t> idle_ns{0};  ///< completed idle windows
    std::atomic<int64_t> wait_since_ns{0};  ///< open idle window start (0 = none)
    uint64_t claimed = 0;
    uint64_t stolen = 0;
    std::vector<Span> spans;  ///< trace ring; sized on registration
    uint64_t spans_recorded = 0;
    std::vector<int64_t> open_child_ns;  ///< per open span: time in closed children
    std::array<TaskAgg, kTaskKinds> tasks{};
    std::array<LockStat, kLockSites> locks{};
  };

  /// Bounded lane table: Executor clamps ICC_THREADS to 256; a few extra
  /// slots absorb stray registrations (test drivers, nested callers). A
  /// thread past the bound shares the overflow lane — counters stay sane,
  /// spans are dropped there by capacity accounting like everywhere else.
  static constexpr size_t kMaxLanes = 260;

  Lane& lane();
  Lane& register_lane();

  size_t span_capacity_;
  /// Unique per instance (never reused, unlike the address), so lane()'s
  /// thread-local cache cannot hand a new profiler a freed one's lane.
  uint64_t generation_;
  size_t threads_ = 1;
  int64_t start_ns_ = 0;
  std::atomic<uint32_t> next_lane_{0};
  std::unique_ptr<Lane[]> lanes_;
  uint64_t defer_high_water_ = 0;  ///< coordinating thread only
};

/// RAII span: two steady_clock reads when a profiler is attached, a single
/// pointer check when not.
class SpanScope {
 public:
  SpanScope(RuntimeProfiler* rt, TaskKind kind, uint64_t arg0 = 0, uint64_t arg1 = 0)
      : rt_(rt), kind_(kind), arg0_(arg0), arg1_(arg1) {
    if (rt_ == nullptr) return;
    rt_->span_begin();
    t0_ = RuntimeProfiler::now_ns();
  }
  ~SpanScope() {
    if (rt_ != nullptr) rt_->span_end(kind_, t0_, RuntimeProfiler::now_ns(), arg0_, arg1_);
  }
  /// For args only known at scope exit (e.g. closures replayed).
  void set_arg0(uint64_t v) { arg0_ = v; }
  void set_arg1(uint64_t v) { arg1_ = v; }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  RuntimeProfiler* rt_;
  TaskKind kind_;
  uint64_t arg0_, arg1_;
  int64_t t0_ = 0;
};

/// Try-lock-first sampled mutex guard: uncontended acquisitions count but
/// never read a clock; contended ones time the blocking lock(). With a null
/// profiler this is exactly a lock_guard plus one pointer check.
class SampledLock {
 public:
  SampledLock(std::mutex& mu, RuntimeProfiler* rt, LockSite site) : mu_(mu) {
    if (rt == nullptr) {
      mu_.lock();
      return;
    }
    if (mu_.try_lock()) {
      rt->lock_sample(site, 0);
      return;
    }
    const int64_t t0 = RuntimeProfiler::now_ns();
    mu_.lock();
    rt->lock_sample(site, RuntimeProfiler::now_ns() - t0);
  }
  ~SampledLock() { mu_.unlock(); }
  SampledLock(const SampledLock&) = delete;
  SampledLock& operator=(const SampledLock&) = delete;

 private:
  std::mutex& mu_;
};

/// fprintf the analysis the way icc_inspect runtime does, as one block under
/// the line-atomic log sink mutex so pool-worker ICC_LOG lines cannot
/// interleave mid-summary (support/log.hpp).
void print_runtime_summary(std::FILE* out, const RuntimeReport& report,
                           const RuntimeAnalysis& analysis);

}  // namespace icc::obs
