// Deterministic discrete-event engine, optionally multi-core.
//
// The classic mode is a single-threaded event loop over a priority queue of
// (time, id, callback). Ties in time are broken by insertion order, which
// makes every run with the same seed and inputs bit-identical — the
// foundation for the reproducibility of every experiment in EXPERIMENTS.md.
//
// With an attached support::Executor (set_executor), run_until() switches to
// a batch-parallel mode that preserves that bit-identical guarantee at any
// thread count (DESIGN.md §6 "Threading model"):
//
//   * All live events at the minimum queued time form a *batch*, ordered by
//     id — exactly the order the classic loop would fire them in.
//   * Each event carries an owner party (deliveries → recipient, timers →
//     the party that set them). Maximal runs of owned events are grouped by
//     owner and the groups run concurrently on the pool; events inside one
//     group run in batch order on one thread, so a party always observes its
//     own program order. Ownerless events are barriers and run solo.
//   * Side effects on shared state are not applied in place: schedules and
//     cancels are captured per event execution (support/defer.hpp) and
//     replayed on the coordinating thread in batch order after the group
//     join. Instrumented subsystems (journal, metrics, harness callbacks)
//     defer through the same queue, so the global mutation order is the
//     classic sequential order, reproduced exactly.
//   * Event ids assigned during parallel execution come from per-execution
//     id blocks carved out of the monotonic counter in batch order, so an
//     id — and therefore the (time, id) tie-break of everything scheduled —
//     never depends on wall-clock interleaving.
//
// Memory stays proportional to the number of PENDING events: callbacks live
// in a map keyed by id and are erased when an event fires or is cancelled,
// and a cancelled id simply vanishes from the map (the queue entry is
// skipped when popped). Long simulations that schedule and cancel millions
// of timers therefore run in bounded space (see engine_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "support/defer.hpp"
#include "support/executor.hpp"

namespace icc::obs {
class RuntimeProfiler;
}

namespace icc::sim {

using EventFn = std::function<void()>;
using EventId = uint64_t;

/// Periodic virtual-time boundary hook (set_tick); receives the boundary
/// timestamp k*interval being crossed.
using TickFn = std::function<void(Time boundary)>;

class Engine {
 public:
  /// Owner tag for events tied to no party: such events are barriers in
  /// parallel mode (they run alone, never concurrently with anything).
  static constexpr uint32_t kNoOwner = UINT32_MAX;

  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (clamped to now()).
  /// Returns an id usable with cancel(). `owner` is the party whose state
  /// the callback touches; kNoOwner forces a barrier in parallel mode.
  EventId schedule_at(Time at, EventFn fn, uint32_t owner = kNoOwner);

  /// Schedule `fn` after a relative delay.
  EventId schedule_after(Duration delay, EventFn fn, uint32_t owner = kNoOwner) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn), owner);
  }

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// no-op (timers race with the events that obsolete them).
  void cancel(EventId id);

  /// Attach a worker pool; run_until() then steps same-time events of
  /// distinct owners concurrently. Null (or a 1-thread executor) restores
  /// the classic sequential loop. The engine does not own the executor.
  void set_executor(support::Executor* executor) { executor_ = executor; }
  support::Executor* executor() const { return executor_; }

  /// Install a periodic virtual-time hook: `fn(k*interval)` fires once for
  /// every boundary k*interval (k = 1, 2, ...) that a run crosses, on the
  /// coordinating thread, at a quiescent point — after every event strictly
  /// before the boundary has run (and its deferred effects replayed) and
  /// before any event at or after it. The hook never injects events, so id
  /// assignment, tie-breaking and the journal byte stream are unchanged
  /// whether a tick is installed or not; the firing sequence is a pure
  /// function of virtual time, hence identical at any thread count. Interval
  /// <= 0 (or a null fn) uninstalls. Boundaries the engine has already moved
  /// past are not retro-fired.
  void set_tick(Duration interval, TickFn fn) {
    if (interval <= 0 || !fn) {
      tick_interval_ = 0;
      tick_fn_ = nullptr;
      return;
    }
    tick_interval_ = interval;
    tick_fn_ = std::move(fn);
    next_tick_ = (now_ / interval + 1) * interval;
  }

  /// Attach the wall-clock profiler (obs/runtime.hpp); null detaches. Spans
  /// record batch/region/group/replay wall time — observation only, never
  /// simulation state, so virtual-time outcomes are unchanged (the probe
  /// discipline of obs.hpp). Not owned.
  void set_runtime(obs::RuntimeProfiler* runtime) { runtime_ = runtime; }

  /// Run a single event (classic sequential path). Returns false when the
  /// queue is empty.
  bool step();

  /// Run until the queue drains or virtual time would exceed `deadline`.
  /// Events scheduled at exactly `deadline` still run.
  void run_until(Time deadline);

  /// Run until the queue drains.
  void run() { run_until(kTimeMax); }

  /// Number of queued events (cancelled-but-not-yet-reaped entries included).
  size_t pending() const { return queue_.size(); }

  /// Number of events that still hold a callback (pending minus cancelled).
  /// This is what bounds memory; tests assert it stays proportional to the
  /// genuinely outstanding work.
  size_t live_callbacks() const { return callbacks_.size(); }

 private:
  struct Callback {
    EventFn fn;
    uint32_t owner = kNoOwner;
  };

  struct Event {
    Time at;
    EventId id;
    // Ordering for std::priority_queue (max-heap): invert.
    bool operator<(const Event& o) const {
      if (at != o.at) return at > o.at;
      return id > o.id;
    }
  };

  /// One extracted event execution in a parallel batch. Holds the deferred
  /// side effects and the deterministic id block for events it schedules.
  /// Lives in a deque: the skip flag is an atomic (set by same-owner
  /// cancels), which makes the slot immovable.
  struct ExecSlot {
    EventFn fn;
    EventId id = 0;
    uint32_t owner = kNoOwner;
    std::atomic<bool> skip{false};
    support::DeferQueue defers;
    uint64_t id_base = 0;      ///< first id this execution may assign
    uint32_t next_local = 0;   ///< ids handed out so far (< kIdBlock)
  };

  /// Ids assignable by one event execution: id_base + [0, kIdBlock).
  static constexpr uint32_t kIdBlockBits = 24;

  /// The slot of the event execution running on this thread (parallel mode
  /// only); drives deterministic id assignment and same-batch cancels.
  static ExecSlot*& tl_slot() {
    thread_local ExecSlot* slot = nullptr;
    return slot;
  }

  /// Fire every installed tick boundary <= `upto` that has not fired yet.
  /// Called from the run loops only (coordinating thread, between events).
  void fire_ticks(Time upto) {
    if (tick_interval_ <= 0) return;
    while (next_tick_ <= upto) {
      const Time b = next_tick_;
      next_tick_ += tick_interval_;
      tick_fn_(b);
    }
  }

  void run_until_parallel(Time deadline);
  /// Execute every live event at time `t` (they are already the queue
  /// minimum) in owner-parallel segments, then replay deferred effects.
  void run_batch(Time t);
  /// Run one extracted event with its slot installed. `defer` selects
  /// whether shared-state effects queue up (group execution on the pool) or
  /// apply inline (solo barrier events on the coordinating thread).
  void exec_slot(ExecSlot& slot, bool defer);

  Time now_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Event> queue_;
  // id -> callback for pending events; an id absent here but still in the
  // queue is a cancelled event awaiting reap.
  std::unordered_map<EventId, Callback> callbacks_;
  support::Executor* executor_ = nullptr;
  obs::RuntimeProfiler* runtime_ = nullptr;
  Duration tick_interval_ = 0;  ///< 0 = no tick installed
  Time next_tick_ = 0;          ///< next unfired boundary (k * tick_interval_)
  TickFn tick_fn_;
  uint64_t batch_seq_ = 0;  ///< run_batch invocations (profiler span arg)

  // Valid only while run_batch executes a segment: lets cancel() reach
  // not-yet-run events of the current batch (read-only map; the atomic skip
  // flags carry the cross-thread signal).
  std::deque<ExecSlot>* batch_ = nullptr;
  const std::unordered_map<EventId, size_t>* batch_index_ = nullptr;
};

}  // namespace icc::sim
