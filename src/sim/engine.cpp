#include "sim/engine.hpp"

#include <stdexcept>

#include "obs/runtime.hpp"

namespace icc::sim {

EventId Engine::schedule_at(Time at, EventFn fn, uint32_t owner) {
  if (at < now_) at = now_;
  EventId id;
  if (ExecSlot* slot = tl_slot()) {
    // Parallel mode: ids come from the execution's pre-assigned block, so
    // the value depends only on which event schedules (batch order) and on
    // its program order — never on thread interleaving.
    if (slot->next_local >= (uint32_t{1} << kIdBlockBits))
      throw std::logic_error("Engine: event scheduled too many events");
    id = slot->id_base + slot->next_local++;
  } else {
    id = next_id_++;
  }
  auto apply = [this, at, id, owner, fn = std::move(fn)]() mutable {
    callbacks_.emplace(id, Callback{std::move(fn), owner});
    queue_.push(Event{at, id});
  };
  if (support::DeferQueue* q = support::DeferQueue::current()) {
    q->push(std::move(apply));
  } else {
    apply();
  }
  return id;
}

void Engine::cancel(EventId id) {
  if (tl_slot() != nullptr && batch_index_ != nullptr) {
    // The target may be an unfired event of the batch being executed right
    // now (its callback already left callbacks_). Same-owner events run in
    // batch order on one thread, so the flag is set before the target's
    // turn exactly when the classic loop would have erased it in time.
    if (auto it = batch_index_->find(id); it != batch_index_->end()) {
      (*batch_)[it->second].skip.store(true, std::memory_order_release);
      return;
    }
  }
  if (support::DeferQueue::maybe_defer([this, id] { callbacks_.erase(id); })) return;
  callbacks_.erase(id);
}

bool Engine::step() {
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    auto it = callbacks_.find(ev.id);
    if (it == callbacks_.end()) continue;  // cancelled: reap silently
    now_ = ev.at;
    EventFn fn = std::move(it->second.fn);
    callbacks_.erase(it);
    fn();
    return true;
  }
  return false;
}

void Engine::run_until(Time deadline) {
  if (executor_ != nullptr && executor_->threads() > 1) {
    run_until_parallel(deadline);
    return;
  }
  while (!queue_.empty()) {
    // Peek past cancelled events without running anything.
    Event ev = queue_.top();
    if (!callbacks_.count(ev.id)) {
      queue_.pop();
      continue;
    }
    if (ev.at > deadline) break;
    // A boundary at exactly ev.at closes before the event runs: events at
    // time B belong to the window starting at B.
    fire_ticks(ev.at);
    step();
  }
  if (deadline != kTimeMax) fire_ticks(deadline);
  if (now_ < deadline && deadline != kTimeMax) now_ = deadline;
}

void Engine::run_until_parallel(Time deadline) {
  while (!queue_.empty()) {
    Event ev = queue_.top();
    if (!callbacks_.count(ev.id)) {
      queue_.pop();
      continue;
    }
    if (ev.at > deadline) break;
    // Between batches is a quiescent point: deferred effects of the previous
    // batch are already replayed, so the hook observes canonical state.
    fire_ticks(ev.at);
    run_batch(ev.at);
  }
  if (deadline != kTimeMax) fire_ticks(deadline);
  if (now_ < deadline && deadline != kTimeMax) now_ = deadline;
}

void Engine::exec_slot(ExecSlot& slot, bool defer) {
  ExecSlot*& tls = tl_slot();
  ExecSlot* prev = tls;
  tls = &slot;
  EventFn fn = std::move(slot.fn);
  if (defer) {
    support::DeferQueue::Scope scope(&slot.defers);
    fn();
  } else {
    fn();
  }
  tls = prev;
}

void Engine::run_batch(Time t) {
  now_ = t;
  obs::SpanScope batch_span(runtime_, obs::TaskKind::kEngineBatch, batch_seq_);

  // Extract every live event at t in (time, id) order — the exact firing
  // order of the classic loop — and give each execution its deterministic
  // id block, carved out of the monotonic counter in that same order.
  std::deque<ExecSlot> batch;
  std::unordered_map<EventId, size_t> index;
  while (!queue_.empty() && queue_.top().at == t) {
    Event ev = queue_.top();
    queue_.pop();
    auto it = callbacks_.find(ev.id);
    if (it == callbacks_.end()) continue;
    batch.emplace_back();
    ExecSlot& slot = batch.back();
    slot.id = ev.id;
    slot.owner = it->second.owner;
    slot.fn = std::move(it->second.fn);
    callbacks_.erase(it);
    index.emplace(ev.id, batch.size() - 1);
  }
  const uint64_t epoch = next_id_;
  for (size_t k = 0; k < batch.size(); ++k)
    batch[k].id_base = epoch + ((static_cast<uint64_t>(k) + 1) << kIdBlockBits);
  next_id_ = epoch + ((static_cast<uint64_t>(batch.size()) + 1) << kIdBlockBits);

  batch_ = &batch;
  batch_index_ = &index;

  size_t i = 0;
  while (i < batch.size()) {
    if (batch[i].owner == kNoOwner) {
      // Barrier: ownerless events may touch anything; run solo, effects
      // apply inline (this is the canonical point in the replay order).
      if (!batch[i].skip.load(std::memory_order_acquire)) exec_slot(batch[i], false);
      ++i;
      continue;
    }
    // Maximal run of owned events: group by owner (batch order preserved
    // within each group), step the groups concurrently, then replay every
    // deferred side effect in batch order — the sequential order.
    size_t j = i;
    while (j < batch.size() && batch[j].owner != kNoOwner) ++j;
    std::vector<std::vector<size_t>> groups;
    std::unordered_map<uint32_t, size_t> owner_group;
    for (size_t k = i; k < j; ++k) {
      auto [it, inserted] = owner_group.emplace(batch[k].owner, groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(k);
    }
    {
      obs::SpanScope region(runtime_, obs::TaskKind::kParallelRegion, groups.size());
      executor_->parallel_for(groups.size(), [&](size_t g) {
        obs::SpanScope span(runtime_, obs::TaskKind::kPartyGroup,
                            batch[groups[g][0]].owner, groups[g].size());
        for (size_t k : groups[g]) {
          if (batch[k].skip.load(std::memory_order_acquire)) continue;
          exec_slot(batch[k], true);
        }
      });
    }
    uint64_t replayed = 0;
    obs::SpanScope replay_span(runtime_, obs::TaskKind::kDeferReplay);
    for (size_t k = i; k < j; ++k) {
      // Replay with the event's slot reinstalled (but no defer queue), so a
      // deferred closure that itself schedules — a harness commit callback,
      // say — draws ids from the same block it would have used inline.
      if (runtime_ != nullptr) {
        replayed += batch[k].defers.size();
        runtime_->defer_depth(batch[k].defers.size());
      }
      ExecSlot*& tls = tl_slot();
      tls = &batch[k];
      batch[k].defers.replay();
      tls = nullptr;
    }
    replay_span.set_arg0(replayed);
    i = j;
  }

  batch_ = nullptr;
  batch_index_ = nullptr;
  batch_span.set_arg1(batch.size());
  batch_seq_++;
}

}  // namespace icc::sim
