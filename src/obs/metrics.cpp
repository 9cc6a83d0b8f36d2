#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "support/defer.hpp"
#include "support/json.hpp"

namespace icc::obs {

void Gauge::set(int64_t v) {
  // Last-write-wins: inside a parallel region the "last" write must be the
  // last in canonical event order, so the store rides the defer queue.
  if (support::DeferQueue::maybe_defer(
          [this, v] { value_.store(v, std::memory_order_relaxed); }))
    return;
  value_.store(v, std::memory_order_relaxed);
}

namespace {
/// Commutative atomic min/max (CAS loop; relaxed — see header contract).
void atomic_min(std::atomic<int64_t>& slot, int64_t v) {
  int64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void atomic_max(std::atomic<int64_t>& slot, int64_t v) {
  int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

Histogram::Histogram(std::vector<int64_t> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: no bounds");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()))
    throw std::invalid_argument("Histogram: bounds not ascending");
  buckets_ = std::vector<std::atomic<uint64_t>>(bounds_.size());
}

void Histogram::record(int64_t v) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  if (it == bounds_.end()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    buckets_[static_cast<size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
  sum_.fetch_add(v, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

void Histogram::merge(const Histogram& o) {
  if (o.bounds_ != bounds_) throw std::invalid_argument("Histogram::merge: bound mismatch");
  if (o.count() == 0) return;
  for (size_t i = 0; i < buckets_.size(); ++i)
    buckets_[i].fetch_add(o.buckets_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  overflow_.fetch_add(o.overflow(), std::memory_order_relaxed);
  atomic_min(min_, o.min());
  atomic_max(max_, o.max());
  sum_.fetch_add(o.sum(), std::memory_order_relaxed);
  count_.fetch_add(o.count(), std::memory_order_relaxed);
}

int64_t Histogram::percentile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  // Nearest-rank: the value of the ceil(q*n)-th smallest sample, resolved
  // to its bucket's upper bound.
  auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::max<uint64_t>(1, std::min(rank, n));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    // Clamp to the exact max: the bucket's upper bound can overshoot it.
    if (seen >= rank) return std::min(bounds_[i], max());
  }
  return max();  // rank falls in the overflow bucket
}

std::vector<int64_t> Histogram::exponential(int64_t start, double factor, size_t count) {
  std::vector<int64_t> b;
  b.reserve(count);
  double v = static_cast<double>(start);
  for (size_t i = 0; i < count; ++i) {
    auto bound = static_cast<int64_t>(v);
    if (!b.empty() && bound <= b.back()) bound = b.back() + 1;  // keep strictly ascending
    b.push_back(bound);
    v *= factor;
  }
  return b;
}

std::vector<int64_t> Histogram::linear(int64_t step, size_t count) {
  std::vector<int64_t> b;
  b.reserve(count);
  for (size_t i = 1; i <= count; ++i) b.push_back(step * static_cast<int64_t>(i));
  return b;
}

Counter& Registry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name, std::vector<int64_t> bounds) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

void Registry::merge(const Registry& o) {
  for (const auto& [name, c] : o.counters_) counter(name).merge(*c);
  for (const auto& [name, g] : o.gauges_) gauge(name).set(g->value());
  for (const auto& [name, h] : o.histograms_) histogram(name, h->bounds()).merge(*h);
}

void Registry::visit_counters(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  for (const auto& [name, c] : counters_) fn(name, *c);
}

void Registry::visit_gauges(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  for (const auto& [name, g] : gauges_) fn(name, *g);
}

const Counter* Registry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string Registry::snapshot_json() const {
  std::ostringstream os;
  os << "{";

  os << "\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << support::json::escape(name) << "\":" << c->value();
  }
  os << "},";

  os << "\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << support::json::escape(name) << "\":" << g->value();
  }
  os << "},";

  os << "\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << support::json::escape(name) << "\":{"
       << "\"count\":" << h->count() << ",\"sum\":" << h->sum() << ",\"min\":" << h->min()
       << ",\"max\":" << h->max() << ",\"buckets\":[";
    const auto& bounds = h->bounds();
    const auto& counts = h->bucket_counts();
    for (size_t i = 0; i < bounds.size(); ++i) {
      if (i) os << ",";
      os << "[" << bounds[i] << "," << counts[i] << "]";
    }
    os << "],\"overflow\":" << h->overflow() << "}";
  }
  os << "}";

  os << "}";
  return os.str();
}

}  // namespace icc::obs
