// The bounded memo table behind every digest-keyed cache of the pipeline:
// the per-party verdict cache (Verifier), and the cluster-shared verdict
// and beacon memos (InternStore).
//
// Keys are SHA-256 digests, so the key's first byte spreads entries evenly
// over kShards shards, each with its own mutex: concurrent pool workers do
// not serialize on one lock (DESIGN.md §6). Each shard is bounded by
// two-generation rotation: inserts fill `current`; once it holds
// capacity / (2 · kShards) entries it becomes `previous` (still visible
// until the next rotation evicts it), so the table never holds more than
// `capacity` entries. Eviction depends only on the insertion order, never
// on the thread count.
#pragma once

#include <algorithm>
#include <array>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/runtime.hpp"
#include "types/block.hpp"

namespace icc::pipeline {

template <typename V>
class MemoTable {
 public:
  static constexpr size_t kShards = 8;

  /// `site` names the shard locks in the runtime profiler's lock sampling.
  MemoTable(size_t capacity, obs::LockSite site)
      : per_generation_(std::max<size_t>(1, capacity / (2 * kShards))), site_(site) {}

  /// Attach the wall-clock profiler: shard lock waits are sampled.
  /// Observation only. Not owned.
  void set_runtime(obs::RuntimeProfiler* runtime) { runtime_ = runtime; }

  std::optional<V> find(const types::Hash& key) const {
    const Shard& s = shard(key);
    obs::SampledLock lk(s.mu, runtime_, site_);
    if (const V* v = s.find(key)) return *v;
    return std::nullopt;
  }

  void insert(const types::Hash& key, V value) {
    Shard& s = shard(key);
    obs::SampledLock lk(s.mu, runtime_, site_);
    s.insert(key, std::move(value), per_generation_);
  }

  /// The value under `key`; on a miss `make()` runs under the shard lock, so
  /// concurrent callers of one key make it exactly once. An empty result is
  /// returned but not remembered.
  template <typename Make>
  V find_or_make(const types::Hash& key, Make&& make) {
    Shard& s = shard(key);
    obs::SampledLock lk(s.mu, runtime_, site_);
    if (const V* v = s.find(key)) return *v;
    V value = make();
    if (!value.empty()) s.insert(key, value, per_generation_);
    return value;
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lk(s.mu);
      total += s.current.size() + s.previous.size();
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<types::Hash, V, types::HashHasher> current;
    std::unordered_map<types::Hash, V, types::HashHasher> previous;

    const V* find(const types::Hash& key) const {
      if (auto it = current.find(key); it != current.end()) return &it->second;
      if (auto it = previous.find(key); it != previous.end()) return &it->second;
      return nullptr;
    }
    void insert(const types::Hash& key, V value, size_t per_gen) {
      if (current.size() >= per_gen) {
        previous = std::move(current);
        current.clear();
      }
      current[key] = std::move(value);
    }
  };

  Shard& shard(const types::Hash& key) { return shards_[key[0] % kShards]; }
  const Shard& shard(const types::Hash& key) const { return shards_[key[0] % kShards]; }

  size_t per_generation_;
  obs::LockSite site_;
  obs::RuntimeProfiler* runtime_ = nullptr;
  std::array<Shard, kShards> shards_;
};

}  // namespace icc::pipeline
