#include "obs/timeseries.hpp"

#include <algorithm>
#include <sstream>

#include "support/defer.hpp"
#include "support/json.hpp"
#include "support/proc.hpp"

namespace icc::obs {

namespace {

namespace json = support::json;

/// Reads a {"name": int, ...} object into name/value pairs.
template <typename Int>
bool read_named(const json::Value& v, std::vector<std::pair<std::string, Int>>* out) {
  if (!v.is_object()) return false;
  for (const auto& [name, value] : v.object)
    if (!value.get(&out->emplace_back(name, Int{}).second)) return false;
  return true;
}

bool read_leaders(const json::Value& v, std::vector<std::pair<uint32_t, uint64_t>>* out) {
  if (v.type != json::Value::Type::kArray) return false;
  for (const json::Value& pair : v.array) {
    auto& [party, led] = out->emplace_back();
    if (pair.array.size() != 2 || !pair.array[0].get(&party) || !pair.array[1].get(&led))
      return false;
  }
  return true;
}

bool read_hists(const json::Value& v, std::vector<std::pair<std::string, SeriesHist>>* out) {
  if (!v.is_object()) return false;
  for (const auto& [name, value] : v.object) {
    SeriesHist& h = out->emplace_back(name, SeriesHist{}).second;
    if (!json::read_fields(value, {{"count", &h.count}, {"sum", &h.sum}, {"p50", &h.p50},
                                   {"p90", &h.p90}, {"p99", &h.p99}, {"max_le", &h.max_le}})
             .empty())
      return false;
  }
  return true;
}

std::string read_meta(const json::Value& v, SeriesMeta* m) {
  std::string type;
  uint64_t wall = 0;
  const std::string err = json::read_fields(
      v, {{"type", &type}, {"n", &m->n}, {"t", &m->t}, {"protocol", &m->protocol},
          {"seed", &m->seed}, {"window_us", &m->window_us}, {"full_res", &m->full_res},
          {"wall", &wall}, {"corrupt", &m->corrupt}});
  m->wall = wall != 0;
  return err.empty() && type != "meta" ? "expected the meta record first" : err;
}

std::string read_window(const json::Value& v, SeriesWindow* w) {
  return json::read_fields(
      v, {{"seq", &w->seq},
          {"start_us", &w->start_us},
          {"end_us", &w->end_us},
          {"res", &w->res},
          {"rounds", &w->rounds},
          {"leader_block", &w->leader_block},
          {"clean", &w->clean},
          {"honest_leader", &w->honest_leader},
          {"corrupt_leader", &w->corrupt_leader},
          {"leaders", [w](const json::Value& x) { return read_leaders(x, &w->leaders); }},
          {"counters", [w](const json::Value& x) { return read_named(x, &w->counters); }},
          {"gauges", [w](const json::Value& x) { return read_named(x, &w->gauges); }},
          {"hist", [w](const json::Value& x) { return read_hists(x, &w->hists); }}});
}

}  // namespace

TimeSeries::TimeSeries(Registry* registry, SeriesConfig config)
    : registry_(registry), config_(std::move(config)) {
  if (config_.window_us <= 0) config_.window_us = 1'000'000;
  // Decimation merges exactly 10 windows at a time; a tiny full_res would
  // leave the level unable to shed windows.
  config_.full_res = std::max<uint64_t>(config_.full_res, 16);
  meta_.window_us = config_.window_us;
  meta_.full_res = config_.full_res;
  meta_.wall = config_.wall;
  levels_.emplace_back();
}

bool TimeSeries::open_stream(const std::string& path) {
  stream_.open(path, std::ios::binary | std::ios::trunc);
  if (!stream_) return false;
  stream_ << meta_json() << "\n";
  return static_cast<bool>(stream_);
}

void TimeSeries::flush() {
  if (stream_.is_open()) stream_.flush();
}

void TimeSeries::on_round(uint64_t round, uint32_t leader, bool honest, bool leader_block,
                          bool clean) {
  // Shared tallies mutate non-commutatively (first report of a round wins),
  // so the update rides the defer queue to the canonical replay point —
  // exactly the Gauge::set discipline.
  if (support::DeferQueue::maybe_defer([this, round, leader, honest, leader_block, clean] {
        on_round_in_order(round, leader, honest, leader_block, clean);
      }))
    return;
  on_round_in_order(round, leader, honest, leader_block, clean);
}

void TimeSeries::on_round_in_order(uint64_t round, uint32_t leader, bool honest,
                                   bool leader_block, bool clean) {
  // Every honest party reports each round; count it once. The set is pruned
  // well behind the frontier (parties lag by at most the prune/CUP bounds).
  if (!seen_rounds_.insert(round).second) return;
  while (!seen_rounds_.empty() && *seen_rounds_.begin() + 256 < *seen_rounds_.rbegin())
    seen_rounds_.erase(seen_rounds_.begin());
  open_rounds_++;
  open_leaders_[leader]++;
  if (leader_block) open_leader_block_++;
  if (clean) open_clean_++;
  (honest ? open_honest_ : open_corrupt_)++;
}

void TimeSeries::on_boundary(int64_t boundary_us) {
  close_window(boundary_us);
  decimate();
}

void TimeSeries::close_window(int64_t boundary_us) {
  SeriesWindow w;
  w.seq = next_seq_++;
  w.start_us = last_boundary_;
  w.end_us = boundary_us;
  last_boundary_ = boundary_us;

  w.rounds = open_rounds_;
  w.leader_block = open_leader_block_;
  w.clean = open_clean_;
  w.honest_leader = open_honest_;
  w.corrupt_leader = open_corrupt_;
  w.leaders.assign(open_leaders_.begin(), open_leaders_.end());
  open_rounds_ = open_leader_block_ = open_clean_ = open_honest_ = open_corrupt_ = 0;
  open_leaders_.clear();

  // Counter deltas against the previous boundary. Names registered mid-run
  // diff against an implicit 0; zero deltas are omitted to keep lines lean.
  registry_->visit_counters([&](const std::string& name, const Counter& c) {
    const uint64_t cur = c.value();
    uint64_t& prev = prev_counters_[name];
    if (cur != prev) w.counters.emplace_back(name, cur - prev);
    prev = cur;
  });

  registry_->visit_gauges([&](const std::string& name, const Gauge& g) {
    w.gauges.emplace_back(name, g.value());
  });

  // Windowed histograms: cumulative snapshot diffing, never a reset — the
  // final metrics snapshot is byte-identical with the recorder on or off.
  for (const std::string& name : config_.hist_names) {
    const Histogram* h = registry_->find_histogram(name);
    if (h == nullptr) continue;
    const std::vector<uint64_t> cur = h->bucket_counts();
    HistPrev& prev = prev_hists_[name];
    if (prev.buckets.size() != cur.size()) prev.buckets.assign(cur.size(), 0);
    SeriesHist sh;
    sh.count = h->count() - prev.count;
    sh.sum = h->sum() - prev.sum;
    sh.overflow = h->overflow() - prev.overflow;
    sh.buckets.resize(cur.size());
    for (size_t i = 0; i < cur.size(); ++i) sh.buckets[i] = cur[i] - prev.buckets[i];
    prev.buckets = cur;
    prev.overflow = h->overflow();
    prev.count = h->count();
    prev.sum = h->sum();
    if (sh.count == 0) continue;
    resolve_hist(&sh, h->bounds());
    w.hists.emplace_back(name, std::move(sh));
  }

  if (stream_.is_open()) {
    stream_ << window_json(w) << "\n";
    if (!stream_) dropped_++;
  }
  if (config_.wall) {
    SeriesWall ws;
    ws.seq = w.seq;
    const support::ProcMemory mem = support::proc_memory();
    ws.rss_kb = mem.rss_kb;
    ws.peak_rss_kb = mem.peak_rss_kb;
    ws.dropped = dropped_;
    if (stream_.is_open()) {
      stream_ << wall_json(ws) << "\n";
      if (!stream_) dropped_++;
    }
    wall_.push_back(ws);
    while (wall_.size() > (size_t{1} << 16)) wall_.pop_front();
  }
  levels_[0].push_back(std::move(w));
}

void TimeSeries::resolve_hist(SeriesHist* h, const std::vector<int64_t>& bounds) {
  const uint64_t total = h->count;
  if (total == 0) return;
  auto pct = [&](double q) -> int64_t {
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total) + 0.999999);
    rank = std::max<uint64_t>(1, std::min(rank, total));
    uint64_t seen = 0;
    for (size_t i = 0; i < h->buckets.size() && i < bounds.size(); ++i) {
      seen += h->buckets[i];
      if (seen >= rank) return bounds[i];
    }
    return bounds.empty() ? 0 : bounds.back();  // rank in the overflow bucket
  };
  h->p50 = pct(0.50);
  h->p90 = pct(0.90);
  h->p99 = pct(0.99);
  h->max_le = 0;
  for (size_t i = 0; i < h->buckets.size() && i < bounds.size(); ++i)
    if (h->buckets[i] != 0) h->max_le = bounds[i];
  if (h->overflow != 0 && !bounds.empty()) h->max_le = bounds.back();
}

void TimeSeries::decimate() {
  for (size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    while (levels_[lvl].size() > config_.full_res) {
      SeriesWindow merged = merge_windows(levels_[lvl], 10);
      if (lvl + 1 == levels_.size()) levels_.emplace_back();
      levels_[lvl + 1].push_back(std::move(merged));
    }
  }
}

SeriesWindow TimeSeries::merge_windows(std::deque<SeriesWindow>& level, size_t count) {
  count = std::min(count, level.size());
  SeriesWindow out = std::move(level.front());
  level.pop_front();
  std::map<std::string, uint64_t> counters(out.counters.begin(), out.counters.end());
  std::map<uint32_t, uint64_t> leaders(out.leaders.begin(), out.leaders.end());
  std::map<std::string, SeriesHist> hists;
  for (auto& [name, h] : out.hists) hists.emplace(name, std::move(h));

  for (size_t k = 1; k < count; ++k) {
    SeriesWindow w = std::move(level.front());
    level.pop_front();
    out.end_us = w.end_us;
    out.res += w.res;
    out.rounds += w.rounds;
    out.leader_block += w.leader_block;
    out.clean += w.clean;
    out.honest_leader += w.honest_leader;
    out.corrupt_leader += w.corrupt_leader;
    for (auto& [p, c] : w.leaders) leaders[p] += c;
    for (auto& [name, v] : w.counters) counters[name] += v;
    out.gauges = std::move(w.gauges);  // gauge = instantaneous: newest wins
    for (auto& [name, h] : w.hists) {
      auto it = hists.find(name);
      if (it == hists.end()) {
        hists.emplace(name, std::move(h));
        continue;
      }
      SeriesHist& dst = it->second;
      dst.count += h.count;
      dst.sum += h.sum;
      dst.overflow += h.overflow;
      if (dst.buckets.size() < h.buckets.size()) dst.buckets.resize(h.buckets.size(), 0);
      for (size_t i = 0; i < h.buckets.size(); ++i) dst.buckets[i] += h.buckets[i];
    }
  }
  out.counters.assign(counters.begin(), counters.end());
  out.leaders.assign(leaders.begin(), leaders.end());
  out.hists.clear();
  for (auto& [name, h] : hists) {
    const Histogram* live = registry_->find_histogram(name);
    if (live != nullptr) resolve_hist(&h, live->bounds());
    out.hists.emplace_back(name, std::move(h));
  }
  return out;
}

std::vector<const SeriesWindow*> TimeSeries::windows() const {
  std::vector<const SeriesWindow*> out;
  // Higher levels hold strictly older data (merges always take the oldest),
  // so deepest-first front-to-back is time order.
  for (size_t lvl = levels_.size(); lvl-- > 0;)
    for (const SeriesWindow& w : levels_[lvl]) out.push_back(&w);
  return out;
}

std::string TimeSeries::meta_json() const {
  std::ostringstream os;
  os << "{\"type\":\"meta\",\"schema\":\"" << SeriesMeta::kSchema << "\",\"n\":" << meta_.n
     << ",\"t\":" << meta_.t << ",\"protocol\":\"" << json::escape(meta_.protocol)
     << "\",\"seed\":" << meta_.seed << ",\"window_us\":" << meta_.window_us
     << ",\"full_res\":" << meta_.full_res << ",\"wall\":" << (meta_.wall ? 1 : 0)
     << ",\"corrupt\":[";
  for (size_t i = 0; i < meta_.corrupt.size(); ++i) {
    if (i) os << ",";
    os << meta_.corrupt[i];
  }
  os << "]}";
  return os.str();
}

std::string TimeSeries::window_json(const SeriesWindow& w) {
  std::ostringstream os;
  os << "{\"type\":\"w\",\"seq\":" << w.seq << ",\"start_us\":" << w.start_us
     << ",\"end_us\":" << w.end_us << ",\"res\":" << w.res << ",\"rounds\":" << w.rounds
     << ",\"leader_block\":" << w.leader_block << ",\"clean\":" << w.clean
     << ",\"honest_leader\":" << w.honest_leader
     << ",\"corrupt_leader\":" << w.corrupt_leader << ",\"leaders\":[";
  for (size_t i = 0; i < w.leaders.size(); ++i) {
    if (i) os << ",";
    os << "[" << w.leaders[i].first << "," << w.leaders[i].second << "]";
  }
  os << "],\"counters\":{";
  for (size_t i = 0; i < w.counters.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json::escape(w.counters[i].first) << "\":" << w.counters[i].second;
  }
  os << "},\"gauges\":{";
  for (size_t i = 0; i < w.gauges.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json::escape(w.gauges[i].first) << "\":" << w.gauges[i].second;
  }
  os << "},\"hist\":{";
  for (size_t i = 0; i < w.hists.size(); ++i) {
    if (i) os << ",";
    const SeriesHist& h = w.hists[i].second;
    os << "\"" << json::escape(w.hists[i].first) << "\":{\"count\":" << h.count
       << ",\"sum\":" << h.sum << ",\"p50\":" << h.p50 << ",\"p90\":" << h.p90
       << ",\"p99\":" << h.p99 << ",\"max_le\":" << h.max_le << "}";
  }
  os << "}}";
  return os.str();
}

std::string TimeSeries::wall_json(const SeriesWall& w) {
  std::ostringstream os;
  os << "{\"type\":\"wall\",\"seq\":" << w.seq << ",\"rss_kb\":" << w.rss_kb
     << ",\"peak_rss_kb\":" << w.peak_rss_kb << ",\"dropped\":" << w.dropped << "}";
  return os.str();
}

std::string TimeSeries::to_jsonl() const {
  std::ostringstream os;
  os << meta_json() << "\n";
  for (const SeriesWindow* w : windows()) os << window_json(*w) << "\n";
  if (config_.wall)
    for (const SeriesWall& ws : wall_) os << wall_json(ws) << "\n";
  return os.str();
}

bool TimeSeries::write_jsonl(const std::string& path) const {
  return json::write_file(path, to_jsonl());
}

TimeSeries::Parsed TimeSeries::parse_jsonl(const std::string& text) {
  Parsed out;
  out.error = json::for_each_line(text, [&out](const json::Value& v) -> std::string {
    if (!out.has_meta) {
      std::string err = read_meta(v, &out.meta);
      out.has_meta = err.empty();
      return err;
    }
    const json::Value* type = v.find("type");
    if (type == nullptr || type->type != json::Value::Type::kString) return "record has no type";
    if (type->string == "w") return read_window(v, &out.windows.emplace_back());
    if (type->string == "wall") {
      SeriesWall& ws = out.wall.emplace_back();
      return json::read_fields(v, {{"seq", &ws.seq}, {"rss_kb", &ws.rss_kb},
                                   {"peak_rss_kb", &ws.peak_rss_kb}, {"dropped", &ws.dropped}});
    }
    return {};  // other record types: forward compatibility, skipped
  });
  if (out.error.empty() && !out.has_meta) out.error = "line 1: no meta record (empty input)";
  return out;
}

}  // namespace icc::obs
