#include "obs/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "support/json.hpp"
#include "support/log.hpp"
#include "support/proc.hpp"

#if defined(__linux__)
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace icc::obs {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
std::atomic<uint64_t> g_next_generation{1};

const char* const kTaskNames[kTaskKinds] = {
    "engine_batch", "parallel_region", "party_group", "defer_replay", "intern_parse",
};
const char* const kLockNames[kLockSites] = {
    "executor_queue",
    "verifier_cache",
    "intern_artifacts",
    "intern_verdicts",
};

uint64_t os_thread_id() {
#if defined(__linux__)
  return static_cast<uint64_t>(::syscall(SYS_gettid));
#else
  return 0;
#endif
}

int64_t thread_cpu_ns() {
#if defined(__linux__)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return -1;
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
#else
  return -1;
#endif
}

/// Total CPU (utime + stime) of thread `tid` since it started, via
/// /proc/self/task/<tid>/stat. -1 when unavailable. Tick-granular (~10 ms),
/// which is plenty against multi-second profiling windows.
int64_t proc_thread_cpu_ns(uint64_t tid) {
#if defined(__linux__)
  char path[64];
  std::snprintf(path, sizeof path, "/proc/self/task/%" PRIu64 "/stat", tid);
  std::ifstream in(path);
  if (!in) return -1;
  std::string line;
  std::getline(in, line);
  // Field 2 (comm) may contain spaces; skip to the closing paren first.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream is(line.substr(close + 1));
  std::string tok;
  // Fields 3..13 precede utime (field 14) and stime (field 15).
  for (int f = 3; f <= 13; ++f) {
    if (!(is >> tok)) return -1;
  }
  uint64_t utime = 0, stime = 0;
  if (!(is >> utime >> stime)) return -1;
  const long hz = ::sysconf(_SC_CLK_TCK);
  if (hz <= 0) return -1;
  return static_cast<int64_t>((utime + stime) * (1'000'000'000ULL / static_cast<uint64_t>(hz)));
#else
  (void)tid;
  return -1;
#endif
}

}  // namespace

const char* task_kind_name(TaskKind kind) {
  const size_t i = static_cast<size_t>(kind);
  return i < kTaskKinds ? kTaskNames[i] : "?";
}

const char* lock_site_name(LockSite site) {
  const size_t i = static_cast<size_t>(site);
  return i < kLockSites ? kLockNames[i] : "?";
}

int64_t RuntimeProfiler::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RuntimeProfiler::RuntimeProfiler(size_t span_capacity)
    : span_capacity_(span_capacity),
      generation_(g_next_generation.fetch_add(1, kRelaxed)),
      lanes_(new Lane[kMaxLanes]) {
  start_ns_ = now_ns();
  // The constructing thread is the coordinator: registering it here pins it
  // to lane 0 ("main") and starts its window with the profiler's.
  (void)lane();
}

RuntimeProfiler::~RuntimeProfiler() = default;

RuntimeProfiler::Lane& RuntimeProfiler::register_lane() {
  uint32_t slot = next_lane_.fetch_add(1, kRelaxed);
  if (slot >= kMaxLanes) slot = kMaxLanes - 1;  // overflow lane (see kMaxLanes)
  Lane& l = lanes_[slot];
  l.start_ns = now_ns();
  l.tid = os_thread_id();
  l.cpu_start_ns = thread_cpu_ns();
  if (span_capacity_ > 0) l.spans.resize(span_capacity_);
  l.used.store(true, std::memory_order_release);
  return l;
}

RuntimeProfiler::Lane& RuntimeProfiler::lane() {
  struct TlsRef {
    uint64_t generation = 0;
    Lane* lane = nullptr;
  };
  thread_local TlsRef tls;
  if (tls.generation != generation_) {
    tls.generation = generation_;
    tls.lane = &register_lane();
  }
  return *tls.lane;
}

void RuntimeProfiler::span_begin() { lane().open_child_ns.push_back(0); }

void RuntimeProfiler::span_end(TaskKind kind, int64_t t0_ns, int64_t t1_ns, uint64_t arg0,
                               uint64_t arg1) {
  Lane& l = lane();
  // Spans on one lane nest (RAII scopes), so the top of the stack is this
  // span and the entry below it is its direct parent.
  const int64_t dur = std::max<int64_t>(0, t1_ns - t0_ns);
  const int64_t child_ns = l.open_child_ns.back();
  l.open_child_ns.pop_back();
  if (!l.open_child_ns.empty()) l.open_child_ns.back() += dur;
  TaskAgg& agg = l.tasks[static_cast<size_t>(kind)];
  agg.count++;
  agg.total_ns += dur;
  agg.exclusive_ns += dur - child_ns;
  agg.max_ns = std::max(agg.max_ns, dur);

  if (!l.spans.empty())
    l.spans[l.spans_recorded % l.spans.size()] = {t0_ns, t1_ns, arg0, arg1, kind};
  l.spans_recorded++;
}

void RuntimeProfiler::lock_sample(LockSite site, int64_t wait_ns) {
  Lane& l = lane();
  LockStat& st = l.locks[static_cast<size_t>(site)];
  st.acquisitions++;
  if (wait_ns > 0) {
    st.contended++;
    st.wait_ns += wait_ns;
    if (wait_ns > st.max_wait_ns) st.max_wait_ns = wait_ns;
  }
}

void RuntimeProfiler::idle_begin(bool worker) {
  Lane& l = lane();
  if (worker) l.is_worker.store(true, kRelaxed);
  l.wait_since_ns.store(now_ns(), kRelaxed);
}

void RuntimeProfiler::idle_end() {
  Lane& l = lane();
  const int64_t since = l.wait_since_ns.load(kRelaxed);
  if (since == 0) return;
  l.wait_since_ns.store(0, kRelaxed);
  l.idle_ns.fetch_add(now_ns() - since, kRelaxed);
}

void RuntimeProfiler::slice(bool stolen) {
  Lane& l = lane();
  if (stolen) {
    l.stolen++;
  } else {
    l.claimed++;
  }
}

RuntimeReport RuntimeProfiler::make_report() const {
  const int64_t now = now_ns();
  RuntimeReport rep;
  rep.threads = static_cast<uint32_t>(threads_);
  rep.wall_ns = now - start_ns_;
  rep.defer_high_water = defer_high_water_;
  const support::ProcMemory mem = support::proc_memory();
  rep.rss_kb = mem.rss_kb;
  rep.peak_rss_kb = mem.peak_rss_kb;

  const uint32_t lanes = std::min<uint32_t>(next_lane_.load(kRelaxed), kMaxLanes);
  for (uint32_t i = 0; i < lanes; ++i) {
    const Lane& l = lanes_[i];
    if (!l.used.load(std::memory_order_acquire)) continue;
    WorkerReport w;
    w.name = i == 0                      ? "main"
             : l.is_worker.load(kRelaxed) ? "worker-" + std::to_string(i)
                                          : "thread-" + std::to_string(i);
    // Idle = completed waits plus the still-open wait of a parked thread
    // (workers sit in cv_.wait between runs and at export time).
    int64_t idle = l.idle_ns.load(kRelaxed);
    if (const int64_t since = l.wait_since_ns.load(kRelaxed); since != 0)
      idle += now - since;
    const int64_t window = now - l.start_ns;
    w.idle_ns = std::min(idle, window);
    w.busy_ns = window - w.idle_ns;
    if (l.cpu_start_ns >= 0 && l.tid != 0) {
      const int64_t cpu_end = proc_thread_cpu_ns(l.tid);
      if (cpu_end >= 0) w.cpu_ns = std::max<int64_t>(0, cpu_end - l.cpu_start_ns);
    }
    w.claimed = l.claimed;
    w.stolen = l.stolen;
    w.spans_recorded = l.spans_recorded;
    w.spans_dropped = l.spans_recorded - std::min<uint64_t>(l.spans_recorded, l.spans.size());
    w.tasks = l.tasks;
    w.locks = l.locks;

    rep.workers.push_back(std::move(w));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Chrome trace export (merged with the journal's virtual-time events)
// ---------------------------------------------------------------------------

std::string RuntimeProfiler::trace_json(const std::string& virtual_events,
                                        uint64_t journal_dropped) const {
  // One process for all wall-clock lanes, far above any party index the
  // virtual-time events use as pid.
  constexpr uint32_t kRuntimePid = 1'000'000;
  std::ostringstream os;
  os << "{\"traceEvents\":[" << virtual_events;
  bool first = virtual_events.empty();
  auto emit = [&](const std::string& ev) {
    if (!first) os << ",\n";
    first = false;
    os << ev;
  };
  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(kRuntimePid) +
       ",\"tid\":0,\"args\":{\"name\":\"icc-runtime (wall-clock, non-deterministic)\"}}");

  uint64_t recorded = 0, dropped = 0;
  const uint32_t lanes = std::min<uint32_t>(next_lane_.load(kRelaxed), kMaxLanes);
  for (uint32_t i = 0; i < lanes; ++i) {
    const Lane& l = lanes_[i];
    if (!l.used.load(std::memory_order_acquire)) continue;
    const std::string lane_name =
        i == 0 ? "main" : (l.is_worker.load(kRelaxed) ? "worker-" : "thread-") + std::to_string(i);
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + std::to_string(kRuntimePid) +
         ",\"tid\":" + std::to_string(i) + ",\"args\":{\"name\":\"" + lane_name + "\"}}");
    recorded += l.spans_recorded;
    const size_t live = std::min<uint64_t>(l.spans_recorded, l.spans.size());
    if (l.spans_recorded > live) dropped += l.spans_recorded - live;
    for (size_t k = 0; k < live; ++k) {
      const Span& s = l.spans[k];
      std::ostringstream ev;
      ev << "{\"name\":\"" << task_kind_name(s.kind) << "\",\"cat\":\"runtime\",\"ph\":\"X\""
         << ",\"ts\":" << (s.t0_ns - start_ns_) / 1000
         << ",\"dur\":" << std::max<int64_t>(0, s.t1_ns - s.t0_ns) / 1000
         << ",\"pid\":" << kRuntimePid << ",\"tid\":" << i << ",\"args\":{\"arg0\":" << s.arg0
         << ",\"arg1\":" << s.arg1 << "}}";
      emit(ev.str());
    }
  }
  os << "],\"metadata\":{\"journal_dropped\":" << journal_dropped
     << ",\"runtime\":{\"recorded\":" << recorded << ",\"dropped\":" << dropped
     << ",\"lane_capacity\":" << span_capacity_ << "}},\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

// ---------------------------------------------------------------------------
// icc-runtime/v1 JSON serialization
// ---------------------------------------------------------------------------

std::string runtime_report_json(const RuntimeReport& rep) {
  std::ostringstream os;
  os << "{\"schema\":\"icc-runtime/v1\",\"nondeterministic\":true"
     << ",\"threads\":" << rep.threads << ",\"wall_ns\":" << rep.wall_ns
     << ",\"defer_high_water\":" << rep.defer_high_water << ",\"rss_kb\":" << rep.rss_kb
     << ",\"peak_rss_kb\":" << rep.peak_rss_kb;
  if (rep.has_intern) {
    os << ",\"intern\":{\"physical\":true,\"parses\":" << rep.intern_parses
       << ",\"decode_hits\":" << rep.intern_decode_hits
       << ",\"real_verifications\":" << rep.intern_real_verifications
       << ",\"memo_hits\":" << rep.intern_memo_hits << ",\"primed\":" << rep.intern_primed
       << "}";
  }
  os << ",\"workers\":[";
  for (size_t i = 0; i < rep.workers.size(); ++i) {
    const WorkerReport& w = rep.workers[i];
    if (i) os << ",";
    os << "\n {\"name\":\"" << support::json::escape(w.name) << "\",\"busy_ns\":" << w.busy_ns
       << ",\"idle_ns\":" << w.idle_ns << ",\"cpu_ns\":" << w.cpu_ns
       << ",\"claimed\":" << w.claimed << ",\"stolen\":" << w.stolen
       << ",\"spans_recorded\":" << w.spans_recorded
       << ",\"spans_dropped\":" << w.spans_dropped << ",\"tasks\":[";
    bool first = true;
    for (size_t k = 0; k < kTaskKinds; ++k) {
      const TaskAgg& t = w.tasks[k];
      if (t.count == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"kind\":\"" << kTaskNames[k] << "\",\"count\":" << t.count
         << ",\"total_ns\":" << t.total_ns << ",\"exclusive_ns\":" << t.exclusive_ns
         << ",\"max_ns\":" << t.max_ns << "}";
    }
    os << "],\"locks\":[";
    first = true;
    for (size_t k = 0; k < kLockSites; ++k) {
      const LockStat& s = w.locks[k];
      if (s.acquisitions == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"site\":\"" << kLockNames[k] << "\",\"acquisitions\":" << s.acquisitions
         << ",\"contended\":" << s.contended << ",\"wait_ns\":" << s.wait_ns
         << ",\"max_wait_ns\":" << s.max_wait_ns << "}";
    }
    os << "]}";
  }
  os << "\n]}\n";
  return os.str();
}

// --- parsing, through the shared strict reader (support/json.hpp) ---

namespace {

namespace json = support::json;

template <size_t N>
int name_index(const std::string& name, const char* const (&names)[N]) {
  for (size_t k = 0; k < N; ++k)
    if (name == names[k]) return static_cast<int>(k);
  return -1;
}

/// True when `v` is an array and `read(item)` accepts every item.
template <typename Read>
bool read_items(const json::Value& v, Read&& read) {
  if (v.type != json::Value::Type::kArray) return false;
  for (const json::Value& item : v.array)
    if (!read(item)) return false;
  return true;
}

bool read_worker(const json::Value& v, WorkerReport* w) {
  // Unknown task kinds and lock sites: forward compatibility, ignored.
  auto task = [w](const json::Value& t) {
    std::string kind;
    TaskAgg agg;
    if (!json::read_fields(t, {{"kind", &kind}, {"count", &agg.count},
                               {"total_ns", &agg.total_ns}, {"exclusive_ns", &agg.exclusive_ns},
                               {"max_ns", &agg.max_ns}})
             .empty())
      return false;
    if (const int k = name_index(kind, kTaskNames); k >= 0) w->tasks[static_cast<size_t>(k)] = agg;
    return true;
  };
  auto lock = [w](const json::Value& l) {
    std::string site;
    LockStat st;
    if (!json::read_fields(l, {{"site", &site}, {"acquisitions", &st.acquisitions},
                               {"contended", &st.contended}, {"wait_ns", &st.wait_ns},
                               {"max_wait_ns", &st.max_wait_ns}})
             .empty())
      return false;
    if (const int k = name_index(site, kLockNames); k >= 0) w->locks[static_cast<size_t>(k)] = st;
    return true;
  };
  return json::read_fields(
             v, {{"name", &w->name},
                 {"busy_ns", &w->busy_ns},
                 {"idle_ns", &w->idle_ns},
                 {"cpu_ns", &w->cpu_ns},
                 {"claimed", &w->claimed},
                 {"stolen", &w->stolen},
                 {"spans_recorded", &w->spans_recorded},
                 {"spans_dropped", &w->spans_dropped},
                 {"tasks", [&](const json::Value& x) { return read_items(x, task); }},
                 {"locks", [&](const json::Value& x) { return read_items(x, lock); }}})
      .empty();
}

std::string read_report(const json::Value& v, RuntimeReport* rep) {
  std::string schema;
  auto intern = [rep](const json::Value& x) {
    rep->has_intern = true;
    return json::read_fields(x, {{"parses", &rep->intern_parses},
                                 {"decode_hits", &rep->intern_decode_hits},
                                 {"real_verifications", &rep->intern_real_verifications},
                                 {"memo_hits", &rep->intern_memo_hits},
                                 {"primed", &rep->intern_primed}})
        .empty();
  };
  auto workers = [rep](const json::Value& x) {
    return read_items(x, [rep](const json::Value& w) {
      return read_worker(w, &rep->workers.emplace_back());
    });
  };
  std::string err = json::read_fields(
      v, {{"schema", &schema}, {"threads", &rep->threads}, {"wall_ns", &rep->wall_ns},
          {"defer_high_water", &rep->defer_high_water}, {"rss_kb", &rep->rss_kb},
          {"peak_rss_kb", &rep->peak_rss_kb}, {"intern", intern}, {"workers", workers}});
  if (!err.empty()) return err;
  if (schema.empty()) return "missing schema field";
  if (schema != "icc-runtime/v1") return "unsupported schema \"" + schema + "\"";
  if (rep->wall_ns <= 0) return "non-positive wall_ns";
  if (rep->threads == 0) return "zero threads";
  return {};
}

}  // namespace

std::optional<RuntimeReport> parse_runtime_report(const std::string& json,
                                                  std::string* error) {
  std::string local_err;
  std::string* err = error != nullptr ? error : &local_err;
  err->clear();
  support::json::Value v;
  RuntimeReport rep;
  if (!support::json::parse(json, &v, err)) return std::nullopt;
  *err = read_report(v, &rep);
  if (!err->empty()) return std::nullopt;
  return rep;
}

// ---------------------------------------------------------------------------
// Parallel-efficiency analysis
// ---------------------------------------------------------------------------

RuntimeAnalysis analyze_runtime(const RuntimeReport& rep) {
  RuntimeAnalysis a;
  const double wall = static_cast<double>(rep.wall_ns);
  const double threads = std::max<uint32_t>(1, rep.threads);
  if (wall <= 0 || rep.workers.empty()) return a;

  // CPU basis when every lane reported a per-thread CPU delta: wall-minus-
  // idle overcounts busy on an oversubscribed host (runnable-but-descheduled
  // looks busy), while CPU time stays honest there.
  a.cpu_basis = std::all_of(rep.workers.begin(), rep.workers.end(),
                            [](const WorkerReport& w) { return w.cpu_ns >= 0; });
  double total_busy = 0;
  double region_ns = 0;
  for (const WorkerReport& w : rep.workers) {
    const double busy = static_cast<double>(a.cpu_basis ? w.cpu_ns : w.busy_ns);
    total_busy += std::clamp(busy, 0.0, wall);
    region_ns +=
        static_cast<double>(w.tasks[static_cast<size_t>(TaskKind::kParallelRegion)].total_ns);
  }
  total_busy = std::min(total_busy, threads * wall);
  a.utilization = total_busy / (threads * wall);
  // Single-run Amdahl estimate: with T threads over wall W, perfectly
  // parallel work would keep all T busy; every idle thread-second is serial
  // section exposure. f = (T*W - sum busy) / ((T-1) * W), clamped into
  // (0, 1] so downstream projections stay finite.
  if (rep.threads <= 1) {
    a.serial_fraction = 1.0;
  } else {
    a.serial_fraction =
        std::clamp((threads * wall - total_busy) / ((threads - 1.0) * wall), 1e-6, 1.0);
  }
  a.amdahl_max = 1.0 / a.serial_fraction;
  a.parallel_region_share = std::clamp(region_ns / wall, 0.0, 1.0);
  return a;
}

void print_runtime_summary(std::FILE* out, const RuntimeReport& rep,
                           const RuntimeAnalysis& a) {
  // One block under the log sink mutex: pool workers may still emit ICC_LOG
  // lines (their own dtor-time warnings, say) and those must not interleave
  // mid-summary. Nothing below may itself use ICC_LOG (the sink mutex is not
  // recursive).
  std::lock_guard<std::mutex> lk(log_sink_mutex());
  std::fprintf(out,
               "runtime: wall %.2f s, %u threads, utilization %.0f%% (%s basis), "
               "serial fraction f=%.3f -> Amdahl max %.2fx\n",
               static_cast<double>(rep.wall_ns) * 1e-9, rep.threads, a.utilization * 100.0,
               a.cpu_basis ? "cpu" : "wall", a.serial_fraction, a.amdahl_max);
  for (const WorkerReport& w : rep.workers) {
    std::fprintf(out,
                 "  %-10s busy %8.3f s  idle %8.3f s  cpu %8.3f s  "
                 "claimed %8llu  stolen %8llu%s\n",
                 w.name.c_str(), static_cast<double>(w.busy_ns) * 1e-9,
                 static_cast<double>(w.idle_ns) * 1e-9,
                 w.cpu_ns >= 0 ? static_cast<double>(w.cpu_ns) * 1e-9 : 0.0,
                 static_cast<unsigned long long>(w.claimed),
                 static_cast<unsigned long long>(w.stolen),
                 w.spans_dropped > 0 ? "  [ring overflowed]" : "");
  }
  // Contention hot-list, aggregated across lanes, worst wait first.
  struct Hot {
    size_t site;
    LockStat total;
    uint32_t holders = 0;
  };
  std::vector<Hot> hot;
  for (size_t k = 0; k < kLockSites; ++k) {
    Hot h{k, {}, 0};
    for (const WorkerReport& w : rep.workers) {
      const LockStat& s = w.locks[k];
      if (s.acquisitions == 0) continue;
      h.holders++;
      h.total.acquisitions += s.acquisitions;
      h.total.contended += s.contended;
      h.total.wait_ns += s.wait_ns;
      h.total.max_wait_ns = std::max(h.total.max_wait_ns, s.max_wait_ns);
    }
    if (h.total.acquisitions > 0) hot.push_back(h);
  }
  std::sort(hot.begin(), hot.end(),
            [](const Hot& x, const Hot& y) { return x.total.wait_ns > y.total.wait_ns; });
  for (const Hot& h : hot) {
    std::fprintf(out,
                 "  lock %-16s %10llu acq, %8llu contended, %9.3f ms waited "
                 "(max %.3f ms, %u holders)\n",
                 kLockNames[h.site], static_cast<unsigned long long>(h.total.acquisitions),
                 static_cast<unsigned long long>(h.total.contended),
                 static_cast<double>(h.total.wait_ns) * 1e-6,
                 static_cast<double>(h.total.max_wait_ns) * 1e-6, h.holders);
  }
  std::fflush(out);
}

}  // namespace icc::obs
