#include "harness/flags.hpp"

#include <optional>

#include "support/args.hpp"

namespace icc::harness {

const char* const kClusterUsage =
    "usage: icc [flags]\n"
    "  --protocol icc0|icc1|icc2  (icc1)      --n <parties> (16)\n"
    "  --t <bound> ((n-1)/3)                  --seed <int> (42)\n"
    "  --seconds <virtual s> (20)             --rounds <N>: soak to round N\n"
    "  --delta-ms <ms> (10; 0 = WAN)          --delta-bnd-ms <ms> (600)\n"
    "  --epsilon-ms <ms> (0)                  --adaptive\n"
    "  --async <a>:<b>  [a, b) ms, all traffic stalls; repeatable\n"
    "  --partition <a>:<b>:<k>  [a, b) ms, the {<k}|{>=k} cut stalls; repeatable\n"
    "  --crash <k>  --equivocate <k>  --censor <k>   corrupt parties\n"
    "  --real-crypto                          --cup <interval rounds>\n"
    "  --payload <bytes> (4096)\n"
    "  --trace <path>  --metrics <path>  --journal <path>  --series <path>\n"
    "  --runtime <path>  (any artifact turns telemetry on)\n"
    "  --no-causal  --journal-capacity <events> (4194304)\n"
    "  --window-us <virtual us> (1000000)     --stage-wall-timing\n";

sim::PartyIndex corrupt_slot(size_t c, size_t n) {
  const size_t ones = (n + 1) / 3, twos = n / 3;  // slots = 1 and = 2 (mod 3)
  if (c < ones) return static_cast<sim::PartyIndex>(1 + 3 * c);
  if (c < ones + twos) return static_cast<sim::PartyIndex>(2 + 3 * (c - ones));
  return static_cast<sim::PartyIndex>(3 * (c - ones - twos));
}

namespace {

constexpr int64_t kMaxN = 4096;
constexpr int64_t kMaxMs = int64_t{1} << 40;

/// "a:b" (count 2) or "a:b:k" (count 3) into `v`: integers, with a < b.
bool parse_window(support::Args& a, std::string_view flag, int64_t* v, size_t count) {
  const std::string text = a.value(flag);
  std::string_view rest = text;
  bool ok = a.error().empty();
  for (size_t i = 0; ok && i < count; ++i) {
    const size_t end = i + 1 < count ? rest.find(':') : rest.size();
    const auto x = end == std::string_view::npos
                       ? std::nullopt
                       : support::parse_int(rest.substr(0, end), 0, kMaxMs);
    ok = x.has_value();
    if (ok) v[i] = *x;
    rest.remove_prefix(std::min(rest.size(), end + 1));
  }
  if (ok && v[1] > v[0]) return true;
  a.fail(std::string(flag) + ": bad window '" + text + "' (want start_ms:end_ms" +
         (count == 3 ? ":split)" : ")"));
  return false;
}

}  // namespace

bool parse_cluster_flags(int argc, const char* const* argv, ClusterFlags* out,
                         std::string* error) {
  ClusterFlags f;
  ClusterOptions& o = f.options;
  o.n = 16;
  o.protocol = Protocol::kIcc1;
  o.seed = 42;
  o.delta_bnd = sim::msec(600);
  o.payload_size = 4096;
  // The causal layer records every wire transfer, so give the journal room
  // for long runs (excess events are counted in the meta line, not lost
  // silently).
  o.obs.journal_capacity = size_t{1} << 22;
  std::optional<int64_t> t;
  int64_t delta_ms = 10, crash = 0, equivocate = 0, censor = 0;
  bool no_causal = false;
  std::vector<PartitionDelay::Window> partitions;

  support::Args a(argc, argv);
  while (!a.done()) {
    const std::string_view flag = a.next();
    if (flag == "--protocol") {
      const std::string v = a.value(flag);
      if (v == "icc0") o.protocol = Protocol::kIcc0;
      else if (v == "icc1") o.protocol = Protocol::kIcc1;
      else if (v == "icc2") o.protocol = Protocol::kIcc2;
      else a.fail("--protocol: unknown protocol '" + v + "'");
    } else if (flag == "--n") o.n = static_cast<size_t>(a.number(flag, 1, kMaxN));
    else if (flag == "--t") t = a.number(flag, 0, kMaxN);
    else if (flag == "--seed") o.seed = static_cast<uint64_t>(a.number(flag, 0, INT64_MAX));
    else if (flag == "--seconds") f.seconds = a.number(flag, 1, kMaxMs / 1000);
    else if (flag == "--rounds") f.rounds = static_cast<uint64_t>(a.number(flag, 1, UINT32_MAX));
    else if (flag == "--delta-ms") delta_ms = a.number(flag, 0, kMaxMs);
    else if (flag == "--delta-bnd-ms") o.delta_bnd = sim::msec(a.number(flag, 0, kMaxMs));
    else if (flag == "--epsilon-ms") o.epsilon = sim::msec(a.number(flag, 0, kMaxMs));
    else if (flag == "--adaptive") o.adaptive.enabled = true;
    else if (flag == "--async") {
      int64_t w[2];
      if (parse_window(a, flag, w, 2))
        f.async_windows.emplace_back(sim::msec(w[0]), sim::msec(w[1]));
    } else if (flag == "--partition") {
      int64_t w[3];
      if (parse_window(a, flag, w, 3))
        partitions.push_back({sim::msec(w[0]), sim::msec(w[1]), static_cast<uint32_t>(w[2])});
    } else if (flag == "--crash") crash = a.number(flag, 0, kMaxN);
    else if (flag == "--equivocate") equivocate = a.number(flag, 0, kMaxN);
    else if (flag == "--censor") censor = a.number(flag, 0, kMaxN);
    else if (flag == "--real-crypto") o.crypto = CryptoKind::kReal;
    else if (flag == "--cup") o.cup_interval = static_cast<Round>(a.number(flag, 0, UINT32_MAX));
    else if (flag == "--payload") o.payload_size = static_cast<size_t>(a.number(flag, 0, 1 << 30));
    else if (flag == "--trace") f.trace = a.value(flag);
    else if (flag == "--metrics") f.metrics = a.value(flag);
    else if (flag == "--journal") f.journal = a.value(flag);
    else if (flag == "--series") f.series = a.value(flag);
    else if (flag == "--runtime") f.runtime = a.value(flag);
    else if (flag == "--no-causal") no_causal = true;
    else if (flag == "--journal-capacity")
      o.obs.journal_capacity = static_cast<size_t>(a.number(flag, 1, int64_t{1} << 32));
    else if (flag == "--window-us") o.obs.series_window_us = a.number(flag, 1, kMaxMs * 1000);
    else if (flag == "--stage-wall-timing") o.obs.stage_wall_timing = true;
    else a.fail("unknown flag " + std::string(flag));
  }

  o.t = t ? static_cast<size_t>(*t) : (o.n - 1) / 3;
  const size_t corrupt = static_cast<size_t>(crash + equivocate + censor);
  if (a.error().empty() && o.t >= o.n)
    a.fail("--t: " + std::to_string(o.t) + " must be below n = " + std::to_string(o.n));
  if (a.error().empty() && corrupt > o.n)
    a.fail(std::to_string(corrupt) + " corrupt parties exceed n = " + std::to_string(o.n));
  for (const PartitionDelay::Window& w : partitions)
    if (a.error().empty() && (w.split == 0 || w.split >= o.n))
      a.fail("--partition: split " + std::to_string(w.split) + " is not in [1, n)");
  if (!a.error().empty()) {
    *error = a.error();
    return false;
  }

  // Behaviours take consecutive corrupt slots: crashes, then equivocators,
  // then censors.
  auto assign = [&](CorruptBehavior b, int64_t count) {
    for (int64_t j = 0; j < count; ++j)
      o.corrupt.emplace_back(corrupt_slot(o.corrupt.size(), o.n), b);
  };
  assign(Crashed{}, crash);
  consensus::ByzantineBehavior eq;
  eq.equivocate = true;
  assign(eq, equivocate);
  consensus::ByzantineBehavior cen;
  cen.empty_payload = true;
  assign(cen, censor);

  o.delay_model = [delta_ms, partitions](size_t n, uint64_t seed) {
    std::unique_ptr<sim::DelayModel> base;
    if (delta_ms > 0) {
      base = std::make_unique<sim::FixedDelay>(sim::msec(delta_ms));
    } else {
      sim::WanDelay::Config wan;
      wan.n = n;
      wan.seed = seed;
      base = std::make_unique<sim::WanDelay>(wan);
    }
    if (partitions.empty()) return base;
    return std::unique_ptr<sim::DelayModel>(
        std::make_unique<PartitionDelay>(std::move(base), partitions));
  };

  if (f.rounds > 0) {
    // Soak mode: a million-round run must keep memory flat.
    o.max_round = static_cast<Round>(f.rounds);
    o.record_payloads = false;
    o.record_latencies = false;
    o.committed_history = 1024;
    o.obs.series_wall = true;
  }
  // The trace is rendered from the journal; the causal send/recv layer is
  // only worth its cost in a journal file.
  o.obs.journal = !f.trace.empty() || !f.journal.empty();
  o.obs.journal_causal = !f.journal.empty() && !no_causal;
  o.obs.series = !f.series.empty();
  o.obs.runtime = !f.runtime.empty();
  o.obs.enabled = o.obs.journal || o.obs.series || o.obs.runtime || !f.metrics.empty();
  *out = std::move(f);
  return true;
}

}  // namespace icc::harness
