#include "obs/causal.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "obs/obs.hpp"
#include "support/defer.hpp"
#include "support/fingerprint.hpp"
#include "support/json.hpp"

namespace icc::obs {

namespace {

using journal_type::kGossipAdvert;
using journal_type::kGossipDeliver;
using journal_type::kGossipRequest;
using journal_type::kPropose;
using journal_type::kRecv;
using journal_type::kRoundEnter;
using journal_type::kSend;

bool is_transfer(const JournalEvent& e) { return e.type == kSend || e.type == kRecv; }

bool same_hash(const JournalEvent& a, const JournalEvent& b) {
  return a.hash_len != 0 && a.hash_len == b.hash_len &&
         std::memcmp(a.hash.data(), b.hash.data(), a.hash_len) == 0;
}

int64_t percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(sorted.size()) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

LatencyStat latency_stat(std::vector<int64_t> values) {
  LatencyStat s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = percentile(values, 0.50);
  s.p90 = percentile(values, 0.90);
  s.p99 = percentile(values, 0.99);
  s.max = values.back();
  double sum = 0;
  for (int64_t v : values) sum += static_cast<double>(v);
  s.mean = sum / static_cast<double>(values.size());
  return s;
}

const char* kind_name(PathSegment::Kind k) {
  switch (k) {
    case PathSegment::Kind::kNetwork: return "network";
    case PathSegment::Kind::kQueue: return "queue";
    case PathSegment::Kind::kCrypto: return "crypto";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// CausalScribe
// ---------------------------------------------------------------------------

void CausalScribe::attach(Obs* obs, size_t n) {
  journal_ = (obs && obs->config().journal_causal) ? obs->journal() : nullptr;
  n_ = n;
  link_seq_.assign(n * n, 0);
  flush_seq_.assign(n * n, 0);
  flush_delivered_.assign(n, 0);
  fp_payload_.assign(n, nullptr);
  fp_cache_.assign(n, 0);
  buffer_.clear();
  if (journal_) {
    // The buffer can hold at most `capacity` records (reserve_external gates
    // every push), so one up-front reservation removes every realloc copy
    // from the timed path. Clamped: pages are only committed when touched,
    // but an absurd user-set capacity should not reserve terabytes.
    buffer_.reserve(std::min<size_t>(journal_->capacity(), size_t{1} << 22));
  }
}

namespace {

/// Edge-id fingerprint, shared with the artifact intern store. Edge
/// uniqueness never depends on it (seq is the per-link message index); the
/// fingerprint only ties the edge to its payload content.
using support::fingerprint64;

}  // namespace

CausalEdge CausalScribe::on_send(uint32_t from, uint32_t to,
                                 const std::shared_ptr<const Bytes>& payload,
                                 int64_t now) {
  CausalEdge edge;
  if (!journal_) return edge;
  // Edge identity is computed synchronously (the caller needs it now): the
  // fingerprint cache and the link-seq row are indexed by `from`, so under
  // parallel execution each is touched only by its owner's events.
  if (payload != fp_payload_[from]) {
    fp_cache_[from] = fingerprint64(payload->data(), payload->size());
    fp_payload_[from] = payload;
  }
  edge.fp = fp_cache_[from];
  edge.seq = ++link_seq_[from * n_ + to];
  // The capacity reservation and the buffer push mutate shared state; defer
  // them so the reservation's order key (journal size at reserve time) is
  // taken at the canonical sequential point.
  const uint32_t size = static_cast<uint32_t>(payload->size());
  auto record = [this, now, fp = edge.fp, size, from, to] {
    if (!journal_->reserve_external()) return;
    buffer_.push_back(Rec{now, fp, static_cast<uint32_t>(journal_->size()), size,
                          static_cast<uint16_t>(from), static_cast<uint16_t>(to), 0});
  };
  if (!support::DeferQueue::maybe_defer(record)) record();
  return edge;
}

void CausalScribe::on_recv(uint32_t from, uint32_t to, const CausalEdge& edge,
                           int64_t now) {
  if (!journal_) return;
  auto record = [this, now, fp = edge.fp, seq = edge.seq, from, to] {
    if (!journal_->reserve_external()) return;
    buffer_.push_back(Rec{now, fp, static_cast<uint32_t>(journal_->size()),
                          static_cast<uint32_t>(seq), static_cast<uint16_t>(to),
                          static_cast<uint16_t>(from), 1});
  };
  if (!support::DeferQueue::maybe_defer(record)) record();
}

void CausalScribe::flush() {
  if (!journal_ || buffer_.empty()) return;
  std::vector<std::pair<uint64_t, JournalEvent>> evs;
  evs.reserve(buffer_.size());
  for (const Rec& r : buffer_) {
    JournalEvent ev;
    ev.ts = r.ts;
    ev.party = r.party;
    ev.peer = r.peer;
    ev.set_hash(reinterpret_cast<const uint8_t*>(&r.fp), kEdgeHashLen);
    if (r.recv) {
      ev.type = journal_type::kRecv;
      ev.edge = r.value;  // matched send's seq, captured at delivery
      ev.value = static_cast<int64_t>(++flush_delivered_[r.party]);
    } else {
      ev.type = journal_type::kSend;
      ev.edge = ++flush_seq_[r.party * n_ + r.peer];
      ev.value = static_cast<int64_t>(r.value);  // payload size
    }
    evs.emplace_back(r.order, std::move(ev));
  }
  buffer_.clear();
  journal_->merge_external(std::move(evs));
}

// ---------------------------------------------------------------------------
// CritPathReport
// ---------------------------------------------------------------------------

int CritPathReport::expected_hops(const std::string& protocol) {
  if (protocol == "icc0" || protocol == "icc1") return 3;
  if (protocol == "icc2") return 4;
  return -1;
}

bool CritPathReport::check_hops(int expected, std::string* violation) const {
  if (!error.empty()) {
    if (violation) *violation = error;
    return false;
  }
  if (rounds_complete == 0) {
    if (violation) *violation = "no complete rounds to check";
    return false;
  }
  for (const RoundPath& rp : rounds) {
    if (!rp.complete) continue;
    if (rp.hops != expected) {
      if (violation) {
        std::ostringstream os;
        os << "round " << rp.round << ": " << rp.hops << " hops, expected " << expected;
        *violation = os.str();
      }
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// CausalAnalyzer
// ---------------------------------------------------------------------------

CausalAnalyzer::CausalAnalyzer(Journal::Parsed parsed) : parsed_(std::move(parsed)) {
  report_.meta = parsed_.meta;
  report_.has_meta = parsed_.has_meta;
  report_.truncated = parsed_.has_meta && parsed_.meta.dropped > 0;
  if (!parsed_.error.empty()) {
    report_.error = "input-malformed: " + parsed_.error;
    return;
  }
  index();
  validate();
  if (report_.error.empty()) analyze();
}

void CausalAnalyzer::index() {
  const auto& ev = parsed_.events;
  uint32_t max_party = 0;
  for (const auto& e : ev)
    if (e.party != JournalEvent::kNoParty && e.party > max_party) max_party = e.party;
  party_events_.assign(static_cast<size_t>(max_party) + 1, {});
  party_pos_.assign(ev.size(), SIZE_MAX);
  for (size_t gi = 0; gi < ev.size(); ++gi) {
    if (ev[gi].party == JournalEvent::kNoParty) continue;
    party_pos_[gi] = party_events_[ev[gi].party].size();
    party_events_[ev[gi].party].push_back(gi);
  }
  for (size_t gi = 0; gi < ev.size(); ++gi) {
    if (ev[gi].type != kSend) continue;
    send_by_edge_.emplace(
        std::make_tuple(ev[gi].party, ev[gi].peer, ev[gi].hash, ev[gi].edge), gi);
  }
}

void CausalAnalyzer::validate() {
  const auto& ev = parsed_.events;
  bool any_edges = !send_by_edge_.empty();
  std::vector<int64_t> expected_index(party_events_.size(), 0);
  std::ostringstream err;

  for (size_t gi = 0; gi < ev.size(); ++gi) {
    const JournalEvent& e = ev[gi];
    if (e.type == kRecv) any_edges = true;
    if (e.type != kRecv) continue;

    auto it = send_by_edge_.find(std::make_tuple(e.peer, e.party, e.hash, e.edge));
    if (it == send_by_edge_.end()) {
      if (!report_.truncated) {
        err << "causal-missing-send: recv at party " << e.party << " ts " << e.ts
            << " (from " << e.peer << ", edge " << e.edge
            << ") has no matching send event";
        report_.error = err.str();
        return;
      }
    } else {
      if (ev[it->second].ts > e.ts && !report_.truncated) {
        err << "causal-time-travel: recv at party " << e.party << " ts " << e.ts
            << " precedes its send (ts " << ev[it->second].ts << ")";
        report_.error = err.str();
        return;
      }
      recv_to_send_.emplace(gi, it->second);
    }

    // Delivery indices are 1-based and contiguous per receiver; a deleted
    // recv line leaves a gap here even when other receptions share its
    // timestamp (fixed-delay runs deliver whole quorums at one instant).
    if (!report_.truncated && e.party < expected_index.size()) {
      int64_t want = ++expected_index[e.party];
      if (e.value != want) {
        err << "causal-missing-recv: party " << e.party << " delivery index "
            << (e.value == JournalEvent::kNoValue ? -1 : e.value) << " at ts " << e.ts
            << ", expected " << want << " (recv event missing or reordered)";
        report_.error = err.str();
        return;
      }
    }
  }

  if (!any_edges) {
    report_.error =
        "causal-no-edges: journal has no send/recv layer (icc-journal/v1?); "
        "re-record with causal tracing enabled";
  }
}

RoundPath CausalAnalyzer::walk_round(uint64_t round, size_t finalized_gi) {
  const auto& ev = parsed_.events;
  RoundPath rp;
  rp.round = round;
  rp.finalizer = ev[finalized_gi].party;
  rp.finalized_ts = ev[finalized_gi].ts;
  rp.path_events.push_back(finalized_gi);

  size_t cur = finalized_gi;
  // Index into rp.segments of the last network segment whose sender-side
  // protocol anchor is still unknown (patched when the walk lands there).
  size_t pending_from = SIZE_MAX;

  for (int steps = 0; steps < 512; ++steps) {
    const uint32_t p = ev[cur].party;
    const int64_t ts = ev[cur].ts;

    // One activation = contiguous same-party, same-timestamp run; it starts
    // at its gating recv (deliveries) or has none (timers, self-delivery).
    size_t run_start = cur;
    size_t anchor = is_transfer(ev[cur]) ? SIZE_MAX : cur;
    size_t gating = SIZE_MAX, terminator = SIZE_MAX;
    for (size_t gi = cur; gi-- > 0;) {
      const JournalEvent& e = ev[gi];
      if (e.party != p || e.ts != ts) break;
      if (e.type == kPropose && e.round == round) {
        terminator = gi;
        break;
      }
      if (e.type == kRecv) {
        gating = gi;
        break;
      }
      run_start = gi;
      // The earliest protocol event of the activation anchors incoming
      // edges (sends interleave with protocol events and are skipped).
      if (!is_transfer(e)) anchor = gi;
    }
    if (pending_from != SIZE_MAX && anchor != SIZE_MAX) {
      rp.segments[pending_from].from_event = anchor;
      pending_from = SIZE_MAX;
    }
    if (anchor != SIZE_MAX && anchor != cur) rp.path_events.push_back(anchor);

    if (terminator != SIZE_MAX) {
      if (pending_from != SIZE_MAX) {
        rp.segments[pending_from].from_event = terminator;
        pending_from = SIZE_MAX;
      }
      rp.proposer = ev[terminator].party;
      rp.propose_ts = ev[terminator].ts;
      rp.complete = true;
      rp.path_events.push_back(terminator);
      break;
    }

    if (gating != SIZE_MAX) {
      auto it = recv_to_send_.find(gating);
      if (it == recv_to_send_.end()) break;  // truncated journal: stop here
      const size_t sgi = it->second;
      PathSegment seg;
      seg.kind = PathSegment::Kind::kNetwork;
      seg.from = ev[sgi].party;
      seg.to = p;
      seg.start = ev[sgi].ts;
      seg.end = ev[gating].ts;
      seg.label = anchor != SIZE_MAX ? ev[anchor].type : "deliver";
      seg.to_event = anchor;
      rp.segments.push_back(seg);
      pending_from = rp.segments.size() - 1;
      rp.path_events.push_back(gating);
      rp.path_events.push_back(sgi);
      cur = sgi;
      continue;
    }

    // No gating recv: a timer (or self-delivery) activation. Bridge the gap
    // to the nearest earlier same-party cause — a gossip event for the same
    // artifact (pull jitter/retry), or the round's nearest protocol event
    // (clause timers are armed at round entry) — and book it as queue time.
    size_t pred = SIZE_MAX;
    const char* qlabel = "timer";
    const JournalEvent& ref = ev[anchor != SIZE_MAX ? anchor : run_start];
    if (party_pos_[run_start] != SIZE_MAX) {
      const auto& mine = party_events_[p];
      for (size_t k = party_pos_[run_start]; k-- > 0;) {
        const JournalEvent& e = ev[mine[k]];
        if (is_transfer(e)) continue;
        if ((e.type == kGossipAdvert || e.type == kGossipRequest ||
             e.type == kGossipDeliver) &&
            same_hash(e, ref)) {
          pred = mine[k];
          qlabel = "gossip_wait";
          break;
        }
        if (e.round == round) {
          pred = mine[k];
          break;
        }
      }
    }
    if (pred == SIZE_MAX) break;  // origin unrecorded (corrupt leader, truncation)

    PathSegment seg;
    seg.kind = PathSegment::Kind::kQueue;
    seg.from = p;
    seg.to = p;
    seg.start = ev[pred].ts;
    seg.end = ts;
    seg.label = qlabel;
    seg.from_event = pred;
    seg.to_event = anchor;
    rp.segments.push_back(seg);
    rp.path_events.push_back(pred);
    if (ev[pred].type == kPropose && ev[pred].round == round) {
      rp.proposer = ev[pred].party;
      rp.propose_ts = ev[pred].ts;
      rp.complete = true;
      break;
    }
    if (ev[pred].type == kRoundEnter) break;  // path origin predates propose
    cur = pred;
  }

  std::reverse(rp.segments.begin(), rp.segments.end());
  for (const PathSegment& s : rp.segments) {
    const int64_t d = s.end - s.start;
    switch (s.kind) {
      case PathSegment::Kind::kNetwork:
        rp.hops++;
        rp.network_us += d;
        break;
      case PathSegment::Kind::kQueue: rp.queue_us += d; break;
      case PathSegment::Kind::kCrypto: rp.crypto_us += d; break;
    }
  }
  if (!rp.complete && !rp.segments.empty()) rp.propose_ts = rp.segments.front().start;
  return rp;
}

void CausalAnalyzer::analyze() {
  const auto& ev = parsed_.events;
  // First `finalized` per round, in journal (= virtual-time) order.
  std::map<uint64_t, size_t> first_finalized;
  for (size_t gi = 0; gi < ev.size(); ++gi)
    if (ev[gi].type == journal_type::kFinalized && ev[gi].round != 0)
      first_finalized.emplace(ev[gi].round, gi);

  std::map<std::pair<uint32_t, uint32_t>, EdgeStat> links;
  std::vector<int64_t> totals, networks, queues, cryptos;
  double net_share = 0, queue_share = 0, crypto_share = 0;

  for (const auto& [round, gi] : first_finalized) {
    RoundPath rp = walk_round(round, gi);
    report_.rounds_analyzed++;
    if (rp.complete) {
      report_.rounds_complete++;
      report_.hop_histogram[rp.hops]++;
      const int64_t total = rp.finalized_ts - rp.propose_ts;
      totals.push_back(total);
      networks.push_back(rp.network_us);
      queues.push_back(rp.queue_us);
      cryptos.push_back(rp.crypto_us);
      if (total > 0) {
        net_share += static_cast<double>(rp.network_us) / static_cast<double>(total);
        queue_share += static_cast<double>(rp.queue_us) / static_cast<double>(total);
        crypto_share += static_cast<double>(rp.crypto_us) / static_cast<double>(total);
      }
      for (const PathSegment& s : rp.segments) {
        if (s.kind != PathSegment::Kind::kNetwork) continue;
        EdgeStat& es = links[{s.from, s.to}];
        es.from = s.from;
        es.to = s.to;
        es.count++;
        es.total_us += s.end - s.start;
        es.max_us = std::max(es.max_us, s.end - s.start);
      }
    }
    report_.rounds.push_back(std::move(rp));
  }

  report_.total = latency_stat(totals);
  report_.network = latency_stat(networks);
  report_.queue = latency_stat(queues);
  report_.crypto = latency_stat(cryptos);
  if (report_.rounds_complete > 0) {
    const double n = static_cast<double>(report_.rounds_complete);
    report_.network_share = net_share / n;
    report_.queue_share = queue_share / n;
    report_.crypto_share = crypto_share / n;
  }
  for (const auto& [key, es] : links) report_.stragglers.push_back(es);
  std::sort(report_.stragglers.begin(), report_.stragglers.end(),
            [](const EdgeStat& a, const EdgeStat& b) {
              if (a.total_us != b.total_us) return a.total_us > b.total_us;
              return std::make_pair(a.from, a.to) < std::make_pair(b.from, b.to);
            });
}

// ---------------------------------------------------------------------------
// Report serialization
// ---------------------------------------------------------------------------

namespace {

void latency_json(std::ostringstream& os, const char* name, const LatencyStat& s) {
  os << "\"" << name << "\":{\"p50\":" << s.p50 << ",\"p90\":" << s.p90
     << ",\"p99\":" << s.p99 << ",\"max\":" << s.max << ",\"mean\":" << s.mean << "}";
}

}  // namespace

std::string CritPathReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"icc-critpath/v1\"";
  if (has_meta) {
    os << ",\"protocol\":\"" << support::json::escape(meta.protocol) << "\",\"n\":" << meta.n
       << ",\"t\":" << meta.t << ",\"seed\":" << meta.seed << ",\"journal_schema\":\""
       << support::json::escape(meta.schema) << "\"";
  }
  if (!error.empty()) os << ",\"error\":\"" << support::json::escape(error) << "\"";
  if (truncated) os << ",\"truncated\":true";
  os << ",\"rounds_analyzed\":" << rounds_analyzed
     << ",\"rounds_complete\":" << rounds_complete;

  os << ",\"hop_histogram\":{";
  bool first = true;
  for (const auto& [hops, count] : hop_histogram) {
    if (!first) os << ",";
    first = false;
    os << "\"" << hops << "\":" << count;
  }
  os << "}";

  os << ",\"latency_us\":{";
  latency_json(os, "total", total);
  os << ",";
  latency_json(os, "network", network);
  os << ",";
  latency_json(os, "queue", queue);
  os << ",";
  latency_json(os, "crypto", crypto);
  os << ",\"share\":{\"network\":" << network_share << ",\"queue\":" << queue_share
     << ",\"crypto\":" << crypto_share << "}}";

  os << ",\"stragglers\":[";
  for (size_t i = 0; i < stragglers.size(); ++i) {
    const EdgeStat& e = stragglers[i];
    if (i) os << ",";
    os << "{\"from\":" << e.from << ",\"to\":" << e.to << ",\"count\":" << e.count
       << ",\"total_us\":" << e.total_us << ",\"max_us\":" << e.max_us << "}";
  }
  os << "]";

  os << ",\"rounds\":[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundPath& rp = rounds[i];
    if (i) os << ",";
    os << "{\"round\":" << rp.round;
    if (rp.proposer != JournalEvent::kNoParty) os << ",\"proposer\":" << rp.proposer;
    if (rp.finalizer != JournalEvent::kNoParty) os << ",\"finalizer\":" << rp.finalizer;
    os << ",\"propose_ts\":" << rp.propose_ts << ",\"finalized_ts\":" << rp.finalized_ts
       << ",\"total_us\":" << (rp.finalized_ts - rp.propose_ts) << ",\"hops\":" << rp.hops
       << ",\"network_us\":" << rp.network_us << ",\"queue_us\":" << rp.queue_us
       << ",\"crypto_us\":" << rp.crypto_us
       << ",\"complete\":" << (rp.complete ? "true" : "false") << ",\"segments\":[";
    for (size_t j = 0; j < rp.segments.size(); ++j) {
      const PathSegment& s = rp.segments[j];
      if (j) os << ",";
      os << "{\"kind\":\"" << kind_name(s.kind) << "\",\"from\":" << s.from
         << ",\"to\":" << s.to << ",\"start\":" << s.start << ",\"end\":" << s.end
         << ",\"us\":" << (s.end - s.start) << ",\"label\":\""
         << support::json::escape(s.label ? s.label : "") << "\"}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Graphviz export
// ---------------------------------------------------------------------------

std::string CausalAnalyzer::to_dot(uint64_t round) const {
  const auto& ev = parsed_.events;
  const RoundPath* rp = nullptr;
  for (const RoundPath& r : report_.rounds)
    if (r.round == round) rp = &r;

  // Nodes: this round's protocol events (transfers become edges, not nodes),
  // plus everything the critical path touches.
  std::vector<char> is_node(ev.size(), 0);
  for (size_t gi = 0; gi < ev.size(); ++gi)
    if (!is_transfer(ev[gi]) && ev[gi].round == round &&
        ev[gi].party != JournalEvent::kNoParty)
      is_node[gi] = 1;
  std::vector<char> on_path(ev.size(), 0);
  if (rp) {
    for (size_t gi : rp->path_events) {
      on_path[gi] = 1;
      if (!is_transfer(ev[gi]) && ev[gi].party != JournalEvent::kNoParty)
        is_node[gi] = 1;
    }
  }

  std::ostringstream os;
  os << "digraph round_" << round << " {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, fontsize=9, fontname=\"monospace\"];\n"
     << "  edge [fontsize=8, fontname=\"monospace\"];\n";

  // Per-party clusters, program-order chains.
  for (size_t p = 0; p < party_events_.size(); ++p) {
    std::vector<size_t> nodes;
    for (size_t gi : party_events_[p])
      if (is_node[gi]) nodes.push_back(gi);
    if (nodes.empty()) continue;
    os << "  subgraph cluster_p" << p << " {\n"
       << "    label=\"party " << p << "\"; color=gray80;\n";
    for (size_t gi : nodes) {
      os << "    e" << gi << " [label=\"" << ev[gi].type;
      if (ev[gi].has_detail()) os << "/" << ev[gi].detail;
      os << "\\n@" << ev[gi].ts << "us\"";
      if (on_path[gi]) os << ", color=red, penwidth=2";
      os << "];\n";
    }
    for (size_t i = 1; i < nodes.size(); ++i)
      os << "    e" << nodes[i - 1] << " -> e" << nodes[i]
         << " [color=gray70, arrowsize=0.5];\n";
    os << "  }\n";
  }

  // Derived delivery edges: a recv whose activation contains a round event
  // happened-before that event; anchor the sender side at its nearest
  // preceding protocol event for this round.
  for (size_t gi = 0; gi < ev.size(); ++gi) {
    if (ev[gi].type != kRecv) continue;
    auto it = recv_to_send_.find(gi);
    if (it == recv_to_send_.end()) continue;
    // Consumer: first round-`round` protocol node in the recv's activation.
    size_t consumer = SIZE_MAX;
    for (size_t j = gi + 1; j < ev.size(); ++j) {
      if (ev[j].party != ev[gi].party || ev[j].ts != ev[gi].ts || ev[j].type == kRecv)
        break;
      if (is_node[j]) {
        consumer = j;
        break;
      }
    }
    if (consumer == SIZE_MAX) continue;
    // Sender anchor: nearest earlier protocol node at the sender.
    const size_t sgi = it->second;
    size_t anchor = SIZE_MAX;
    if (party_pos_[sgi] != SIZE_MAX) {
      const auto& mine = party_events_[ev[sgi].party];
      for (size_t k = party_pos_[sgi]; k-- > 0;) {
        if (is_node[mine[k]]) {
          anchor = mine[k];
          break;
        }
        if (ev[mine[k]].ts < ev[sgi].ts && !is_transfer(ev[mine[k]])) break;
      }
    }
    if (anchor == SIZE_MAX) continue;
    const bool path_edge = on_path[gi] && on_path[sgi];
    os << "  e" << anchor << " -> e" << consumer << " [label=\""
       << (ev[gi].ts - ev[sgi].ts) << "us\"";
    if (path_edge)
      os << ", color=red, penwidth=2";
    else
      os << ", color=gray55, style=dashed, arrowsize=0.6";
    os << "];\n";
  }

  // Queue segments on the path (timer / gossip-jitter waits).
  if (rp) {
    for (const PathSegment& s : rp->segments) {
      if (s.kind != PathSegment::Kind::kQueue) continue;
      if (s.from_event == SIZE_MAX || s.to_event == SIZE_MAX) continue;
      if (!is_node[s.from_event] || !is_node[s.to_event]) continue;
      os << "  e" << s.from_event << " -> e" << s.to_event << " [label=\"" << s.label
         << " " << (s.end - s.start) << "us\", color=red, style=dotted, penwidth=2];\n";
    }
  }

  os << "}\n";
  return os.str();
}

CritPathReport analyze_journal_jsonl(const std::string& text) {
  CausalAnalyzer analyzer(Journal::parse_jsonl(text));
  return analyzer.report();
}

}  // namespace icc::obs
