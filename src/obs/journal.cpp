#include "obs/journal.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "obs/obs.hpp"
#include "support/bytes.hpp"
#include "support/defer.hpp"
#include "support/json.hpp"

namespace icc::obs {

namespace json = support::json;

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/// Intern a parsed string onto the static journal constants (event types,
/// provenance/phase literals) so recorded and parsed events compare equal by
/// pointer; unknown strings are copied into a small leak-free-enough static
/// pool (parsing happens in offline tools).
const char* intern_string(const std::string& s) {
  using namespace journal_type;
  static constexpr const char* kKnown[] = {
      kRoundEnter, kProposal,   kPropose,       kNotarShare,   kNotarAgg,
      kFinalShare, kFinalAgg,   kFinalized,     kCommit,       kBeaconShare,
      kBeacon,     kRbcPhase,   kGossipDeliver, kSend,         kRecv,
      kGossipAdvert, kGossipRequest,            "combined",    "wire",
      "disperse",  "echo",      "reconstruct",  "deliver",     "reject"};
  for (const char* k : kKnown)
    if (s == k) return k;
  static std::vector<std::unique_ptr<std::string>>* pool =
      new std::vector<std::unique_ptr<std::string>>();
  for (const auto& p : *pool)
    if (*p == s) return p->c_str();
  pool->push_back(std::make_unique<std::string>(s));
  return pool->back()->c_str();
}

/// Reads one event record; "" on success.
std::string read_event(const json::Value& v, JournalEvent* ev) {
  std::string type, detail, hex;
  const std::string err = json::read_fields(
      v, {{"type", &type}, {"detail", &detail}, {"ts", &ev->ts}, {"party", &ev->party},
          {"peer", &ev->peer}, {"round", &ev->round}, {"proposer", &ev->proposer},
          {"edge", &ev->edge}, {"hash", &hex}, {"signers", &ev->signers}, {"value", &ev->value}});
  if (!err.empty()) return err;
  if (type.empty() || type == "meta") return "not an event record";
  if (hex.size() > 2 * ev->hash.size()) return "field \"hash\" is longer than 32 bytes";
  try {
    const Bytes hash = from_hex(hex);
    if (!hash.empty()) ev->set_hash(hash.data(), hash.size());
  } catch (const std::invalid_argument&) {
    return "field \"hash\" is not hex";
  }
  ev->type = intern_string(type);
  if (!detail.empty()) ev->detail = intern_string(detail);
  return {};
}

/// Reads the meta record; "" on success.
std::string read_meta(const json::Value& v, JournalMeta* m) {
  std::string type;
  const std::string err = json::read_fields(
      v, {{"type", &type}, {"schema", &m->schema}, {"n", &m->n}, {"t", &m->t},
          {"protocol", &m->protocol}, {"seed", &m->seed}, {"dropped", &m->dropped}});
  return err.empty() && type != "meta" ? "not a meta record" : err;
}

}  // namespace

void JournalEvent::set_hash(const uint8_t* data, size_t len) {
  hash_len = static_cast<uint8_t>(len < hash.size() ? len : hash.size());
  std::memcpy(hash.data(), data, hash_len);
}

std::string JournalEvent::hash_hex() const { return to_hex(BytesView(hash.data(), hash_len)); }

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

void Journal::append(JournalEvent ev) {
  if (capacity_ == 0) return;
  // Inside a parallel region (support/defer.hpp) the append rides the defer
  // queue: the event store mutates only on the coordinating thread, in
  // canonical event order, so the JSONL stays byte-identical at any thread
  // count. The sequential path pays one thread-local load.
  // (The lambda must not steal `ev` before we know a queue is installed.)
  if (support::DeferQueue* q = support::DeferQueue::current()) {
    q->push([this, ev = std::move(ev)]() mutable { append_in_order(std::move(ev)); });
    return;
  }
  append_in_order(std::move(ev));
}

void Journal::append_in_order(JournalEvent ev) {
  if (events_.size() + external_ >= capacity_) {
    dropped_++;
    return;
  }
  events_.push_back(std::move(ev));
}

void Journal::merge_external(std::vector<std::pair<uint64_t, JournalEvent>>&& recs) {
  if (recs.empty()) return;
  external_ -= std::min<uint64_t>(external_, recs.size());
  std::vector<JournalEvent> merged;
  merged.reserve(events_.size() + recs.size());
  size_t r = 0;
  for (size_t i = 0; i < events_.size(); ++i) {
    while (r < recs.size() && recs[r].first <= i)
      merged.push_back(std::move(recs[r++].second));
    merged.push_back(std::move(events_[i]));
  }
  while (r < recs.size()) merged.push_back(std::move(recs[r++].second));
  events_ = std::move(merged);
}

std::string Journal::meta_json(const JournalMeta& meta, uint64_t event_count,
                               uint64_t dropped) {
  std::ostringstream os;
  os << "{\"type\":\"meta\",\"schema\":\""
     << json::escape(meta.schema.empty() ? JournalMeta::kSchemaV1 : meta.schema)
     << "\",\"n\":" << meta.n
     << ",\"t\":" << meta.t << ",\"quorum\":" << meta.quorum() << ",\"protocol\":\""
     << json::escape(meta.protocol) << "\",\"seed\":" << meta.seed
     << ",\"events\":" << event_count << ",\"dropped\":" << dropped << "}";
  return os.str();
}

std::string Journal::event_json(const JournalEvent& ev, uint64_t seq) {
  std::ostringstream os;
  os << "{\"seq\":" << seq << ",\"type\":\"" << json::escape(ev.type ? ev.type : "")
     << "\",\"ts\":" << ev.ts;
  if (ev.party != JournalEvent::kNoParty) os << ",\"party\":" << ev.party;
  if (ev.peer != JournalEvent::kNoParty) os << ",\"peer\":" << ev.peer;
  if (ev.round != 0) os << ",\"round\":" << ev.round;
  if (ev.proposer != JournalEvent::kNoParty) os << ",\"proposer\":" << ev.proposer;
  if (ev.edge != 0) os << ",\"edge\":" << ev.edge;
  if (ev.hash_len != 0) {
    os << ",\"hash\":\"";
    for (uint8_t i = 0; i < ev.hash_len; ++i)
      os << kHexDigits[ev.hash[i] >> 4] << kHexDigits[ev.hash[i] & 0xf];
    os << "\"";
  }
  if (!ev.signers.empty()) {
    os << ",\"signers\":[";
    for (size_t i = 0; i < ev.signers.size(); ++i) {
      if (i) os << ",";
      os << ev.signers[i];
    }
    os << "]";
  }
  if (ev.has_detail()) os << ",\"detail\":\"" << json::escape(ev.detail) << "\"";
  if (ev.value != JournalEvent::kNoValue) os << ",\"value\":" << ev.value;
  os << "}";
  return os.str();
}

std::string Journal::to_jsonl() const {
  std::ostringstream os;
  os << meta_json(meta_, events_.size(), dropped_) << "\n";
  uint64_t seq = 1;
  for (const JournalEvent& ev : events_) os << event_json(ev, seq++) << "\n";
  return os.str();
}

bool Journal::write_jsonl(const std::string& path) const {
  return support::json::write_file(path, to_jsonl());
}

std::string Journal::trace_json() const {
  return "{\"traceEvents\":[" + trace_events_json(events_) +
         "],\"metadata\":{\"journal_dropped\":" + std::to_string(dropped_) +
         "},\"displayTimeUnit\":\"ms\"}";
}

std::string trace_events_json(const std::vector<JournalEvent>& events) {
  using namespace journal_type;
  constexpr uint32_t kLaneConsensus = 0, kLaneGossip = 1;
  struct TraceEvent {
    const char* name;
    const char* cat;
    char ph;  ///< 'X' span, 'i' instant
    int64_t ts, dur;
    uint32_t pid, tid;
    const char* arg_key;  ///< nullptr = no args
    int64_t arg;
  };
  using Hash = std::array<uint8_t, 32>;
  // Per (party, round): entry time, the time the round could finish, and
  // the round-r blocks / notarizations the party holds so far.
  struct RoundTrack {
    int64_t enter = -1;
    int64_t done = -1;
    bool emitted = false;
    bool child_seen = false;  ///< saw a round-(r+1) proposal
    std::set<Hash> blocks, notarized;
  };
  std::map<std::pair<uint32_t, uint64_t>, RoundTrack> rounds;
  std::map<std::pair<uint32_t, Hash>, int64_t> pulls;  // armed pull -> advert ts
  std::vector<TraceEvent> out;

  // Events are emitted in the order the run completed them; the stable sort
  // below keeps that order among equal start times.
  auto finish_round = [&](uint32_t party, uint64_t round, int64_t now) {
    RoundTrack& rt = rounds[{party, round}];
    if (rt.done < 0) rt.done = now;
    if (rt.emitted || rt.enter < 0) return;
    rt.emitted = true;
    out.push_back({"round", "consensus", 'X', rt.enter, std::max<int64_t>(0, rt.done - rt.enter),
                   party, kLaneConsensus, "round", static_cast<int64_t>(round)});
  };
  auto hold = [&](const JournalEvent& e, bool block) {
    RoundTrack& rt = rounds[{e.party, e.round}];
    (block ? rt.blocks : rt.notarized).insert(e.hash);
    if ((rt.blocks.count(e.hash) != 0 && rt.notarized.count(e.hash) != 0) ||
        (block && rt.child_seen))
      finish_round(e.party, e.round, e.ts);
  };

  for (const JournalEvent& e : events) {
    if (e.party == JournalEvent::kNoParty) continue;
    const char* t = e.type;
    if (t == kRoundEnter) {
      RoundTrack& rt = rounds[{e.party, e.round}];
      if (rt.enter < 0) rt.enter = e.ts;
      if (rt.done >= 0) finish_round(e.party, e.round, rt.done);
    } else if (t == kPropose || t == kProposal) {
      if (t == kPropose)
        out.push_back({"propose", "consensus", 'i', e.ts, 0, e.party, kLaneConsensus, "round",
                       static_cast<int64_t>(e.round)});
      hold(e, true);
      if (t == kProposal && e.round > 0) {
        RoundTrack& parent = rounds[{e.party, e.round - 1}];
        parent.child_seen = true;
        if (!parent.blocks.empty()) finish_round(e.party, e.round - 1, e.ts);
      }
    } else if (t == kNotarAgg) {
      hold(e, false);
    } else if (t == kFinalized) {
      out.push_back({"finalize", "consensus", 'i', e.ts, 0, e.party, kLaneConsensus, "round",
                     static_cast<int64_t>(e.round)});
    } else if (t == kGossipAdvert) {
      // One advert per pending pull is journaled (the one that arms it).
      pulls[{e.party, e.hash}] = e.ts;
    } else if (t == kGossipRequest) {
      if (e.value > 1)
        out.push_back({"pull-retry", "gossip", 'i', e.ts, 0, e.party, kLaneGossip, nullptr, 0});
    } else if (t == kGossipDeliver) {
      auto it = pulls.find({e.party, e.hash});
      if (it == pulls.end()) continue;
      out.push_back({"fetch", "gossip", 'X', it->second, e.ts - it->second, e.party,
                     kLaneGossip, "bytes", e.value});
      pulls.erase(it);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });

  std::ostringstream os;
  for (size_t i = 0; i < out.size(); ++i) {
    const TraceEvent& ev = out[i];
    if (i) os << ",\n";
    os << "{\"name\":\"" << ev.name << "\",\"cat\":\"" << ev.cat << "\",\"ph\":\"" << ev.ph
       << "\",\"ts\":" << ev.ts;
    if (ev.ph == 'X') os << ",\"dur\":" << ev.dur;
    os << ",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid;
    if (ev.ph == 'i') os << ",\"s\":\"t\"";  // instant scope: thread
    if (ev.arg_key) os << ",\"args\":{\"" << ev.arg_key << "\":" << ev.arg << "}";
    os << "}";
  }
  return os.str();
}

Journal::Parsed Journal::parse_jsonl(const std::string& text) {
  Parsed out;
  out.error = json::for_each_line(text, [&out](const json::Value& v) {
    if (out.has_meta) return read_event(v, &out.events.emplace_back());
    std::string err = read_meta(v, &out.meta);
    out.has_meta = err.empty();
    return err;
  });
  if (out.error.empty() && !out.has_meta) out.error = "line 1: no meta record (empty input)";
  return out;
}

// ---------------------------------------------------------------------------
// JournalScribe
// ---------------------------------------------------------------------------

void JournalScribe::attach(Obs* obs, uint32_t party) {
  journal_ = obs ? obs->journal() : nullptr;
  party_ = party;
}

JournalEvent JournalScribe::event(const char* type, uint64_t round, int64_t now) const {
  JournalEvent ev;
  ev.type = type;
  ev.ts = now;
  ev.party = party_;
  ev.round = round;
  return ev;
}

JournalEvent JournalScribe::hashed(const char* type, uint64_t round,
                                   const std::array<uint8_t, 32>& hash, int64_t now) const {
  JournalEvent ev = event(type, round, now);
  ev.set_hash(hash.data(), hash.size());
  return ev;
}

JournalEvent JournalScribe::block(const char* type, uint64_t round, uint32_t proposer,
                                  const std::array<uint8_t, 32>& hash, int64_t now) const {
  JournalEvent ev = hashed(type, round, hash, now);
  ev.proposer = proposer;
  return ev;
}

void JournalScribe::round_enter(uint64_t round, int64_t now) {
  if (journal_) journal_->append(event(journal_type::kRoundEnter, round, now));
}

void JournalScribe::proposal(uint64_t round, uint32_t proposer,
                             const std::array<uint8_t, 32>& hash, int64_t now) {
  if (journal_) journal_->append(block(journal_type::kProposal, round, proposer, hash, now));
}

void JournalScribe::propose(uint64_t round, const std::array<uint8_t, 32>& hash,
                            int64_t now) {
  if (journal_) journal_->append(block(journal_type::kPropose, round, party_, hash, now));
}

void JournalScribe::notar_share(uint64_t round, uint32_t proposer,
                                const std::array<uint8_t, 32>& hash, int64_t now) {
  if (journal_) journal_->append(block(journal_type::kNotarShare, round, proposer, hash, now));
}

void JournalScribe::notar_agg(uint64_t round, uint32_t proposer,
                              const std::array<uint8_t, 32>& hash,
                              std::vector<uint32_t> signers, const char* provenance,
                              int64_t now) {
  if (!journal_) return;
  JournalEvent ev = block(journal_type::kNotarAgg, round, proposer, hash, now);
  ev.signers = std::move(signers);
  ev.detail = provenance;
  journal_->append(std::move(ev));
}

void JournalScribe::final_share(uint64_t round, uint32_t proposer,
                                const std::array<uint8_t, 32>& hash, int64_t now) {
  if (journal_) journal_->append(block(journal_type::kFinalShare, round, proposer, hash, now));
}

void JournalScribe::final_agg(uint64_t round, uint32_t proposer,
                              const std::array<uint8_t, 32>& hash,
                              std::vector<uint32_t> signers, const char* provenance,
                              int64_t now) {
  if (!journal_) return;
  JournalEvent ev = block(journal_type::kFinalAgg, round, proposer, hash, now);
  ev.signers = std::move(signers);
  ev.detail = provenance;
  journal_->append(std::move(ev));
}

void JournalScribe::finalized(uint64_t round, const std::array<uint8_t, 32>& hash,
                              int64_t now) {
  if (journal_) journal_->append(hashed(journal_type::kFinalized, round, hash, now));
}

void JournalScribe::commit(uint64_t round, const std::array<uint8_t, 32>& hash,
                           int64_t now) {
  if (journal_) journal_->append(hashed(journal_type::kCommit, round, hash, now));
}

void JournalScribe::beacon_share(uint64_t round, int64_t now) {
  if (journal_) journal_->append(event(journal_type::kBeaconShare, round, now));
}

void JournalScribe::beacon(uint64_t round, const std::vector<uint8_t>& value,
                           int64_t now) {
  if (!journal_) return;
  JournalEvent ev = event(journal_type::kBeacon, round, now);
  ev.set_hash(value.data(), value.size());
  journal_->append(std::move(ev));
}

void JournalScribe::rbc_phase(uint64_t round, uint32_t proposer,
                              const std::array<uint8_t, 32>& hash, const char* phase,
                              int64_t now) {
  if (!journal_) return;
  JournalEvent ev = block(journal_type::kRbcPhase, round, proposer, hash, now);
  ev.detail = phase;
  journal_->append(std::move(ev));
}

void JournalScribe::gossip_deliver(uint64_t round, const std::array<uint8_t, 32>& artifact_id,
                                   uint64_t bytes, int64_t now) {
  if (!journal_) return;
  JournalEvent ev = hashed(journal_type::kGossipDeliver, round, artifact_id, now);
  ev.value = static_cast<int64_t>(bytes);
  journal_->append(std::move(ev));
}

void JournalScribe::gossip_advert(uint64_t round, const std::array<uint8_t, 32>& artifact_id,
                                  uint32_t advertiser, int64_t now) {
  if (!journal_) return;
  JournalEvent ev = hashed(journal_type::kGossipAdvert, round, artifact_id, now);
  ev.peer = advertiser;
  journal_->append(std::move(ev));
}

void JournalScribe::gossip_request(uint64_t round, const std::array<uint8_t, 32>& artifact_id,
                                   uint32_t target, int64_t attempt, int64_t now) {
  if (!journal_) return;
  JournalEvent ev = hashed(journal_type::kGossipRequest, round, artifact_id, now);
  ev.peer = target;
  ev.value = attempt;
  journal_->append(std::move(ev));
}

}  // namespace icc::obs
