#include "obs/audit.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "support/json.hpp"


namespace icc::obs {

namespace {

// Invariant names, in report order. Every name appears in the report's
// "checks" object even at count zero — the report certifies coverage.
constexpr const char* kInvariants[] = {
    "unique-finalization",       "quorum-size",
    "final-implies-unique-notar", "beacon-unique",
    "no-conflicting-notar-share", "final-share-exclusive",
    "monotonic-commit",
};

std::string short_hash(const std::string& h) {
  return h.size() > 12 ? h.substr(0, 12) : h;
}

}  // namespace

AuditReport audit_journal(const std::vector<JournalEvent>& events, const JournalMeta& meta,
                          bool has_meta) {
  using namespace journal_type;

  AuditReport report;
  report.meta = meta;
  report.has_meta = has_meta;
  report.events = events.size();
  for (const char* inv : kInvariants) report.by_invariant[inv] = 0;

  auto flag = [&](const char* invariant, uint64_t round, std::string detail) {
    report.violations.push_back({invariant, round, std::move(detail)});
    report.by_invariant[invariant]++;
  };

  // --- single pass: index the history -------------------------------------
  std::set<uint32_t> parties;
  std::set<uint64_t> rounds;
  // round -> finalized hash -> earliest ts (from finalized + final_agg).
  std::map<uint64_t, std::map<std::string, int64_t>> finalized;
  // round -> notarized hash -> earliest aggregate ts.
  std::map<uint64_t, std::map<std::string, int64_t>> notarized;
  // round -> beacon value -> first recording party (uniqueness witness).
  std::map<uint64_t, std::map<std::string, uint32_t>> beacons;
  // (party, round, proposer) -> distinct notar-share hashes.
  std::map<std::tuple<uint32_t, uint64_t, uint32_t>, std::set<std::string>> notar_shares;
  // (party, round) -> all notar-share hashes (for final-share exclusivity).
  std::map<std::pair<uint32_t, uint64_t>, std::set<std::string>> notar_shares_by_round;
  // (party, round) -> final-share hashes.
  std::map<std::pair<uint32_t, uint64_t>, std::set<std::string>> final_shares;
  // party -> last committed round (monotonicity watermark).
  std::map<uint32_t, uint64_t> last_commit;
  // (round, hash) -> earliest propose/proposal sighting; round/hash-matched
  // share and aggregate minima for latency attribution.
  std::map<std::pair<uint64_t, std::string>, int64_t> propose_ts;
  std::map<std::pair<uint64_t, std::string>, int64_t> share_ts;

  auto keep_min = [](std::map<std::pair<uint64_t, std::string>, int64_t>& m,
                     uint64_t round, const std::string& hash, int64_t ts) {
    auto [it, fresh] = m.emplace(std::make_pair(round, hash), ts);
    if (!fresh && ts < it->second) it->second = ts;
  };

  for (const JournalEvent& ev : events) {
    if (ev.party != JournalEvent::kNoParty) parties.insert(ev.party);
    if (ev.round != 0) rounds.insert(ev.round);

    if (ev.type == kNotarAgg || ev.type == kFinalAgg) {
      // quorum-size: structural checks always; threshold/range checks need
      // the meta record (n, t). Empty signer sets mean the aggregate arrived
      // combined over the wire — signer recovery is crypto-provider-specific,
      // so those are latency witnesses only, never quorum evidence.
      if (!ev.signers.empty()) {
        std::set<uint32_t> distinct(ev.signers.begin(), ev.signers.end());
        if (distinct.size() != ev.signers.size())
          flag("quorum-size", ev.round,
               std::string(ev.type) + " for " + short_hash(ev.hash_hex()) +
                   " lists duplicate signers");
        if (has_meta) {
          if (distinct.size() < meta.quorum()) {
            std::ostringstream os;
            os << ev.type << " for " << short_hash(ev.hash_hex()) << " carries "
               << distinct.size() << " distinct signers, quorum is " << meta.quorum();
            flag("quorum-size", ev.round, os.str());
          }
          for (uint32_t s : distinct)
            if (s >= meta.n) {
              std::ostringstream os;
              os << ev.type << " for " << short_hash(ev.hash_hex()) << " lists signer " << s
                 << " outside 0.." << meta.n - 1;
              flag("quorum-size", ev.round, os.str());
            }
        }
      }
    }

    if (ev.type == kNotarAgg) {
      auto [it, fresh] = notarized[ev.round].emplace(ev.hash_hex(), ev.ts);
      if (!fresh && ev.ts < it->second) it->second = ev.ts;
    } else if (ev.type == kFinalAgg || ev.type == kFinalized) {
      auto [it, fresh] = finalized[ev.round].emplace(ev.hash_hex(), ev.ts);
      if (!fresh && ev.ts < it->second) it->second = ev.ts;
    } else if (ev.type == kBeacon) {
      beacons[ev.round].emplace(ev.hash_hex(), ev.party);
    } else if (ev.type == kNotarShare) {
      notar_shares[{ev.party, ev.round, ev.proposer}].insert(ev.hash_hex());
      notar_shares_by_round[{ev.party, ev.round}].insert(ev.hash_hex());
      keep_min(share_ts, ev.round, ev.hash_hex(), ev.ts);
    } else if (ev.type == kFinalShare) {
      final_shares[{ev.party, ev.round}].insert(ev.hash_hex());
    } else if (ev.type == kPropose || ev.type == kProposal) {
      keep_min(propose_ts, ev.round, ev.hash_hex(), ev.ts);
    } else if (ev.type == kCommit) {
      auto [it, fresh] = last_commit.emplace(ev.party, ev.round);
      if (!fresh) {
        if (ev.round <= it->second) {
          std::ostringstream os;
          os << "party " << ev.party << " committed round " << ev.round
             << " after round " << it->second;
          flag("monotonic-commit", ev.round, os.str());
        }
        it->second = ev.round;
      }
    }
  }

  report.parties_seen = parties.size();
  report.rounds_seen = rounds.size();
  report.finalized_rounds = finalized.size();

  // --- invariants over the indexes -----------------------------------------

  // unique-finalization: at most one finalized hash per round (Lemma 7).
  for (const auto& [round, hashes] : finalized) {
    if (hashes.size() > 1) {
      std::ostringstream os;
      os << hashes.size() << " distinct finalized blocks:";
      for (const auto& [h, ts] : hashes) os << " " << short_hash(h);
      flag("unique-finalization", round, os.str());
    }
  }

  // final-implies-unique-notar: a finalization in round r rules out any
  // other notarized round-r block (Lemmas 5-6 / property P2).
  for (const auto& [round, hashes] : finalized) {
    const std::string& fin = hashes.begin()->first;
    auto notar = notarized.find(round);
    if (notar == notarized.end()) continue;
    for (const auto& [h, ts] : notar->second)
      if (h != fin)
        flag("final-implies-unique-notar", round,
             "finalized " + short_hash(fin) + " but " + short_hash(h) +
                 " is also notarized");
  }

  // beacon-unique: the beacon is a unique-threshold scheme — every honest
  // party must combine the same round value.
  for (const auto& [round, values] : beacons) {
    if (values.size() > 1) {
      std::ostringstream os;
      os << values.size() << " distinct beacon values:";
      for (const auto& [v, party] : values)
        os << " " << short_hash(v) << "(party " << party << ")";
      flag("beacon-unique", round, os.str());
    }
  }

  // no-conflicting-notar-share: one (party, round, proposer) never signs two
  // different block hashes — Fig. 1 (c) disqualifies equivocating ranks
  // instead of signing both sides.
  for (const auto& [key, hashes] : notar_shares) {
    if (hashes.size() > 1) {
      auto [party, round, proposer] = key;
      std::ostringstream os;
      os << "party " << party << " signed " << hashes.size()
         << " different blocks by proposer " << proposer << ":";
      for (const auto& h : hashes) os << " " << short_hash(h);
      flag("no-conflicting-notar-share", round, os.str());
    }
  }

  // final-share-exclusive: Fig. 2 casts a finalization share for B only when
  // the party's round-r notarization shares are exactly {B} (N ⊆ {B}).
  for (const auto& [key, fins] : final_shares) {
    auto [party, round] = key;
    if (fins.size() > 1) {
      std::ostringstream os;
      os << "party " << party << " cast finalization shares for " << fins.size()
         << " blocks";
      flag("final-share-exclusive", round, os.str());
      continue;
    }
    const std::string& fin = *fins.begin();
    auto it = notar_shares_by_round.find(key);
    if (it == notar_shares_by_round.end()) continue;
    for (const auto& h : it->second)
      if (h != fin)
        flag("final-share-exclusive", round,
             "party " + std::to_string(party) + " finalization-shared " +
                 short_hash(fin) + " but notarization-shared " + short_hash(h));
  }

  // --- latency attribution (3δ decomposition, §1.1) ------------------------
  int64_t sum_ps = 0, sum_sq = 0, sum_qf = 0, sum_pf = 0;
  uint64_t complete = 0;
  for (const auto& [round, hashes] : finalized) {
    RoundLatency lat;
    lat.round = round;
    lat.hash = hashes.begin()->first;
    auto key = std::make_pair(round, lat.hash);
    lat.finalized_ts = hashes.begin()->second;
    if (auto it = propose_ts.find(key); it != propose_ts.end()) lat.propose_ts = it->second;
    if (auto it = share_ts.find(key); it != share_ts.end()) lat.first_share_ts = it->second;
    if (auto notar = notarized.find(round); notar != notarized.end())
      if (auto it = notar->second.find(lat.hash); it != notar->second.end())
        lat.quorum_ts = it->second;
    if (lat.complete()) {
      complete++;
      sum_ps += lat.first_share_ts - lat.propose_ts;
      sum_sq += lat.quorum_ts - lat.first_share_ts;
      sum_qf += lat.finalized_ts - lat.quorum_ts;
      sum_pf += lat.finalized_ts - lat.propose_ts;
    }
    report.round_latencies.push_back(std::move(lat));
  }
  if (complete) {
    report.mean_propose_to_share_us = sum_ps / static_cast<int64_t>(complete);
    report.mean_share_to_quorum_us = sum_sq / static_cast<int64_t>(complete);
    report.mean_quorum_to_final_us = sum_qf / static_cast<int64_t>(complete);
    report.mean_propose_to_final_us = sum_pf / static_cast<int64_t>(complete);
  }

  return report;
}

AuditReport audit_jsonl(const std::string& text) {
  Journal::Parsed parsed = Journal::parse_jsonl(text);
  if (!parsed.error.empty()) {
    AuditReport report;
    report.error = std::move(parsed.error);
    return report;
  }
  return audit_journal(parsed.events, parsed.meta, parsed.has_meta);
}

std::string AuditReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"icc-audit/v1\",\"ok\":" << (ok() ? "true" : "false");
  os << ",\"meta\":{\"present\":" << (has_meta ? "true" : "false");
  if (has_meta) {
    os << ",\"n\":" << meta.n << ",\"t\":" << meta.t << ",\"quorum\":" << meta.quorum()
       << ",\"protocol\":\"" << support::json::escape(meta.protocol) << "\",\"seed\":" << meta.seed;
  }
  os << "},\"events\":" << events << ",\"parties\":" << parties_seen
     << ",\"rounds\":" << rounds_seen << ",\"finalized_rounds\":" << finalized_rounds;
  os << ",\"checks\":{";
  bool first = true;
  for (const auto& [name, count] : by_invariant) {
    if (!first) os << ",";
    first = false;
    os << "\"" << name << "\":" << count;
  }
  os << "},\"violations\":[";
  for (size_t i = 0; i < violations.size(); ++i) {
    if (i) os << ",";
    os << "{\"invariant\":\"" << support::json::escape(violations[i].invariant)
       << "\",\"round\":" << violations[i].round << ",\"detail\":\""
       << support::json::escape(violations[i].detail) << "\"}";
  }
  os << "],\"latency\":{\"attributed_rounds\":";
  uint64_t complete = 0;
  for (const auto& lat : round_latencies)
    if (lat.complete()) complete++;
  os << complete << ",\"mean_propose_to_share_us\":" << mean_propose_to_share_us
     << ",\"mean_share_to_quorum_us\":" << mean_share_to_quorum_us
     << ",\"mean_quorum_to_final_us\":" << mean_quorum_to_final_us
     << ",\"mean_propose_to_final_us\":" << mean_propose_to_final_us << ",\"rounds\":[";
  for (size_t i = 0; i < round_latencies.size(); ++i) {
    const RoundLatency& lat = round_latencies[i];
    if (i) os << ",";
    os << "{\"round\":" << lat.round << ",\"hash\":\"" << support::json::escape(lat.hash)
       << "\",\"propose_ts\":" << lat.propose_ts
       << ",\"first_share_ts\":" << lat.first_share_ts
       << ",\"quorum_ts\":" << lat.quorum_ts << ",\"finalized_ts\":" << lat.finalized_ts
       << "}";
  }
  os << "]}}";
  return os.str();
}

std::string AuditReport::rounds_csv() const {
  std::ostringstream os;
  os << "round,hash,propose_ts,first_share_ts,quorum_ts,finalized_ts,propose_to_final_us\n";
  for (const RoundLatency& lat : round_latencies) {
    os << lat.round << "," << lat.hash << "," << lat.propose_ts << ","
       << lat.first_share_ts << "," << lat.quorum_ts << "," << lat.finalized_ts << ",";
    if (lat.propose_ts >= 0 && lat.finalized_ts >= 0)
      os << (lat.finalized_ts - lat.propose_ts);
    else
      os << -1;
    os << "\n";
  }
  return os.str();
}

}  // namespace icc::obs
