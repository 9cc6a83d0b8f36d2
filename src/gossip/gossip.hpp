// Peer-to-peer pull gossip for large artifacts (Protocol ICC1's sub-layer).
//
// Modeled on the Internet Computer's gossip network [17, 18]: small
// consensus artifacts (signature shares, notarizations, beacon shares) are
// pushed to all peers, while block-bearing artifacts are *advertised* by
// hash and pulled on demand:
//
//   holder  --advert(id, round, size)-->  everyone
//   peer    --request(id)------------->   one advertiser (jittered choice)
//   holder  --artifact bytes---------->   the requester
//   peer (now a holder) advertises too, becoming an alternative source.
//
// The jittered advertiser choice plus re-advertising is what removes the
// leader bottleneck the paper discusses: the block body crosses the network
// roughly once per party, with upload load spread over early receivers
// rather than concentrated at the proposer. Requests that go unanswered
// (corrupt holder) are retried against a different advertiser, preserving
// the eventual-delivery guarantee the consensus layer assumes.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"
#include "sim/network.hpp"
#include "types/messages.hpp"

namespace icc::gossip {

using types::Hash;
using types::Round;

struct GossipConfig {
  /// Random delay before requesting an advertised artifact. Spreads requests
  /// over advertisers that appear in the meantime.
  sim::Duration request_jitter = sim::msec(20);
  /// Re-request from a different advertiser if not delivered in time.
  sim::Duration request_timeout = sim::msec(500);
  int max_attempts = 6;
  /// Artifacts up to this size are pushed whole (advert/pull adds two hops,
  /// which only pays off for bodies that dominate the advert cost — the
  /// Internet Computer's gossip behaves the same way).
  size_t push_threshold = 4096;
};

class GossipLayer {
 public:
  GossipLayer(const GossipConfig& config, sim::PartyIndex self)
      : config_(config), self_(self) {}

  const GossipConfig& config() const { return config_; }

  /// Attach telemetry (queue depth, fetch latency, delivery fan-out) and the
  /// flight recorder (pulled-artifact delivery events).
  void attach_obs(obs::Obs* obs) {
    probe_.attach(obs);
    journal_.attach(obs, self_);
  }

  /// Record an artifact we hold (originated or received). Returns true if it
  /// was new — the caller should then advertise it. `now` (virtual µs)
  /// stamps the fetch-latency probe; -1 skips it. The layer keeps the shared
  /// handle (typically the network's wire buffer), so n holders of one
  /// artifact share one allocation and serving it never copies.
  bool store(std::shared_ptr<const Bytes> raw, Round round, sim::Time now = -1);
  bool store(const Bytes& raw, Round round, sim::Time now = -1) {
    return store(std::make_shared<const Bytes>(raw), round, now);
  }

  bool has(const Hash& id) const { return artifacts_.count(id) > 0; }

  /// Build the advert message for an artifact we hold.
  types::AdvertMsg advert_for(const Bytes& raw, Round round) const;

  /// Peer announced an artifact. May schedule a pull.
  void on_advert(sim::Context& ctx, sim::PartyIndex from, const types::AdvertMsg& msg);

  /// Peer asked for an artifact; serve it if we hold it.
  void on_request(sim::Context& ctx, sim::PartyIndex from, const types::RequestMsg& msg);

  /// Drop artifact/pending state for rounds below `round`.
  void prune_below(Round round);

  // Introspection.
  size_t stored_count() const { return artifacts_.size(); }

 private:
  void try_request(sim::Context ctx, Hash id);

  struct Pending {
    Round round = 0;
    std::vector<sim::PartyIndex> advertisers;
    size_t next_advertiser = 0;  // rotation cursor
    bool request_scheduled = false;
    int attempts = 0;
    sim::Time first_advert_at = -1;  // telemetry: advert → stored latency
  };

  /// An artifact we hold, with the round it belongs to (for pruning).
  struct Stored {
    std::shared_ptr<const Bytes> bytes;
    Round round = 0;
    uint32_t serves = 0;  // telemetry: times we uploaded it (fan-out)
  };

  GossipConfig config_;
  sim::PartyIndex self_;
  obs::GossipProbe probe_;
  obs::JournalScribe journal_;
  std::unordered_map<Hash, Stored, types::HashHasher> artifacts_;
  std::unordered_map<Hash, Pending, types::HashHasher> pending_;
};

}  // namespace icc::gossip
