// Staged ingress pipeline shared by ICC0/ICC1/ICC2.
//
// Every wire payload a party receives passes through four explicit stages:
//
//   1. decode — parse the bytes once into a typed artifact (malformed =
//      adversarial, dropped);
//   2. dedup  — drop exact-duplicate wire artifacts, keyed by content hash,
//      *before any cryptography runs*. Echo-heavy honest traffic (the same
//      notarization broadcast by n parties, the same share re-gossiped) and
//      Byzantine duplicate-floods are absorbed here for the price of one
//      SHA-256. Sender-scoped messages (adverts, pull requests, CUP
//      requests) are exempt: their meaning depends on who sent them.
//   3. verify — all signature checks, centralized in pipeline::Verifier
//      (memoized; see verifier.hpp);
//   4. apply  — insertion into the now crypto-free types::Pool.
//
// This file implements stages 1-2 and the type-specific verify helpers of
// stage 3; the consensus party drives the stages and owns stage 4.
#pragma once

#include <deque>
#include <unordered_set>

#include "obs/obs.hpp"
#include "pipeline/verifier.hpp"
#include "types/messages.hpp"

namespace icc::pipeline {

struct PipelineStats {
  uint64_t decoded = 0;       ///< payloads parsed into a typed artifact
  uint64_t malformed = 0;     ///< payloads dropped in decode
  uint64_t duplicates = 0;    ///< payloads dropped in dedup
  uint64_t dedup_exempt = 0;  ///< sender-scoped payloads that bypassed dedup
  std::vector<uint64_t> duplicates_from;  ///< per sending party

  PipelineStats& operator+=(const PipelineStats& o);
};

class IngressPipeline {
 public:
  IngressPipeline(Verifier& verifier, const PipelineOptions& options, size_t n_parties)
      : verifier_(&verifier), options_(options) {
    stats_.duplicates_from.assign(n_parties, 0);
  }

  /// Recent wire hashes remembered per party by the dedup stage.
  static constexpr size_t kDedupCapacity = 1 << 13;

  /// Stages 1+2: parse `payload` from party `from`, dropping malformed and
  /// exact-duplicate payloads; null if the payload was dropped. With an
  /// attached InternStore the parse (and artifact hash) happens once per
  /// distinct payload cluster-wide. Stats (decoded/malformed/duplicates/
  /// dedup_exempt), the per-party dedup window and its eviction order are
  /// identical either way.
  types::SharedMessage decode_shared(uint32_t from,
                                     const std::shared_ptr<const Bytes>& payload);

  /// Stage-1-only parse of a locally reconstructed buffer (ICC2's RBC
  /// output): interned by content when a store is attached, else parsed
  /// per-party. Touches no pipeline stats — reconstruction is not ingress.
  types::SharedMessage parse_only(const std::shared_ptr<const Bytes>& payload);

  /// Attach the cluster-shared intern store (also see Verifier::attach_intern).
  void attach_intern(InternStore* intern) { intern_ = intern; }

  // --- stage 3: type-specific verification (memoized via the Verifier) ---
  /// Authenticator check for a proposal/echo. The bundled parent
  /// notarization is NOT covered — parse it and route it through
  /// verify_notarization like any other artifact.
  bool verify_proposal(const types::ProposalMsg& m);
  bool verify_notarization_share(const types::NotarizationShareMsg& m);
  bool verify_notarization(const types::NotarizationMsg& m);
  bool verify_finalization_share(const types::FinalizationShareMsg& m);
  bool verify_finalization(const types::FinalizationMsg& m);

  Verifier& verifier() { return *verifier_; }
  const PipelineStats& stats() const { return stats_; }
  size_t dedup_entries() const { return seen_.size(); }

  /// Attach telemetry. Wall-clock decode/verify stage histograms are only
  /// armed when ObsConfig::stage_wall_timing is set (they cost ~2
  /// steady_clock reads per payload).
  void attach_obs(obs::Obs* obs);

 private:
  /// Stage 2 for one artifact id: true = admit (and record), false = drop.
  bool dedup_admit(uint32_t from, const types::Hash& id);

  Verifier* verifier_;
  PipelineOptions options_;
  InternStore* intern_ = nullptr;
  PipelineStats stats_;
  obs::Histogram* decode_wall_ns_ = nullptr;
  obs::Histogram* verify_wall_ns_ = nullptr;

  // Bounded FIFO set of recently seen wire-artifact content hashes.
  std::unordered_set<types::Hash, types::HashHasher> seen_;
  std::deque<types::Hash> seen_order_;
};

}  // namespace icc::pipeline
