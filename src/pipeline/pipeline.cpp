#include "pipeline/pipeline.hpp"

#include <chrono>

#include "pipeline/intern.hpp"

namespace icc::pipeline {
namespace {

/// Records elapsed wall-clock nanoseconds into a histogram on scope exit.
/// A null histogram (stage timing off) costs one branch, no clock reads.
class StageTimer {
 public:
  explicit StageTimer(obs::Histogram* h) : h_(h) {
    if (h_) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() {
    if (h_) {
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      h_->record(static_cast<int64_t>(ns));
    }
  }

 private:
  obs::Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

types::SharedMessage parse_shared(BytesView bytes) {
  auto msg = types::parse_message(bytes);
  if (!msg) return nullptr;
  return std::make_shared<const types::Message>(std::move(*msg));
}

}  // namespace

void IngressPipeline::attach_obs(obs::Obs* obs) {
  if (obs == nullptr || !obs->enabled() || !obs->config().stage_wall_timing) return;
  // 64 ns … ~1 s, exponential.
  decode_wall_ns_ = &obs->registry().histogram("pipeline.decode_wall_ns",
                                               obs::Histogram::exponential(64, 2.0, 24));
  verify_wall_ns_ = &obs->registry().histogram("pipeline.verify_wall_ns",
                                               obs::Histogram::exponential(64, 2.0, 24));
}

PipelineStats& PipelineStats::operator+=(const PipelineStats& o) {
  decoded += o.decoded;
  malformed += o.malformed;
  duplicates += o.duplicates;
  dedup_exempt += o.dedup_exempt;
  if (duplicates_from.size() < o.duplicates_from.size())
    duplicates_from.resize(o.duplicates_from.size(), 0);
  for (size_t i = 0; i < o.duplicates_from.size(); ++i)
    duplicates_from[i] += o.duplicates_from[i];
  return *this;
}

bool IngressPipeline::dedup_admit(uint32_t from, const types::Hash& id) {
  if (seen_.count(id)) {
    stats_.duplicates++;
    if (from < stats_.duplicates_from.size()) stats_.duplicates_from[from]++;
    return false;
  }
  seen_.insert(id);
  seen_order_.push_back(id);
  while (seen_order_.size() > kDedupCapacity) {
    seen_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  return true;
}

types::SharedMessage IngressPipeline::decode_shared(
    uint32_t from, const std::shared_ptr<const Bytes>& payload) {
  StageTimer timer(decode_wall_ns_);
  // An interned entry carries the same artifact id and sender scoping the
  // per-party path computes, so the dedup window sees identical ids in
  // identical order: stats and eviction cannot diverge between the modes.
  // Without a store, a duplicate is dropped before it is parsed.
  std::shared_ptr<const InternedArtifact> entry =
      intern_ != nullptr ? intern_->intern(payload) : nullptr;
  if (options_.stages) {
    if (entry ? entry->sender_scoped : types::sender_scoped_wire(*payload)) {
      stats_.dedup_exempt++;
    } else if (!dedup_admit(from, entry ? entry->artifact_id : types::artifact_id(*payload))) {
      return nullptr;
    }
  }
  types::SharedMessage msg = entry ? entry->msg : parse_shared(*payload);
  if (!msg) {
    stats_.malformed++;
    return nullptr;
  }
  stats_.decoded++;
  return msg;
}

types::SharedMessage IngressPipeline::parse_only(const std::shared_ptr<const Bytes>& payload) {
  return intern_ != nullptr ? intern_->intern(payload)->msg : parse_shared(*payload);
}

bool IngressPipeline::verify_proposal(const types::ProposalMsg& m) {
  StageTimer timer(verify_wall_ns_);
  const types::Hash h = m.block.hash();
  return verifier_->verify_auth(
      m.block.proposer, types::authenticator_message(m.block.round, m.block.proposer, h),
      m.authenticator);
}

bool IngressPipeline::verify_notarization_share(const types::NotarizationShareMsg& m) {
  StageTimer timer(verify_wall_ns_);
  return verifier_->verify_threshold_share(
      crypto::Scheme::kNotary, m.signer,
      types::notarization_message(m.round, m.proposer, m.block_hash), m.share);
}

bool IngressPipeline::verify_notarization(const types::NotarizationMsg& m) {
  StageTimer timer(verify_wall_ns_);
  return verifier_->verify_threshold(
      crypto::Scheme::kNotary, types::notarization_message(m.round, m.proposer, m.block_hash),
      m.aggregate);
}

bool IngressPipeline::verify_finalization_share(const types::FinalizationShareMsg& m) {
  StageTimer timer(verify_wall_ns_);
  return verifier_->verify_threshold_share(
      crypto::Scheme::kFinal, m.signer,
      types::finalization_message(m.round, m.proposer, m.block_hash), m.share);
}

bool IngressPipeline::verify_finalization(const types::FinalizationMsg& m) {
  StageTimer timer(verify_wall_ns_);
  return verifier_->verify_threshold(
      crypto::Scheme::kFinal, types::finalization_message(m.round, m.proposer, m.block_hash),
      m.aggregate);
}

}  // namespace icc::pipeline
