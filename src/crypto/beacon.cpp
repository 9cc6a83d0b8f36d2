#include "crypto/beacon.hpp"

#include <stdexcept>
#include <unordered_set>

#include "crypto/sha256.hpp"

namespace icc::crypto {

namespace {
constexpr std::string_view kH2cDomain = "icc-beacon-h2c-v1";
}

Point beacon_message_point(BytesView message) { return hash_to_point(kH2cDomain, message); }

BeaconKeys beacon_keygen(size_t n, size_t t, Xoshiro256& rng) {
  if (t + 1 > n) throw std::invalid_argument("beacon_keygen: need t + 1 <= n");
  BeaconKeys keys;
  Sc25519 s = random_scalar(rng);
  auto shares = shamir_share(s, t, n, rng);
  keys.pub.group_pk = Point::mul_base(s);
  keys.pub.threshold = t + 1;
  keys.pub.share_pks.reserve(n);
  keys.secret_shares.reserve(n);
  for (const auto& sh : shares) {
    keys.secret_shares.push_back(sh.value);
    keys.pub.share_pks.push_back(Point::mul_base(sh.value));
  }
  return keys;
}

Bytes BeaconShare::serialize() const {
  Bytes out;
  put_u32le(out, signer);
  append(out, BytesView(sigma.compress().data(), 32));
  append(out, BytesView(proof.serialize()));
  return out;
}

std::optional<BeaconShare> BeaconShare::deserialize(BytesView bytes) {
  if (bytes.size() != kSize) return std::nullopt;
  BeaconShare s;
  s.signer = get_u32le(bytes.data());
  auto sigma = Point::decompress(bytes.subspan(4, 32));
  if (!sigma) return std::nullopt;
  s.sigma = *sigma;
  auto proof = DleqProof::deserialize(bytes.subspan(36, 64));
  if (!proof) return std::nullopt;
  s.proof = *proof;
  return s;
}

BeaconShare beacon_sign_share(BytesView message, uint32_t signer, const Sc25519& share,
                              const BeaconPublic& pub) {
  if (signer >= pub.share_pks.size())
    throw std::invalid_argument("beacon_sign_share: bad signer");
  Point hm = beacon_message_point(message);
  BeaconShare out;
  out.signer = signer;
  out.sigma = hm.mul_ct(share);  // share is a long-lived secret
  out.proof = dleq_prove(Point::base(), pub.share_pks[signer], hm, out.sigma, share);
  return out;
}

bool beacon_verify_share(BytesView message, const BeaconShare& share,
                         const BeaconPublic& pub) {
  if (share.signer >= pub.share_pks.size()) return false;
  Point hm = beacon_message_point(message);
  return dleq_verify(Point::base(), pub.share_pks[share.signer], hm, share.sigma,
                     share.proof);
}

std::optional<Point> beacon_combine(std::span<const BeaconShare> shares,
                                    const BeaconPublic& pub) {
  // Pick the first `threshold` distinct signers.
  std::vector<uint32_t> signers;
  std::vector<Point> sigmas;
  std::unordered_set<uint32_t> seen;
  for (const auto& s : shares) {
    if (signers.size() == pub.threshold) break;
    if (!seen.insert(s.signer).second) continue;
    signers.push_back(s.signer);
    sigmas.push_back(s.sigma);
  }
  if (signers.size() < pub.threshold) return std::nullopt;
  return beacon_interpolate(signers, sigmas);
}

Point beacon_interpolate(std::span<const uint32_t> signers, std::span<const Point> sigmas) {
  // Share evaluation points are signer + 1 (Shamir indices are 1-based).
  std::vector<uint32_t> points;
  points.reserve(signers.size());
  for (uint32_t s : signers) points.push_back(s + 1);
  const std::vector<Sc25519> lambdas = lagrange_coefficients_at_zero(points);
  return Point::mul_multi_base(Sc25519::zero(), lambdas, sigmas);
}

Bytes beacon_value(const Point& sigma) {
  Bytes enc = sigma.compress_bytes();
  Bytes prefixed = str_bytes("icc-beacon-out-v1");
  append(prefixed, BytesView(enc));
  return sha256(prefixed);
}

}  // namespace icc::crypto
