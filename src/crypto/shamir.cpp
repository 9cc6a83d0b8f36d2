#include "crypto/shamir.hpp"

#include <stdexcept>

namespace icc::crypto {

Sc25519 random_scalar(Xoshiro256& rng) {
  Bytes wide = rng.bytes(64);
  return Sc25519::from_bytes_wide(wide);
}

std::vector<ShamirShare> shamir_share(const Sc25519& secret, size_t t, size_t n,
                                      Xoshiro256& rng) {
  if (t >= n) throw std::invalid_argument("shamir_share: need t < n");
  // f(x) = secret + c1 x + ... + ct x^t
  std::vector<Sc25519> coeffs;
  coeffs.reserve(t + 1);
  coeffs.push_back(secret);
  for (size_t i = 0; i < t; ++i) coeffs.push_back(random_scalar(rng));

  std::vector<ShamirShare> shares;
  shares.reserve(n);
  for (size_t i = 1; i <= n; ++i) {
    // Horner evaluation at x = i.
    Sc25519 x = Sc25519::from_u64(i);
    Sc25519 acc = coeffs.back();
    for (size_t j = coeffs.size() - 1; j-- > 0;) acc = acc * x + coeffs[j];
    shares.push_back({static_cast<uint32_t>(i), acc});
  }
  return shares;
}

Sc25519 lagrange_at_zero(std::span<const uint32_t> points, size_t j) {
  if (j >= points.size()) throw std::invalid_argument("lagrange_at_zero: bad index");
  Sc25519 num = Sc25519::one();
  Sc25519 den = Sc25519::one();
  Sc25519 xj = Sc25519::from_u64(points[j]);
  for (size_t m = 0; m < points.size(); ++m) {
    if (m == j) continue;
    Sc25519 xm = Sc25519::from_u64(points[m]);
    num = num * xm;
    den = den * (xm - xj);
  }
  if (den.is_zero()) throw std::invalid_argument("lagrange_at_zero: duplicate points");
  return num * den.invert();
}

std::vector<Sc25519> lagrange_coefficients_at_zero(std::span<const uint32_t> points) {
  const size_t k = points.size();
  std::vector<Sc25519> xs(k), num(k), den(k);
  for (size_t j = 0; j < k; ++j) xs[j] = Sc25519::from_u64(points[j]);
  // num[j] = prod_{m != j} x_m, from prefix and suffix products.
  Sc25519 acc = Sc25519::one();
  for (size_t j = 0; j < k; ++j) {
    num[j] = acc;
    acc = acc * xs[j];
  }
  acc = Sc25519::one();
  for (size_t j = k; j-- > 0;) {
    num[j] = num[j] * acc;
    acc = acc * xs[j];
  }
  // den[j] = prod_{m != j} (x_m - x_j).
  for (size_t j = 0; j < k; ++j) {
    den[j] = Sc25519::one();
    for (size_t m = 0; m < k; ++m) {
      if (m != j) den[j] = den[j] * (xs[m] - xs[j]);
    }
    if (den[j].is_zero())
      throw std::invalid_argument("lagrange_coefficients_at_zero: duplicate points");
  }
  Sc25519::batch_invert(den);
  for (size_t j = 0; j < k; ++j) num[j] = num[j] * den[j];
  return num;
}

Sc25519 shamir_reconstruct(std::span<const ShamirShare> shares) {
  std::vector<uint32_t> points;
  points.reserve(shares.size());
  for (const auto& s : shares) points.push_back(s.index);
  const std::vector<Sc25519> lambdas = lagrange_coefficients_at_zero(points);
  Sc25519 secret;
  for (size_t j = 0; j < shares.size(); ++j) secret = secret + shares[j].value * lambdas[j];
  return secret;
}

}  // namespace icc::crypto
