#include "crypto/sc25519.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

namespace icc::crypto {

namespace {

using u128 = unsigned __int128;

// l, little-endian 64-bit words.
constexpr std::array<uint64_t, 4> kL = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                                        0x0000000000000000ULL, 0x1000000000000000ULL};

// Compare two 4-word little-endian numbers.
int cmp4(const std::array<uint64_t, 4>& a, const std::array<uint64_t, 4>& b) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

// a -= b, assuming a >= b.
void sub4(std::array<uint64_t, 4>& a, const std::array<uint64_t, 4>& b) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    uint64_t bi = b[i] + borrow;
    uint64_t nb = (bi < b[i]) || (a[i] < bi) ? 1 : 0;
    a[i] -= bi;
    borrow = nb;
  }
}

// mu = floor(2^512 / l), the Barrett constant for 512-bit inputs (260 bits,
// five 64-bit little-endian words).
constexpr uint64_t kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL,
                             0xffffffffffffffebULL, 0xffffffffffffffffULL,
                             0x000000000000000fULL};

// out[na + nb] = a[na] * b[nb], schoolbook.
void mulw(const uint64_t* a, int na, const uint64_t* b, int nb, uint64_t* out) {
  for (int i = 0; i < na + nb; ++i) out[i] = 0;
  for (int i = 0; i < na; ++i) {
    u128 carry = 0;
    for (int j = 0; j < nb; ++j) {
      u128 cur = (u128)a[i] * b[j] + out[i + j] + carry;
      out[i + j] = (uint64_t)cur;
      carry = cur >> 64;
    }
    out[i + nb] = (uint64_t)carry;
  }
}

// Reduce an 8-word (512-bit) little-endian number mod l by Barrett
// reduction: q3 = floor(floor(x / 2^192) * mu / 2^320) underestimates
// floor(x / l) by at most 2, so r = x - q3*l < 3l needs at most two
// conditional subtractions. ~45 word multiplications total, versus the
// 260-iteration shift-subtract division this replaces.
std::array<uint64_t, 4> reduce_wide(const std::array<uint64_t, 8>& x) {
  // q2 = (x >> 192) * mu; q3 = q2 >> 320.
  uint64_t q2[10];
  mulw(x.data() + 3, 5, kMu, 5, q2);
  const uint64_t* q3 = q2 + 5;

  // r2 = (q3 * l) mod 2^320.
  uint64_t prod[9];
  mulw(q3, 5, kL.data(), 4, prod);

  // r = (x - r2) mod 2^320. The true remainder is in [0, 3l), so the
  // wrap-around subtraction yields it exactly.
  uint64_t r[5];
  uint64_t borrow = 0;
  for (int i = 0; i < 5; ++i) {
    uint64_t bi = prod[i] + borrow;
    uint64_t nb = (bi < prod[i]) || (x[i] < bi) ? 1 : 0;
    r[i] = x[i] - bi;
    borrow = nb;
  }

  // At most two conditional subtractions of l.
  for (int pass = 0; pass < 2; ++pass) {
    bool ge = r[4] != 0;
    if (!ge) {
      ge = true;
      for (int i = 3; i >= 0; --i) {
        if (r[i] != kL[i]) {
          ge = r[i] > kL[i];
          break;
        }
      }
    }
    if (!ge) break;
    uint64_t b2 = 0;
    for (int i = 0; i < 5; ++i) {
      uint64_t li = (i < 4 ? kL[i] : 0) + b2;
      uint64_t nb = (i < 4 && li < kL[i]) || (r[i] < li) ? 1 : 0;
      r[i] -= li;
      b2 = nb;
    }
  }
  return {r[0], r[1], r[2], r[3]};
}

}  // namespace

Sc25519 Sc25519::from_u64(uint64_t x) {
  Sc25519 r;
  r.v_[0] = x;
  return r;
}

Sc25519 Sc25519::from_bytes_mod_l(const uint8_t bytes[32]) {
  std::array<uint64_t, 8> wide{};
  std::memcpy(wide.data(), bytes, 32);
  Sc25519 r;
  r.v_ = reduce_wide(wide);
  return r;
}

bool Sc25519::is_canonical(const uint8_t bytes[32]) {
  std::array<uint64_t, 4> w;
  std::memcpy(w.data(), bytes, 32);
  return cmp4(w, kL) < 0;
}

Sc25519 Sc25519::from_bytes_wide(const uint8_t bytes[64]) {
  std::array<uint64_t, 8> wide;
  std::memcpy(wide.data(), bytes, 64);
  Sc25519 r;
  r.v_ = reduce_wide(wide);
  return r;
}

Sc25519 Sc25519::from_bytes_wide(BytesView bytes) {
  if (bytes.size() < 64) throw std::invalid_argument("from_bytes_wide: need 64 bytes");
  return from_bytes_wide(bytes.data());
}

void Sc25519::to_bytes(uint8_t out[32]) const { std::memcpy(out, v_.data(), 32); }

Bytes Sc25519::to_bytes() const {
  Bytes out(32);
  to_bytes(out.data());
  return out;
}

Sc25519 Sc25519::operator+(const Sc25519& o) const {
  Sc25519 r;
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    uint64_t s = v_[i] + carry;
    uint64_t c1 = s < carry ? 1 : 0;
    r.v_[i] = s + o.v_[i];
    carry = c1 + (r.v_[i] < s ? 1 : 0);
  }
  // Both inputs < l < 2^253, so the sum fits in 4 words (no carry out) and
  // one conditional subtraction reduces it.
  if (cmp4(r.v_, kL) >= 0) sub4(r.v_, kL);
  return r;
}

Sc25519 Sc25519::operator-(const Sc25519& o) const {
  Sc25519 r = *this;
  if (cmp4(r.v_, o.v_) >= 0) {
    sub4(r.v_, o.v_);
  } else {
    // r + l - o: add l first (fits: r < l so r + l < 2^254).
    uint64_t carry = 0;
    for (int i = 0; i < 4; ++i) {
      uint64_t s = r.v_[i] + kL[i] + carry;
      carry = (s < r.v_[i] || (carry && s == r.v_[i])) ? 1 : 0;
      r.v_[i] = s;
    }
    sub4(r.v_, o.v_);
  }
  return r;
}

Sc25519 Sc25519::negate() const { return Sc25519::zero() - *this; }

Sc25519 Sc25519::operator*(const Sc25519& o) const {
  std::array<uint64_t, 8> wide{};
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      u128 cur = (u128)v_[i] * o.v_[j] + wide[i + j] + carry;
      wide[i + j] = (uint64_t)cur;
      carry = cur >> 64;
    }
    wide[i + 4] = (uint64_t)carry;
  }
  Sc25519 r;
  r.v_ = reduce_wide(wide);
  return r;
}

Sc25519 Sc25519::invert() const {
  // Exponent l - 2, little-endian bytes.
  static const std::array<uint8_t, 32> kExp = [] {
    std::array<uint8_t, 32> e{};
    std::array<uint64_t, 4> lm2 = kL;
    lm2[0] -= 2;  // no borrow: kL[0] ends in ...ed
    std::memcpy(e.data(), lm2.data(), 32);
    return e;
  }();
  Sc25519 result = Sc25519::one();
  for (int i = 255; i >= 0; --i) {
    result = result * result;
    if ((kExp[i / 8] >> (i % 8)) & 1) result = result * *this;
  }
  return result;
}

void Sc25519::batch_invert(std::span<Sc25519> xs) {
  // prefix[i] = product of the nonzero xs[0..i]; zeros are skipped so they
  // neither poison the product nor get an inverse.
  std::vector<Sc25519> prefix(xs.size());
  Sc25519 acc = one();
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!xs[i].is_zero()) acc = acc * xs[i];
    prefix[i] = acc;
  }
  // Walk back: inv holds (product of the nonzero xs[0..i])^-1.
  Sc25519 inv = acc.invert();
  for (size_t i = xs.size(); i-- > 0;) {
    if (xs[i].is_zero()) continue;
    const Sc25519 xi_inv = i > 0 ? inv * prefix[i - 1] : inv;
    inv = inv * xs[i];
    xs[i] = xi_inv;
  }
}

bool Sc25519::is_zero() const { return v_[0] == 0 && v_[1] == 0 && v_[2] == 0 && v_[3] == 0; }

}  // namespace icc::crypto
