#include "crypto/bigint.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <stdexcept>
#include <type_traits>

#include "obs/metrics.hpp"

namespace dcpl::crypto {

using u128 = unsigned __int128;
using i128 = __int128;

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes_be(BytesView b) {
  BigInt out;
  out.limbs_.assign((b.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    // byte i (from the big end) contributes to bit offset 8*(size-1-i)
    std::size_t bit = 8 * (b.size() - 1 - i);
    out.limbs_[bit / 64] |= static_cast<std::uint64_t>(b[i]) << (bit % 64);
  }
  out.trim();
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  if (hex.size() % 2 == 1) {
    std::string padded = "0";
    padded += hex;
    return from_bytes_be(dcpl::from_hex(padded));
  }
  return from_bytes_be(dcpl::from_hex(hex));
}

Bytes BigInt::to_bytes_be(std::size_t width) const {
  std::size_t needed = (bit_length() + 7) / 8;
  if (width == 0) width = std::max<std::size_t>(needed, 1);
  if (needed > width) throw std::invalid_argument("to_bytes_be: overflow");
  Bytes out(width, 0);
  for (std::size_t i = 0; i < needed; ++i) {
    std::size_t bit = 8 * i;
    out[width - 1 - i] =
        static_cast<std::uint8_t>(limbs_[bit / 64] >> (bit % 64));
  }
  return out;
}

std::string BigInt::to_hex() const { return dcpl::to_hex(to_bytes_be()); }

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return 64 * (limbs_.size() - 1) +
         (64 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::strong_ordering BigInt::operator<=>(const BigInt& o) const {
  if (limbs_.size() != o.limbs_.size()) {
    return limbs_.size() <=> o.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] <=> o.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 s = carry;
    if (i < limbs_.size()) s += limbs_[i];
    if (i < o.limbs_.size()) s += o.limbs_[i];
    out.limbs_[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<std::uint64_t>(s >> 64);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (*this < o) throw std::invalid_argument("BigInt: negative result");
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 rhs = borrow;
    if (i < o.limbs_.size()) rhs += o.limbs_[i];
    u128 lhs = limbs_[i];
    if (lhs >= rhs) {
      out.limbs_[i] = static_cast<std::uint64_t>(lhs - rhs);
      borrow = 0;
    } else {
      out.limbs_[i] = static_cast<std::uint64_t>((u128{1} << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  out.trim();
  return out;
}

namespace {
// Below this limb count, schoolbook beats Karatsuba's recursion overhead.
constexpr std::size_t kKaratsubaThreshold = 24;
}  // namespace

BigInt BigInt::low_limbs(std::size_t limb_count) const {
  BigInt out;
  const std::size_t n = std::min(limb_count, limbs_.size());
  out.limbs_.assign(limbs_.begin(), limbs_.begin() + static_cast<long>(n));
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return BigInt{};

  // Karatsuba for large balanced operands: 3 half-size multiplications
  // instead of 4. Built on the (well-tested) +/-/shift primitives.
  if (limbs_.size() >= kKaratsubaThreshold &&
      o.limbs_.size() >= kKaratsubaThreshold) {
    const std::size_t m = std::min(limbs_.size(), o.limbs_.size()) / 2;
    BigInt a0 = low_limbs(m);
    BigInt a1 = *this >> (64 * m);
    BigInt b0 = o.low_limbs(m);
    BigInt b1 = o >> (64 * m);
    BigInt z0 = a0 * b0;
    BigInt z2 = a1 * b1;
    BigInt z1 = (a0 + a1) * (b0 + b1) - z0 - z2;
    return z0 + (z1 << (64 * m)) + (z2 << (128 * m));
  }

  BigInt out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      u128 s = static_cast<u128>(limbs_[i]) * o.limbs_[j] +
               out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    out.limbs_[i + o.limbs_.size()] += carry;
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt{};
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

void BigInt::divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r) {
  if (b.is_zero()) throw std::invalid_argument("BigInt: division by zero");
  if (a < b) {
    q = BigInt{};
    r = a;
    return;
  }
  if (b.limbs_.size() == 1) {
    const std::uint64_t d = b.limbs_[0];
    q.limbs_.assign(a.limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<std::uint64_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    r = BigInt(static_cast<std::uint64_t>(rem));
    return;
  }

  // Knuth Algorithm D (Hacker's Delight divmnu64 structure).
  const int shift = std::countl_zero(b.limbs_.back());
  BigInt ub = a << static_cast<std::size_t>(shift);
  BigInt vb = b << static_cast<std::size_t>(shift);
  const std::size_t n = vb.limbs_.size();
  std::vector<std::uint64_t>& u = ub.limbs_;
  const std::vector<std::uint64_t>& v = vb.limbs_;
  // Ensure u has an extra high limb.
  u.resize(std::max(u.size(), a.limbs_.size() + (shift ? 1 : 0)) + 1, 0);
  const std::size_t m = u.size() - 1 - n;

  q.limbs_.assign(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    u128 num = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = num / v[n - 1];
    u128 rhat = num % v[n - 1];
    while (qhat >= (u128{1} << 64) ||
           qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= (u128{1} << 64)) break;
    }

    // Multiply-subtract qhat * v from u[j .. j+n].
    i128 t = 0;
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 p = qhat * v[i];
      t = static_cast<i128>(u[i + j]) - k - static_cast<std::uint64_t>(p);
      u[i + j] = static_cast<std::uint64_t>(t);
      k = static_cast<std::uint64_t>(p >> 64) -
          static_cast<std::uint64_t>(t >> 64);
    }
    t = static_cast<i128>(u[j + n]) - k;
    u[j + n] = static_cast<std::uint64_t>(t);

    if (t < 0) {  // estimate was one too high; add v back
      --qhat;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 s = static_cast<u128>(u[i + j]) + v[i] + carry;
        u[i + j] = static_cast<std::uint64_t>(s);
        carry = static_cast<std::uint64_t>(s >> 64);
      }
      u[j + n] += carry;
    }
    q.limbs_[j] = static_cast<std::uint64_t>(qhat);
  }
  q.trim();

  BigInt rem;
  rem.limbs_.assign(u.begin(), u.begin() + static_cast<long>(n));
  rem.trim();
  r = rem >> static_cast<std::size_t>(shift);
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return q;
}

BigInt BigInt::operator%(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return r;
}

BigInt BigInt::mod_exp(const BigInt& exponent, const BigInt& modulus) const {
  if (modulus.is_zero()) throw std::invalid_argument("mod_exp: zero modulus");
  if (modulus == BigInt(1)) return BigInt{};
  if (modulus.is_odd()) {
    Montgomery mont(modulus);
    return mont.mod_exp(*this, exponent);
  }
  // Generic square-and-multiply for even moduli (rarely used).
  BigInt result(1);
  BigInt base = *this % modulus;
  const std::size_t bits = exponent.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = (result * result) % modulus;
    if (exponent.bit(i)) result = (result * base) % modulus;
  }
  return result;
}

namespace {

using Limb = std::uint64_t;

// All-ones if x == y, else zero, without a branch.
Limb eq_mask(Limb x, Limb y) {
  const Limb d = x ^ y;
  return ((d | (0 - d)) >> 63) - 1;
}

// -x^{-1} mod 2^64 for odd x, by Newton iteration.
Limb neg_inv64(Limb x) {
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - x * inv;
  return 0 - inv;
}

// Divsteps per outer round of the binary GCD: the 64-bit approximations
// keep their low 31 bits exact, so 31 steps can be taken on them alone.
constexpr int kDivsteps = 31;
constexpr Limb kDivstepsMask = (Limb{1} << kDivsteps) - 1;

// Pornin's two-word approximation of (a, b), each w limbs: with n =
// max(bitlen(a), bitlen(b), 64), a's bits [n-33, n) above its bits
// [0, 31). The top limb is found by a masked scan, not a branch.
void approximate(const Limb* a, const Limb* b, std::size_t w, Limb& a_bar,
                 Limb& b_bar) {
  Limb top = 1;  // index of the top nonzero limb of a|b, at least 1
  for (std::size_t i = 1; i < w; ++i) {
    const Limb nonzero = ~eq_mask(a[i] | b[i], 0);
    top = (i & nonzero) | (top & ~nonzero);
  }
  Limb a_hi = 0, a_lo = 0, b_hi = 0, b_lo = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const Limb hi = eq_mask(i, top), lo = eq_mask(i, top - 1);
    a_hi |= a[i] & hi;
    a_lo |= a[i] & lo;
    b_hi |= b[i] & hi;
    b_lo |= b[i] & lo;
  }
  const int shift = std::countl_zero(a_hi | b_hi);
  const auto top64 = [shift](Limb hi, Limb lo) {
    return static_cast<Limb>(((static_cast<u128>(hi) << 64 | lo) << shift) >>
                             64);
  };
  a_bar = (top64(a_hi, a_lo) & ~kDivstepsMask) | (a[0] & kDivstepsMask);
  b_bar = (top64(b_hi, b_lo) & ~kDivstepsMask) | (b[0] & kDivstepsMask);
}

// In place, for w-limb x, y and signed factors of magnitude <= 2^31:
//   x <- (x*f0 + y*g0 + m*qx) / 2^31,  y <- (x*f1 + y*g1 + m*qy) / 2^31.
// The divisions are exact. Each result is its low w limbs plus a signed
// top limb, returned in top_x / top_y.
void combine(Limb* x, Limb* y, const Limb* m, std::size_t w, Limb f0, Limb g0,
             Limb f1, Limb g1, Limb qx, Limb qy, std::int64_t& top_x,
             std::int64_t& top_y) {
  const auto sf0 = static_cast<i128>(static_cast<std::int64_t>(f0));
  const auto sg0 = static_cast<i128>(static_cast<std::int64_t>(g0));
  const auto sf1 = static_cast<i128>(static_cast<std::int64_t>(f1));
  const auto sg1 = static_cast<i128>(static_cast<std::int64_t>(g1));
  i128 cx = 0, cy = 0;
  Limb prev_x = 0, prev_y = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const i128 xi = x[i], yi = y[i], mi = m[i];
    cx += xi * sf0 + yi * sg0 + mi * static_cast<i128>(qx);
    cy += xi * sf1 + yi * sg1 + mi * static_cast<i128>(qy);
    const auto lx = static_cast<Limb>(cx), ly = static_cast<Limb>(cy);
    cx >>= 64;
    cy >>= 64;
    // One limb behind, so x[i] and y[i] are read before they are written.
    if (i > 0) {
      x[i - 1] = (prev_x >> kDivsteps) | (lx << (64 - kDivsteps));
      y[i - 1] = (prev_y >> kDivsteps) | (ly << (64 - kDivsteps));
    }
    prev_x = lx;
    prev_y = ly;
  }
  x[w - 1] = (prev_x >> kDivsteps) |
             (static_cast<Limb>(cx) << (64 - kDivsteps));
  y[w - 1] = (prev_y >> kDivsteps) |
             (static_cast<Limb>(cy) << (64 - kDivsteps));
  top_x = static_cast<std::int64_t>(cx >> kDivsteps);
  top_y = static_cast<std::int64_t>(cy >> kDivsteps);
}

// Two's-complement negation of the w-limb x where mask is all-ones.
void negate_if(Limb* x, std::size_t w, Limb mask) {
  Limb carry = mask & 1;
  for (std::size_t i = 0; i < w; ++i) {
    const u128 s = static_cast<u128>(x[i] ^ mask) + carry;
    x[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
}

// Brings x + top*2^(64w), known to lie in (-m, 2m), into [0, m).
void reduce_once(Limb* x, std::int64_t top, const Limb* m, std::size_t w) {
  // Add m if negative.
  const Limb neg = static_cast<Limb>(top >> 63);
  Limb carry = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const u128 s = static_cast<u128>(x[i]) + (m[i] & neg) + carry;
    x[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
  const Limb hi = static_cast<Limb>(top) + carry;  // now 0 or 1
  // Subtract m if x >= m: one pass finds the borrow, one applies it.
  Limb borrow = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const u128 s = static_cast<u128>(x[i]) - m[i] - borrow;
    borrow = static_cast<Limb>(s >> 64) & 1;
  }
  const Limb sub = 0 - ((hi | (borrow ^ 1)) & 1);
  borrow = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const u128 s = static_cast<u128>(x[i]) - (m[i] & sub) - borrow;
    x[i] = static_cast<Limb>(s);
    borrow = static_cast<Limb>(s >> 64) & 1;
  }
}

}  // namespace

std::optional<BigInt> BigInt::mod_inverse(const BigInt& modulus) const {
  // Pornin's optimized binary GCD over fixed-width buffers. Invariants:
  // a = u*y and b = v*y (mod m). Each outer round takes kDivsteps binary-GCD
  // steps on two-word approximations of (a, b), recording them as a 2x2
  // matrix, then applies the matrix to the full-width values. Every round
  // shrinks bitlen(a) + bitlen(b) by at least kDivsteps, so after
  // ceil((2*bitlen(m) - 1) / kDivsteps) rounds a = 0 and b = gcd(y, m).
  if (!modulus.is_odd()) {
    throw std::invalid_argument("mod_inverse: even modulus");
  }
  const std::size_t w = modulus.limbs_.size();
  const Limb* m = modulus.limbs_.data();
  const Limb m_neg_inv = neg_inv64(m[0]);
  const BigInt y = *this < modulus ? *this : *this % modulus;

  std::vector<Limb> ws(4 * w, 0);
  Limb* a = ws.data();
  Limb* b = a + w;
  Limb* u = b + w;
  Limb* v = u + w;
  std::copy(y.limbs_.begin(), y.limbs_.end(), a);
  std::copy(modulus.limbs_.begin(), modulus.limbs_.end(), b);
  u[0] = 1;

  const std::size_t rounds =
      (2 * modulus.bit_length() - 1 + kDivsteps - 1) / kDivsteps;
  for (std::size_t round = 0; round < rounds; ++round) {
    Limb a_bar, b_bar;
    approximate(a, b, w, a_bar, b_bar);
    // Factors in two's complement: (a, b) <- (a*f0 + b*g0, a*f1 + b*g1) /
    // 2^kDivsteps once the steps are done.
    Limb f0 = 1, g0 = 0, f1 = 0, g1 = 1;
    for (int step = 0; step < kDivsteps; ++step) {
      const Limb odd = 0 - (a_bar & 1);
      const Limb swap = odd & (0 - static_cast<Limb>(a_bar < b_bar));
      const Limb ts = (a_bar ^ b_bar) & swap;
      a_bar ^= ts;
      b_bar ^= ts;
      const Limb tf = (f0 ^ f1) & swap;
      f0 ^= tf;
      f1 ^= tf;
      const Limb tg = (g0 ^ g1) & swap;
      g0 ^= tg;
      g1 ^= tg;
      a_bar -= b_bar & odd;
      f0 -= f1 & odd;
      g0 -= g1 & odd;
      a_bar >>= 1;
      f1 <<= 1;
      g1 <<= 1;
    }

    std::int64_t top_a, top_b;
    combine(a, b, m, w, f0, g0, f1, g1, 0, 0, top_a, top_b);
    // A negative result is negated, and its factors with it.
    const Limb neg_a = static_cast<Limb>(top_a >> 63);
    const Limb neg_b = static_cast<Limb>(top_b >> 63);
    negate_if(a, w, neg_a);
    negate_if(b, w, neg_b);
    f0 = (f0 ^ neg_a) - neg_a;
    g0 = (g0 ^ neg_a) - neg_a;
    f1 = (f1 ^ neg_b) - neg_b;
    g1 = (g1 ^ neg_b) - neg_b;

    // Same matrix on (u, v), plus the multiple of m that makes the low
    // kDivsteps bits zero, so the division by 2^kDivsteps is exact mod m.
    const Limb qu = ((u[0] * f0 + v[0] * g0) * m_neg_inv) & kDivstepsMask;
    const Limb qv = ((u[0] * f1 + v[0] * g1) * m_neg_inv) & kDivstepsMask;
    std::int64_t top_u, top_v;
    combine(u, v, m, w, f0, g0, f1, g1, qu, qv, top_u, top_v);
    reduce_once(u, top_u, m, w);
    reduce_once(v, top_v, m, w);
  }

  Limb not_one = b[0] ^ 1;
  for (std::size_t i = 1; i < w; ++i) not_one |= b[i];
  if (not_one != 0) return std::nullopt;
  BigInt inv;
  inv.limbs_.assign(v, v + w);
  inv.trim();
  return inv;
}

BigInt BigInt::random_below(const BigInt& bound, Rng& rng) {
  if (bound.is_zero()) throw std::invalid_argument("random_below: bound 0");
  const std::size_t bits = bound.bit_length();
  const std::size_t bytes = (bits + 7) / 8;
  for (;;) {
    Bytes b = rng.bytes(bytes);
    // Mask excess top bits so rejection is efficient.
    if (bits % 8 != 0) b[0] &= static_cast<std::uint8_t>((1 << (bits % 8)) - 1);
    BigInt candidate = from_bytes_be(b);
    if (candidate < bound) return candidate;
  }
}

namespace {
constexpr std::uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};
constexpr std::size_t kNumSmallPrimes = std::size(kSmallPrimes);

// x mod d for a single-limb d.
Limb rem_limb(const std::vector<Limb>& x, Limb d) {
  u128 rem = 0;
  for (std::size_t i = x.size(); i-- > 0;) rem = ((rem << 64) | x[i]) % d;
  return static_cast<Limb>(rem);
}
}  // namespace

bool BigInt::is_probable_prime(int rounds, Rng& rng) const {
  if (*this < BigInt(2)) return false;
  // Trial division: one single-limb remainder per run of consecutive small
  // primes whose product fits a limb, then one machine remainder per prime.
  for (std::size_t i = 0; i < kNumSmallPrimes;) {
    Limb product = 1;
    std::size_t end = i;
    while (end < kNumSmallPrimes &&
           product <= ~Limb{0} / kSmallPrimes[end]) {
      product *= kSmallPrimes[end++];
    }
    const Limb r = rem_limb(limbs_, product);
    for (; i < end; ++i) {
      if (r % kSmallPrimes[i] == 0) return *this == BigInt(kSmallPrimes[i]);
    }
  }

  // Write n-1 = d * 2^s.
  const BigInt n_minus_1 = *this - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }

  Montgomery mont(*this);
  for (int round = 0; round < rounds; ++round) {
    BigInt a = random_below(*this - BigInt(3), rng) + BigInt(2);  // [2, n-2]
    if (mont.miller_rabin_witness(a, d, s)) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(std::size_t bits, Rng& rng) {
  if (bits < 16) throw std::invalid_argument("generate_prime: too small");
  for (;;) {
    Bytes b = rng.bytes((bits + 7) / 8);
    std::size_t excess = b.size() * 8 - bits;
    b[0] &= static_cast<std::uint8_t>(0xff >> excess);
    // Set the top two bits and force odd.
    std::size_t top = bits - 1;
    BigInt candidate = from_bytes_be(b);
    candidate.limbs_.resize(std::max(candidate.limbs_.size(), top / 64 + 1), 0);
    candidate.limbs_[top / 64] |= std::uint64_t{1} << (top % 64);
    if (top >= 1) {
      candidate.limbs_[(top - 1) / 64] |= std::uint64_t{1} << ((top - 1) % 64);
    }
    candidate.limbs_[0] |= 1;
    candidate.trim();
    if (candidate.is_probable_prime(20, rng)) return candidate;
  }
}

// ---------------------------------------------------------------------------
// Montgomery arithmetic
// ---------------------------------------------------------------------------

namespace {

void count_products(std::uint64_t products) {
  static obs::OpCounter counter("crypto", "mont_mul");
  counter.inc(products);
}

// Fixed-window width of the secret-exponent schedule. A wider window saves
// multiplies but doubles both the table and the masked scan that reads it
// once per window; past 4 bits the scan costs more than the multiplies it
// saves (measured on the 512-bit CRT exponents of RSA-1024).
constexpr unsigned kWindowBits = 4;

// Bits [pos, pos + w) of the exponent. Reads at a position that depends
// only on the schedule, never on the bits.
Limb window_at(const std::vector<Limb>& e, std::size_t pos, unsigned w) {
  const std::size_t limb = pos / 64, shift = pos % 64;
  Limb v = e[limb] >> shift;
  if (shift + w > 64 && limb + 1 < e.size()) v |= e[limb + 1] << (64 - shift);
  return v & ((Limb{1} << w) - 1);
}

// out = table[index], reading every entry under a mask.
void select_entry(Limb* out, const Limb* table, std::size_t entries,
                  std::size_t k, Limb index) {
  std::fill(out, out + k, 0);
  for (std::size_t i = 0; i < entries; ++i) {
    const Limb mask = eq_mask(i, index);
    for (std::size_t j = 0; j < k; ++j) out[j] |= table[i * k + j] & mask;
  }
}

// lo(a*b + c + d), with the high limb in `hi`. The carries come from
// compares, which compile to add/adc, not to a 128-bit add per term.
inline Limb mul_add2(Limb a, Limb b, Limb c, Limb d, Limb& hi) {
  const u128 p = static_cast<u128>(a) * b;
  Limb lo = static_cast<Limb>(p);
  Limb h = static_cast<Limb>(p >> 64);
  lo += c;
  h += lo < c;
  lo += d;
  h += lo < d;
  hi = h;
  return lo;
}

// The kernels take the limb count as `Width`: a compile-time constant for 8
// and 16 limbs (the CRT halves and moduli of RSA-1024 and RSA-2048), so
// those loops unroll fully, and a runtime std::size_t for other widths.
template <class Fn>
void with_width(std::size_t k, Fn&& fn) {
  switch (k) {
    case 8:
      return fn(std::integral_constant<std::size_t, 8>{});
    case 16:
      return fn(std::integral_constant<std::size_t, 16>{});
    default:
      return fn(k);
  }
}

// out = t / R mod n for a 2k-limb t < n*R; t is clobbered.
template <class Width>
void redc_limbs(Limb* out, Limb* t, const Limb* n, Limb n_prime, Width width) {
  const std::size_t k = width;
  // Add multiples of n that clear one low limb at a time; c carries into
  // the limb above the one each row ends on.
  Limb c = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb m = t[i] * n_prime;
    Limb carry = 0;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < k; ++j) {
      t[i + j] = mul_add2(m, n[j], t[i + j], carry, carry);
    }
    Limb top = t[i + k] + carry;
    Limb next_c = top < carry;
    top += c;
    next_c += top < c;
    t[i + k] = top;
    c = next_c;
  }
  // The value c*R + t[k..2k) is below 2n: subtract n under a mask.
  Limb borrow = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(t[k + i]) - n[i] - borrow;
    out[i] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 64) & 1;
  }
  const Limb keep_diff = 0 - (c | (borrow ^ 1));
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = (out[i] & keep_diff) | (t[k + i] & ~keep_diff);
  }
}

template <class Width>
void mul_limbs(Limb* out, const Limb* a, const Limb* b, Limb* t,
               const Limb* n, Limb n_prime, Width width) {
  const std::size_t k = width;
  std::fill(t, t + k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    Limb carry = 0;
#pragma GCC unroll 16
    for (std::size_t j = 0; j < k; ++j) {
      t[i + j] = mul_add2(a[i], b[j], t[i + j], carry, carry);
    }
    t[i + k] = carry;
  }
  redc_limbs(out, t, n, n_prime, width);
}

template <class Width>
void sqr_limbs(Limb* out, const Limb* a, Limb* t, const Limb* n, Limb n_prime,
               Width width) {
  const std::size_t k = width;
  // Products a[i]*a[j] with i < j, once each...
  std::fill(t, t + k, 0);
  for (std::size_t i = 0; i < k; ++i) {
    Limb carry = 0;
#pragma GCC unroll 16
    for (std::size_t j = i + 1; j < k; ++j) {
      t[i + j] = mul_add2(a[i], a[j], t[i + j], carry, carry);
    }
    t[i + k] = carry;
  }
  // ...doubled, plus the squares on the diagonal, in one pass.
  Limb carry = 0, top = 0;
#pragma GCC unroll 16
  for (std::size_t i = 0; i < k; ++i) {
    const Limb lo = t[2 * i], hi = t[2 * i + 1];
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    u128 s = static_cast<u128>((lo << 1) | top) + static_cast<Limb>(sq) + carry;
    t[2 * i] = static_cast<Limb>(s);
    s = static_cast<u128>((hi << 1) | (lo >> 63)) +
        static_cast<Limb>(sq >> 64) + static_cast<Limb>(s >> 64);
    t[2 * i + 1] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
    top = hi >> 63;
  }
  redc_limbs(out, t, n, n_prime, width);
}

}  // namespace

Montgomery::Montgomery(const BigInt& modulus)
    : modulus_(modulus), k_(modulus.limbs_.size()) {
  if (!modulus.is_odd()) {
    throw std::invalid_argument("Montgomery: even modulus");
  }
  n_prime_ = neg_inv64(modulus.limbs_[0]);
  // R mod n and R^2 mod n without dividing by n, which may be a secret
  // prime: from 2^(b-1) < n, doublings under a masked subtraction reach
  // R mod n and then R*2^k mod n, the Montgomery form of 2^k; six squarings
  // raise that to 2^(64k) = R, whose Montgomery form is R^2 mod n. The
  // schedule depends only on the bit length of n.
  const Limb* n = modulus_.limbs_.data();
  const std::size_t bits = modulus.bit_length();
  std::vector<Limb> x(k_, 0), t(2 * k_);
  if (bits > 1) x[(bits - 1) / 64] = Limb{1} << ((bits - 1) % 64);
  const auto double_mod = [&] {
    const Limb out = x[k_ - 1] >> 63;
    for (std::size_t i = k_; i-- > 1;) x[i] = (x[i] << 1) | (x[i - 1] >> 63);
    x[0] <<= 1;
    Limb borrow = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      const u128 d = static_cast<u128>(x[i]) - n[i] - borrow;
      t[i] = static_cast<Limb>(d);
      borrow = static_cast<Limb>(d >> 64) & 1;
    }
    const Limb keep_diff = 0 - (out | (borrow ^ 1));
    for (std::size_t i = 0; i < k_; ++i) {
      x[i] = (t[i] & keep_diff) | (x[i] & ~keep_diff);
    }
  };
  for (std::size_t i = bits - 1; i < 64 * k_; ++i) double_mod();
  one_ = x;
  for (std::size_t i = 0; i < k_; ++i) double_mod();
  r2_ = x;
  for (int i = 0; i < 6; ++i) sqr(r2_.data(), r2_.data(), t.data());
}

void Montgomery::redc(Limb* out, Limb* t) const {
  const Limb* n = modulus_.limbs_.data();
  with_width(k_, [&](auto k) { redc_limbs(out, t, n, n_prime_, k); });
}

void Montgomery::mul(Limb* out, const Limb* a, const Limb* b, Limb* t) const {
  const Limb* n = modulus_.limbs_.data();
  with_width(k_, [&](auto k) { mul_limbs(out, a, b, t, n, n_prime_, k); });
}

void Montgomery::sqr(Limb* out, const Limb* a, Limb* t) const {
  const Limb* n = modulus_.limbs_.data();
  with_width(k_, [&](auto k) { sqr_limbs(out, a, t, n, n_prime_, k); });
}

void Montgomery::to_mont(Limb* out, const BigInt& a, Limb* t) const {
  std::fill(out, out + k_, 0);
  if (a < modulus_) {
    std::copy(a.limbs_.begin(), a.limbs_.end(), out);
  } else {
    const BigInt reduced = a % modulus_;
    std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), out);
  }
  mul(out, out, r2_.data(), t);
}

BigInt Montgomery::from_mont(const Limb* a, Limb* t) const {
  std::copy(a, a + k_, t);
  std::fill(t + k_, t + 2 * k_, 0);
  BigInt out;
  out.limbs_.resize(k_);
  redc(out.limbs_.data(), t);
  out.trim();
  return out;
}

std::uint64_t Montgomery::exp_secret(Limb* acc, const Limb* base,
                                     const BigInt& exponent) const {
  const std::size_t k = k_;
  const std::size_t bits = exponent.bit_length();
  const unsigned w = kWindowBits;
  const std::size_t entries = std::size_t{1} << w;
  std::vector<Limb> ws((entries + 3) * k);
  Limb* table = ws.data();
  Limb* entry = table + entries * k;
  Limb* t = entry + k;

  // table[i] = base^i.
  std::copy(one_.begin(), one_.end(), table);
  std::copy(base, base + k, table + k);
  for (std::size_t i = 2; i < entries; ++i) {
    if (i % 2 == 0) {
      sqr(table + i * k, table + (i / 2) * k, t);
    } else {
      mul(table + i * k, table + (i - 1) * k, base, t);
    }
  }
  std::uint64_t products = entries - 2;

  // Windows from the top: w squarings and one multiply each, whatever the
  // window holds (an all-zero window multiplies by table[0] = 1).
  const std::size_t windows = (bits + w - 1) / w;
  if (windows == 0) {
    std::copy(one_.begin(), one_.end(), acc);
    return products;
  }
  const std::vector<Limb>& e = exponent.limbs_;
  select_entry(acc, table, entries, k, window_at(e, (windows - 1) * w, w));
  for (std::size_t i = windows - 1; i-- > 0;) {
    for (unsigned s = 0; s < w; ++s) sqr(acc, acc, t);
    select_entry(entry, table, entries, k, window_at(e, i * w, w));
    mul(acc, acc, entry, t);
    products += w + 1;
  }
  return products;
}

BigInt Montgomery::mod_exp_secret(const BigInt& base,
                                  const BigInt& exponent) const {
  std::vector<Limb> ws(4 * k_);
  Limb* b = ws.data();
  Limb* acc = b + k_;
  Limb* t = acc + k_;
  to_mont(b, base, t);
  const std::uint64_t products = exp_secret(acc, b, exponent) + 2;
  BigInt out = from_mont(acc, t);
  count_products(products);
  return out;
}

BigInt Montgomery::mod_exp(const BigInt& base, const BigInt& exponent) const {
  std::vector<Limb> ws(4 * k_);
  Limb* b = ws.data();
  Limb* acc = b + k_;
  Limb* t = acc + k_;
  to_mont(b, base, t);
  std::uint64_t products = 2;
  const std::size_t bits = exponent.bit_length();
  if (bits == 0) {
    std::copy(one_.begin(), one_.end(), acc);
  } else {
    std::copy(b, b + k_, acc);
    for (std::size_t i = bits - 1; i-- > 0;) {
      sqr(acc, acc, t);
      ++products;
      if (exponent.bit(i)) {
        mul(acc, acc, b, t);
        ++products;
      }
    }
  }
  BigInt out = from_mont(acc, t);
  count_products(products);
  return out;
}

bool Montgomery::miller_rabin_witness(const BigInt& a, const BigInt& d,
                                      std::size_t s) const {
  const std::size_t k = k_;
  std::vector<Limb> ws(5 * k);
  Limb* base = ws.data();
  Limb* x = base + k;
  Limb* minus_one = x + k;  // n - 1 in the Montgomery domain: n - R mod n
  Limb* t = minus_one + k;
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 diff =
        static_cast<u128>(modulus_.limbs_[i]) - one_[i] - borrow;
    minus_one[i] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>(diff >> 64) & 1;
  }
  const auto equals = [k](const Limb* p, const Limb* q) {
    return std::equal(p, p + k, q);
  };

  to_mont(base, a, t);
  std::uint64_t products = 1 + exp_secret(x, base, d);
  bool witness = !equals(x, one_.data()) && !equals(x, minus_one);
  for (std::size_t i = 0; witness && i + 1 < s; ++i) {
    sqr(x, x, t);
    ++products;
    witness = !equals(x, minus_one);
  }
  count_products(products);
  return witness;
}

}  // namespace dcpl::crypto
