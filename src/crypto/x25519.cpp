#include "crypto/x25519.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "crypto/hkdf.hpp"
#include "obs/metrics.hpp"

namespace dcpl::crypto {

namespace {

// Field element mod p = 2^255 - 19, five 51-bit limbs, little-endian.
//
// "Reduced" below means every limb is under 2^51 + 2^12, as fe_mul and
// fe_sq leave them. fe_add and fe_sub do not carry; the subtrahend of
// fe_sub must be reduced, and a multiply accepts limbs up to 2^54.
struct Fe {
  std::uint64_t v[5];
};

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

using u128 = unsigned __int128;

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

Fe fe_add(const Fe& a, const Fe& b) {
  Fe c;
  for (int i = 0; i < 5; ++i) c.v[i] = a.v[i] + b.v[i];
  return c;
}

// Weak reduction: carries each limb into the next and folds the top carry
// back in times 19.
Fe fe_carry(Fe t) {
  std::uint64_t carry;
  for (int i = 0; i < 4; ++i) {
    carry = t.v[i] >> 51;
    t.v[i] &= kMask51;
    t.v[i + 1] += carry;
  }
  carry = t.v[4] >> 51;
  t.v[4] &= kMask51;
  t.v[0] += carry * 19;
  return t;
}

// a - b + 2p, keeping limbs positive. b must be reduced.
Fe fe_sub(const Fe& a, const Fe& b) {
  Fe c;
  c.v[0] = a.v[0] + 0xFFFFFFFFFFFDAULL - b.v[0];
  c.v[1] = a.v[1] + 0xFFFFFFFFFFFFEULL - b.v[1];
  c.v[2] = a.v[2] + 0xFFFFFFFFFFFFEULL - b.v[2];
  c.v[3] = a.v[3] + 0xFFFFFFFFFFFFEULL - b.v[3];
  c.v[4] = a.v[4] + 0xFFFFFFFFFFFFEULL - b.v[4];
  return c;
}

Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

// Carries five 128-bit column sums down to 51-bit limbs.
[[gnu::always_inline]] inline Fe fe_reduce_wide(u128 t0, u128 t1, u128 t2,
                                                u128 t3, u128 t4) {
  Fe c;
  t1 += static_cast<std::uint64_t>(t0 >> 51);
  c.v[0] = static_cast<std::uint64_t>(t0) & kMask51;
  t2 += static_cast<std::uint64_t>(t1 >> 51);
  c.v[1] = static_cast<std::uint64_t>(t1) & kMask51;
  t3 += static_cast<std::uint64_t>(t2 >> 51);
  c.v[2] = static_cast<std::uint64_t>(t2) & kMask51;
  t4 += static_cast<std::uint64_t>(t3 >> 51);
  c.v[3] = static_cast<std::uint64_t>(t3) & kMask51;
  c.v[4] = static_cast<std::uint64_t>(t4) & kMask51;
  c.v[0] += static_cast<std::uint64_t>(t4 >> 51) * 19;
  c.v[1] += c.v[0] >> 51;
  c.v[0] &= kMask51;
  return c;
}

// fe_mul and fe_sq are forced inline: out of line, the call and the return
// through memory added about a fifth to the ladder's time.
[[gnu::always_inline]] inline Fe fe_mul(const Fe& a, const Fe& b) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19,
                      b4_19 = b4 * 19;

  return fe_reduce_wide(
      (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 +
          (u128)a4 * b1_19,
      (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 +
          (u128)a4 * b2_19,
      (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 +
          (u128)a4 * b3_19,
      (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 +
          (u128)a4 * b4_19,
      (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 +
          (u128)a4 * b0);
}

// Squaring with the cross terms doubled once: 15 limb products, not 25.
[[gnu::always_inline]] inline Fe fe_sq(const Fe& a) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t d0 = a0 * 2, d1 = a1 * 2, d2_19 = a2 * 38,
                      a3_19 = a3 * 19, a4_19 = a4 * 19, d4_19 = a4 * 38;

  return fe_reduce_wide(
      (u128)a0 * a0 + (u128)d4_19 * a1 + (u128)d2_19 * a3,
      (u128)d0 * a1 + (u128)d4_19 * a2 + (u128)a3_19 * a3,
      (u128)d0 * a2 + (u128)a1 * a1 + (u128)d4_19 * a3,
      (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4_19 * a4,
      (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2);
}

// a^(2^n): n successive squarings.
Fe fe_sqn(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// Multiply by a small constant (used with a24 = 121665).
Fe fe_mul_small(const Fe& a, std::uint64_t s) {
  return fe_reduce_wide((u128)a.v[0] * s, (u128)a.v[1] * s, (u128)a.v[2] * s,
                        (u128)a.v[3] * s, (u128)a.v[4] * s);
}

// Swaps a and b iff swap == 1, with no branch on swap.
void fe_cswap(std::uint64_t swap, Fe& a, Fe& b) {
  const std::uint64_t mask = ~(swap - 1);  // all-ones if swap==1
  for (int i = 0; i < 5; ++i) {
    std::uint64_t x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

// f = g iff move == 1, with no branch on move.
void fe_cmov(std::uint64_t move, Fe& f, const Fe& g) {
  const std::uint64_t mask = ~(move - 1);
  for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;  // little-endian host assumed (x86-64/aarch64)
}

Fe fe_frombytes(BytesView b) {
  Fe f;
  f.v[0] = load_le64(b.data()) & kMask51;
  f.v[1] = (load_le64(b.data() + 6) >> 3) & kMask51;
  f.v[2] = (load_le64(b.data() + 12) >> 6) & kMask51;
  f.v[3] = (load_le64(b.data() + 19) >> 1) & kMask51;
  f.v[4] = (load_le64(b.data() + 24) >> 12) & kMask51;
  return f;
}

Bytes fe_tobytes(const Fe& in) {
  // Three weak reductions leave t < 2^255.
  Fe t = fe_carry(fe_carry(fe_carry(in)));
  // Subtract p if t >= p, i.e. iff t + 19 >= 2^255.
  Fe u = t;
  u.v[0] += 19;
  for (int i = 0; i < 4; ++i) {
    u.v[i + 1] += u.v[i] >> 51;
    u.v[i] &= kMask51;
  }
  std::uint64_t ge_p = u.v[4] >> 51;  // 1 iff t >= p
  u.v[4] &= kMask51;
  fe_cmov(ge_p, t, u);

  Bytes out(32, 0);
  // Pack 5x51 bits little-endian.
  std::uint64_t w0 = t.v[0] | (t.v[1] << 51);
  std::uint64_t w1 = (t.v[1] >> 13) | (t.v[2] << 38);
  std::uint64_t w2 = (t.v[2] >> 26) | (t.v[3] << 25);
  std::uint64_t w3 = (t.v[3] >> 39) | (t.v[4] << 12);
  std::memcpy(out.data(), &w0, 8);
  std::memcpy(out.data() + 8, &w1, 8);
  std::memcpy(out.data() + 16, &w2, 8);
  std::memcpy(out.data() + 24, &w3, 8);
  return out;
}

// a^(p-2) = a^(2^255 - 21) by the standard addition chain: 254 squarings
// and 11 multiplications. The exponent is public, so the sequence of
// operations is the same for every input.
Fe fe_invert(const Fe& z) {
  const Fe z2 = fe_sq(z);                            // z^2
  const Fe z9 = fe_mul(fe_sqn(z2, 2), z);            // z^9
  const Fe z11 = fe_mul(z9, z2);                     // z^11
  const Fe z_5 = fe_mul(fe_sq(z11), z9);             // z^(2^5 - 1)
  const Fe z_10 = fe_mul(fe_sqn(z_5, 5), z_5);       // z^(2^10 - 1)
  const Fe z_20 = fe_mul(fe_sqn(z_10, 10), z_10);    // z^(2^20 - 1)
  const Fe z_40 = fe_mul(fe_sqn(z_20, 20), z_20);    // z^(2^40 - 1)
  const Fe z_50 = fe_mul(fe_sqn(z_40, 10), z_10);    // z^(2^50 - 1)
  const Fe z_100 = fe_mul(fe_sqn(z_50, 50), z_50);   // z^(2^100 - 1)
  const Fe z_200 = fe_mul(fe_sqn(z_100, 100), z_100);  // z^(2^200 - 1)
  const Fe z_250 = fe_mul(fe_sqn(z_200, 50), z_50);  // z^(2^250 - 1)
  return fe_mul(fe_sqn(z_250, 5), z11);              // z^(2^255 - 21)
}

void count_x25519_op() {
  static obs::OpCounter ops("crypto", "x25519");
  ops.inc();
}

// ---- Fixed-base scalar multiplication on edwards25519 ---------------------
//
// X25519(k, 9) equals the Montgomery u of [k]B, where B is the edwards25519
// base point (u = 9 maps to y = 4/5), and u = (1 + y) / (1 - y). [k]B is
// computed with a signed radix-16 comb over a table of small multiples of
// B, built once at first use.

// Extended coordinates: x = X/Z, y = Y/Z, x*y = T/Z.
struct GeP3 {
  Fe x, y, z, t;
};

// Completed coordinates: x = X/Z, y = Y/T.
struct GeP1P1 {
  Fe x, y, z, t;
};

// Affine point in the form madd consumes: (y + x, y - x, 2*d*x*y).
struct GePrecomp {
  Fe yplusx, yminusx, xy2d;
};

GeP3 to_p3(const GeP1P1& r) {
  return GeP3{fe_mul(r.x, r.t), fe_mul(r.y, r.z), fe_mul(r.z, r.t),
              fe_mul(r.x, r.y)};
}

// 2p (dbl-2008-hwcd); T is not read. Every subtrahend is a fresh square,
// so fe_sub's operands stay in range.
GeP1P1 ge_dbl(const GeP3& p) {
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe xy = fe_sq(fe_add(p.x, p.y));
  return GeP1P1{fe_sub(fe_sub(xy, xx), yy), fe_add(yy, xx), fe_sub(yy, xx),
                fe_sub(fe_add(fe_add(zz, zz), xx), yy)};
}

// p + q for an affine q (madd-2008-hwcd-3).
GeP1P1 ge_madd(const GeP3& p, const GePrecomp& q) {
  const Fe a = fe_mul(fe_add(p.y, p.x), q.yplusx);
  const Fe b = fe_mul(fe_sub(p.y, p.x), q.yminusx);
  const Fe c = fe_mul(q.xy2d, p.t);
  const Fe d = fe_add(p.z, p.z);
  return GeP1P1{fe_sub(a, b), fe_add(a, b), fe_add(d, c), fe_sub(d, c)};
}

// p + q for projective q (add-2008-hwcd-3); builds the table only.
GeP1P1 ge_add(const GeP3& p, const GeP3& q, const Fe& d2) {
  const Fe a = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe b = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, q.t), d2);
  const Fe zz = fe_mul(p.z, q.z);
  const Fe d = fe_add(zz, zz);
  return GeP1P1{fe_sub(a, b), fe_add(a, b), fe_add(d, c), fe_sub(d, c)};
}

// p[i][j] = (j + 1) * 256^i * B: row i serves radix-16 digits 2i and 2i + 1
// of the scalar.
struct CombTable {
  GePrecomp p[32][8];
};

CombTable build_comb_table() {
  // x of B (even root); y = 4/5 and d = -121665/121666 are derived.
  static constexpr std::uint8_t kBaseX[32] = {
      0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25,
      0x95, 0x60, 0xc7, 0x2c, 0x69, 0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2,
      0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21};
  const Fe d = fe_neg(fe_mul(Fe{{121665, 0, 0, 0, 0}},
                             fe_invert(Fe{{121666, 0, 0, 0, 0}})));
  const Fe d2 = fe_add(d, d);
  const Fe bx = fe_frombytes(BytesView(kBaseX, 32));
  const Fe by = fe_mul(Fe{{4, 0, 0, 0, 0}}, fe_invert(Fe{{5, 0, 0, 0, 0}}));
  GeP3 base{bx, by, fe_one(), fe_mul(bx, by)};

  // All 256 multiples in projective form, then one batch inversion
  // (Montgomery's trick) to make them affine.
  std::vector<GeP3> pts;
  pts.reserve(256);
  for (int i = 0; i < 32; ++i) {
    pts.push_back(base);
    for (int j = 1; j < 8; ++j) {
      pts.push_back(to_p3(ge_add(pts.back(), base, d2)));
    }
    for (int k = 0; k < 8; ++k) base = to_p3(ge_dbl(base));
  }
  std::vector<Fe> prefix(pts.size());
  Fe acc = fe_one();
  for (std::size_t k = 0; k < pts.size(); ++k) {
    prefix[k] = acc;
    acc = fe_mul(acc, pts[k].z);
  }
  Fe inv = fe_invert(acc);
  CombTable table;
  for (std::size_t k = pts.size(); k-- > 0;) {
    const Fe zinv = fe_mul(inv, prefix[k]);
    inv = fe_mul(inv, pts[k].z);
    const Fe x = fe_mul(pts[k].x, zinv);
    const Fe y = fe_mul(pts[k].y, zinv);
    table.p[k / 8][k % 8] =
        GePrecomp{fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), d2)};
  }
  return table;
}

const CombTable& comb_table() {
  static const CombTable table = build_comb_table();  // thread-safe init
  return table;
}

// 1 iff a == b, for a, b < 2^31, with no branch.
std::uint64_t ct_eq(std::uint32_t a, std::uint32_t b) {
  return ((a ^ b) - 1u) >> 31;
}

// digit * 256^pos * B for a signed digit in [-8, 8]. Every entry of the row
// is read and masked in, and the negation is a masked move, so neither the
// memory access pattern nor any branch depends on the digit.
GePrecomp comb_select(const CombTable& table, int pos, std::int8_t digit) {
  const auto neg = static_cast<std::uint64_t>(
      static_cast<std::uint8_t>(digit) >> 7);
  const auto magnitude = static_cast<std::uint32_t>(
      digit - ((-static_cast<std::int32_t>(neg) & digit) * 2));
  GePrecomp r{fe_one(), fe_one(), fe_zero()};  // the identity
  for (std::uint32_t j = 0; j < 8; ++j) {
    const std::uint64_t hit = ct_eq(magnitude, j + 1);
    fe_cmov(hit, r.yplusx, table.p[pos][j].yplusx);
    fe_cmov(hit, r.yminusx, table.p[pos][j].yminusx);
    fe_cmov(hit, r.xy2d, table.p[pos][j].xy2d);
  }
  // -(x, y) = (-x, y): swap y+x with y-x and negate 2dxy.
  fe_cswap(neg, r.yplusx, r.yminusx);
  fe_cmov(neg, r.xy2d, fe_neg(r.xy2d));
  return r;
}

// u([k]B) for a clamped 32-byte scalar k.
Fe fixed_base_u(const std::uint8_t k[32]) {
  // Signed radix-16 digits in [-8, 8]: k = sum e[i] * 16^i. The top digit
  // absorbs the last carry; it stays <= 8 because k < 2^255.
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(k[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(k[i] >> 4);
  }
  std::int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<std::int8_t>(e[i] + carry);
    carry = static_cast<std::int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<std::int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  // h = sum over odd i, times 16, plus sum over even i.
  const CombTable& table = comb_table();
  GeP3 h{fe_zero(), fe_one(), fe_one(), fe_zero()};
  for (int i = 1; i < 64; i += 2) {
    h = to_p3(ge_madd(h, comb_select(table, i / 2, e[i])));
  }
  for (int i = 0; i < 4; ++i) h = to_p3(ge_dbl(h));
  for (int i = 0; i < 64; i += 2) {
    h = to_p3(ge_madd(h, comb_select(table, i / 2, e[i])));
  }
  return fe_mul(fe_add(h.z, h.y), fe_invert(fe_sub(h.z, h.y)));
}

void clamp(std::uint8_t k[32], BytesView scalar) {
  std::memcpy(k, scalar.data(), 32);
  k[0] &= 248;
  k[31] &= 127;
  k[31] |= 64;
}

}  // namespace

Bytes x25519(BytesView scalar, BytesView u) {
  count_x25519_op();
  if (scalar.size() != kX25519KeySize || u.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  std::uint8_t k[32];
  clamp(k, scalar);

  const Fe x1 = fe_frombytes(u);
  Fe x2 = fe_one(), z2 = fe_zero(), x3 = x1, z3 = fe_one();
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    const std::uint64_t kt = (k[t / 8] >> (t % 8)) & 1;
    swap ^= kt;
    fe_cswap(swap, x2, x3);
    fe_cswap(swap, z2, z3);
    swap = kt;

    const Fe a = fe_add(x2, z2);
    const Fe aa = fe_sq(a);
    const Fe b = fe_sub(x2, z2);
    const Fe bb = fe_sq(b);
    const Fe e = fe_sub(aa, bb);
    const Fe c = fe_add(x3, z3);
    const Fe d = fe_sub(x3, z3);
    const Fe da = fe_mul(d, a);
    const Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e, fe_add(aa, fe_mul_small(e, 121665)));
  }
  fe_cswap(swap, x2, x3);
  fe_cswap(swap, z2, z3);

  return fe_tobytes(fe_mul(x2, fe_invert(z2)));
}

Bytes x25519_public(BytesView scalar) {
  count_x25519_op();
  if (scalar.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  std::uint8_t k[32];
  clamp(k, scalar);
  return fe_tobytes(fixed_base_u(k));
}

X25519KeyPair X25519KeyPair::generate(Rng& rng) {
  X25519KeyPair kp;
  kp.private_key = rng.bytes(kX25519KeySize);
  kp.public_key = x25519_public(kp.private_key);
  return kp;
}

X25519KeyPair X25519KeyPair::derive(BytesView seed) {
  X25519KeyPair kp;
  kp.private_key =
      hkdf(to_bytes("x25519-derive"), seed, to_bytes("sk"), kX25519KeySize);
  kp.public_key = x25519_public(kp.private_key);
  return kp;
}

Result<Bytes> x25519_shared(BytesView private_key, BytesView peer_public) {
  Bytes shared = x25519(private_key, peer_public);
  Bytes zero(kX25519KeySize, 0);
  if (ct_equal(shared, zero)) {
    return Result<Bytes>::failure("x25519: low-order peer public key");
  }
  return shared;
}

}  // namespace dcpl::crypto
