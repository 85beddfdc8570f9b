// Arbitrary-precision unsigned integers with the operations RSA needs:
// schoolbook/Karatsuba mul, Knuth Algorithm D division, Montgomery modular
// exponentiation over fixed-width limb buffers, a fixed-width binary-GCD
// modular inverse for odd moduli, Miller-Rabin primality, and prime
// generation.
//
// Values are non-negative; subtraction that would go negative throws.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace dcpl::crypto {

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)

  /// Parses big-endian bytes (leading zeros allowed).
  static BigInt from_bytes_be(BytesView b);

  /// Parses a hex string (no 0x prefix).
  static BigInt from_hex(std::string_view hex);

  /// Serializes big-endian. If width > 0, left-pads with zeros to exactly
  /// `width` bytes (throws if the value does not fit).
  Bytes to_bytes_be(std::size_t width = 0) const;

  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;

  /// Bit `i` (0 = least significant).
  bool bit(std::size_t i) const;

  std::strong_ordering operator<=>(const BigInt& o) const;
  bool operator==(const BigInt& o) const = default;

  /// Low `limb_count` limbs as a value (used by Karatsuba splitting).
  BigInt low_limbs(std::size_t limb_count) const;

  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;  // throws if o > *this
  BigInt operator*(const BigInt& o) const;
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder in one pass.
  static void divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r);

  /// (this ^ exponent) mod modulus by square-and-multiply, which branches
  /// on the exponent bits: for public exponents. Montgomery for odd moduli,
  /// plain division otherwise.
  BigInt mod_exp(const BigInt& exponent, const BigInt& modulus) const;

  /// Multiplicative inverse mod an odd `modulus` (throws if it is even), or
  /// nullopt if gcd(this, modulus) != 1. Pornin's optimized binary GCD
  /// (eprint 2020/972): the loop structure depends only on the modulus
  /// width, never on the values.
  std::optional<BigInt> mod_inverse(const BigInt& modulus) const;

  /// Uniform value in [0, bound).
  static BigInt random_below(const BigInt& bound, Rng& rng);

  /// Miller-Rabin with `rounds` random bases (plus small-prime sieve).
  bool is_probable_prime(int rounds, Rng& rng) const;

  /// Random prime with exactly `bits` bits (top two bits set so that a
  /// product of two such primes has exactly 2*bits bits).
  static BigInt generate_prime(std::size_t bits, Rng& rng);

  const std::vector<std::uint64_t>& limbs() const { return limbs_; }

 private:
  void trim();

  // Little-endian 64-bit limbs; empty means zero.
  std::vector<std::uint64_t> limbs_;

  friend class Montgomery;
};

/// Montgomery context for an odd modulus n of k limbs. In the Montgomery
/// domain a value x is the k-limb buffer x*R mod n, R = 2^(64k). The
/// kernels work in place on caller-provided buffers: no heap allocation per
/// multiply, and the final subtraction of n is masked, not branched. The
/// constructor derives R and R^2 mod n by masked doublings and squarings
/// whose count depends only on n's bit length: no division by n.
///
/// Every exponentiation adds its count of Montgomery products (multiplies,
/// squarings and the two domain conversions) to the `crypto.mont_mul` op
/// counter once, when it finishes.
class Montgomery {
 public:
  explicit Montgomery(const BigInt& modulus);

  /// (base ^ exponent) mod n by left-to-right square-and-multiply. Branches
  /// on the exponent bits: for public exponents (e = 65537) only.
  BigInt mod_exp(const BigInt& base, const BigInt& exponent) const;

  /// (base ^ exponent) mod n by fixed-window exponentiation for secret
  /// exponents. The sequence of squarings and multiplies depends only on
  /// exponent.bit_length(), and every table entry is read by a masked scan
  /// over the whole table: no branch or memory index depends on the
  /// exponent bits.
  BigInt mod_exp_secret(const BigInt& base, const BigInt& exponent) const;

 private:
  friend class BigInt;  // Miller-Rabin squares in the Montgomery domain

  using Limb = std::uint64_t;

  // t is scratch of 2k limbs; out may alias a or b but not t.
  void mul(Limb* out, const Limb* a, const Limb* b, Limb* t) const;
  void sqr(Limb* out, const Limb* a, Limb* t) const;
  // out = t / R mod n for a 2k-limb t < n*R (t is clobbered).
  void redc(Limb* out, Limb* t) const;
  void to_mont(Limb* out, const BigInt& a, Limb* t) const;
  BigInt from_mont(const Limb* a, Limb* t) const;
  // acc = base^exponent in the Montgomery domain; returns the product count.
  std::uint64_t exp_secret(Limb* acc, const Limb* base,
                           const BigInt& exponent) const;
  // True if `a` witnesses that n is composite, where n - 1 = d * 2^s.
  bool miller_rabin_witness(const BigInt& a, const BigInt& d,
                            std::size_t s) const;

  BigInt modulus_;         // n: odd, so exactly k limbs
  std::size_t k_;
  std::vector<Limb> one_;  // R mod n
  std::vector<Limb> r2_;   // R^2 mod n
  Limb n_prime_;           // -n^{-1} mod 2^64
};

}  // namespace dcpl::crypto
