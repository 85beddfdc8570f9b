// X25519 Diffie-Hellman (RFC 7748) over GF(2^255 - 19), 51-bit limbs.
//
// x25519() runs the Montgomery ladder with masked conditional swaps.
// x25519_public() computes the same X25519(k, 9) on edwards25519 instead: a
// signed radix-16 comb over a table of multiples of the base point, built
// once on first use (thread-safe). Each table read scans a whole row and
// masks the wanted entry in, and the sign is applied by a masked move, so
// no memory access or branch depends on the scalar. Field inversion is a
// fixed addition chain; its exponent is public, so it is constant-time too.
//
// NOTE: this library is a research artifact, not audited constant-time
// code; the claims above are about the source, not the compiled binary.
#pragma once

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"

namespace dcpl::crypto {

constexpr std::size_t kX25519KeySize = 32;

/// X25519(scalar, u): the raw Diffie-Hellman function.
Bytes x25519(BytesView scalar, BytesView u);

/// Derives the public key for a 32-byte private scalar: X25519(k, 9), by
/// the fixed-base comb.
Bytes x25519_public(BytesView scalar);

/// An X25519 key pair.
struct X25519KeyPair {
  Bytes private_key;  // 32 bytes, stored unclamped; clamping happens in use
  Bytes public_key;   // 32 bytes

  static X25519KeyPair generate(Rng& rng);

  /// Deterministic derivation from an input seed (HKDF-based), used by HPKE
  /// DeriveKeyPair and by tests.
  static X25519KeyPair derive(BytesView seed);
};

/// Shared secret X25519(my_private, their_public). Fails on the all-zero
/// output (small-order point), per RFC 7748 §6.1 guidance.
Result<Bytes> x25519_shared(BytesView private_key, BytesView peer_public);

}  // namespace dcpl::crypto
