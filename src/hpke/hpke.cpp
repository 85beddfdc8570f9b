#include "hpke/hpke.hpp"

#include <stdexcept>

#include "crypto/aead.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/x25519.hpp"
#include "obs/metrics.hpp"

namespace dcpl::hpke {

namespace {

// The suite ids are built once, not on every labeled extract and expand.
BytesView kem_suite_id() {
  static const Bytes id = concat({to_bytes("KEM"), be_encode(kKemId, 2)});
  return id;
}

BytesView hpke_suite_id() {
  static const Bytes id =
      concat({to_bytes("HPKE"), be_encode(kKemId, 2), be_encode(kKdfId, 2),
              be_encode(kAeadId, 2)});
  return id;
}

// Views a label's characters as bytes, without copying them.
BytesView text(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

constexpr std::string_view kVersionLabel = "HPKE-v1";

Bytes labeled_extract(BytesView salt, BytesView suite_id, std::string_view label,
                      BytesView ikm) {
  Bytes labeled_ikm =
      concat({text(kVersionLabel), suite_id, text(label), ikm});
  return crypto::hkdf_extract(salt, labeled_ikm);
}

Bytes labeled_expand(BytesView prk, BytesView suite_id, std::string_view label,
                     BytesView info, std::size_t length) {
  const std::uint8_t be_length[2] = {static_cast<std::uint8_t>(length >> 8),
                                     static_cast<std::uint8_t>(length)};
  Bytes labeled_info = concat({be_length, text(kVersionLabel), suite_id,
                               text(label), info});
  return crypto::hkdf_expand(prk, labeled_info, length);
}

/// DHKEM ExtractAndExpand (RFC 9180 §4.1).
Bytes extract_and_expand(BytesView dh, BytesView kem_context) {
  const BytesView suite = kem_suite_id();
  Bytes eae_prk = labeled_extract({}, suite, "eae_prk", dh);
  return labeled_expand(eae_prk, suite, "shared_secret", kem_context, kNsecret);
}

}  // namespace

KeyPair KeyPair::generate(Rng& rng) {
  auto kp = crypto::X25519KeyPair::generate(rng);
  return KeyPair{std::move(kp.private_key), std::move(kp.public_key)};
}

KeyPair KeyPair::derive(BytesView ikm) {
  // RFC 9180 §7.1.3 DeriveKeyPair for X25519.
  const BytesView suite = kem_suite_id();
  Bytes dkp_prk = labeled_extract({}, suite, "dkp_prk", ikm);
  Bytes sk = labeled_expand(dkp_prk, suite, "sk", {}, kNpk);
  Bytes pk = crypto::x25519_public(sk);
  return KeyPair{std::move(sk), std::move(pk)};
}

// Shared key-schedule — RFC 9180 §5.1 (mode_base 0x00 / mode_psk 0x01).
Context setup_with_schedule(BytesView shared_secret, BytesView info,
                            BytesView psk = {}, BytesView psk_id = {}) {
  const BytesView suite = hpke_suite_id();
  const bool have_psk = !psk.empty();
  if (have_psk != !psk_id.empty()) {
    throw std::invalid_argument("hpke: psk and psk_id must come together");
  }
  if (have_psk && psk.size() < 32) {
    throw std::invalid_argument("hpke: psk must be >= 32 bytes");
  }
  const std::uint8_t mode = have_psk ? 0x01 : 0x00;

  Bytes psk_id_hash = labeled_extract({}, suite, "psk_id_hash", psk_id);
  Bytes info_hash = labeled_extract({}, suite, "info_hash", info);
  Bytes context = concat({BytesView(&mode, 1), psk_id_hash, info_hash});

  Bytes secret = labeled_extract(shared_secret, suite, "secret", psk);

  Context ctx;
  ctx.key_ = labeled_expand(secret, suite, "key", context, kNk);
  ctx.base_nonce_ = labeled_expand(secret, suite, "base_nonce", context, kNn);
  ctx.exporter_secret_ = labeled_expand(secret, suite, "exp", context, 32);
  return ctx;
}

Bytes Context::compute_nonce() const {
  Bytes nonce = base_nonce_;
  for (int i = 0; i < 8; ++i) {
    nonce[kNn - 1 - i] ^= static_cast<std::uint8_t>(seq_ >> (8 * i));
  }
  return nonce;
}

void Context::seal_append(BytesView aad, BytesView plaintext, Bytes& out) {
  static obs::OpCounter ops("crypto", "hpke_seal");
  ops.inc();
  if (seq_ >= kSeqLimit) throw MessageLimitReached();
  crypto::aead_seal_append(key_, compute_nonce(), aad, plaintext, out);
  ++seq_;
}

Bytes Context::seal(BytesView aad, BytesView plaintext) {
  Bytes ct;
  ct.reserve(plaintext.size() + kNt);
  seal_append(aad, plaintext, ct);
  return ct;
}

Result<Bytes> Context::open(BytesView aad, BytesView ciphertext) {
  static obs::OpCounter ops("crypto", "hpke_open");
  ops.inc();
  if (seq_ >= kSeqLimit) {
    return Result<Bytes>::failure("hpke: context message limit reached");
  }
  auto pt = crypto::aead_open(key_, compute_nonce(), aad, ciphertext);
  if (pt.ok()) ++seq_;
  return pt;
}

Bytes Context::export_secret(BytesView exporter_context,
                             std::size_t length) const {
  return labeled_expand(exporter_secret_, hpke_suite_id(), "sec",
                        exporter_context, length);
}

namespace {

Sender setup_sender_with_ephemeral(const crypto::X25519KeyPair& eph,
                                   BytesView recipient_public, BytesView info,
                                   BytesView psk = {}, BytesView psk_id = {}) {
  if (recipient_public.size() != kNpk) {
    throw std::invalid_argument("hpke: recipient public key size");
  }
  auto dh = crypto::x25519_shared(eph.private_key, recipient_public);
  if (!dh.ok()) throw std::invalid_argument("hpke: bad recipient public key");

  Bytes kem_context = concat({eph.public_key, recipient_public});
  Bytes shared_secret = extract_and_expand(dh.value(), kem_context);

  Sender s;
  s.enc = eph.public_key;
  s.context = setup_with_schedule(shared_secret, info, psk, psk_id);
  return s;
}

}  // namespace

Sender setup_base_sender(BytesView recipient_public, BytesView info, Rng& rng) {
  return setup_sender_with_ephemeral(crypto::X25519KeyPair::generate(rng),
                                     recipient_public, info);
}

Sender setup_base_sender_deterministic(BytesView recipient_public,
                                       BytesView info,
                                       BytesView ephemeral_ikm) {
  KeyPair kp = KeyPair::derive(ephemeral_ikm);
  crypto::X25519KeyPair eph{kp.private_key, kp.public_key};
  return setup_sender_with_ephemeral(eph, recipient_public, info);
}

Result<Context> setup_base_recipient(BytesView enc, const KeyPair& kp,
                                     BytesView info) {
  return setup_psk_recipient(enc, kp, info, {}, {});
}

Sender setup_psk_sender(BytesView recipient_public, BytesView info,
                        BytesView psk, BytesView psk_id, Rng& rng) {
  return setup_sender_with_ephemeral(crypto::X25519KeyPair::generate(rng),
                                     recipient_public, info, psk, psk_id);
}

Result<Context> setup_psk_recipient(BytesView enc, const KeyPair& kp,
                                    BytesView info, BytesView psk,
                                    BytesView psk_id) {
  if (enc.size() != kNenc) {
    return Result<Context>::failure("hpke: bad enc size");
  }
  auto dh = crypto::x25519_shared(kp.private_key, enc);
  if (!dh.ok()) return Result<Context>::failure("hpke: low-order enc");
  Bytes kem_context = concat({enc, kp.public_key});
  Bytes shared_secret = extract_and_expand(dh.value(), kem_context);
  return setup_with_schedule(shared_secret, info, psk, psk_id);
}

Bytes seal(BytesView recipient_public, BytesView info, BytesView aad,
           BytesView plaintext, Rng& rng) {
  Sender s = setup_base_sender(recipient_public, info, rng);
  Bytes ct = s.context.seal(aad, plaintext);
  return concat({s.enc, ct});
}

Result<Bytes> open(const KeyPair& kp, BytesView info, BytesView aad,
                   BytesView enc_and_ciphertext) {
  if (enc_and_ciphertext.size() < kNenc) {
    return Result<Bytes>::failure("hpke open: input too short");
  }
  auto ctx = setup_base_recipient(enc_and_ciphertext.first(kNenc), kp, info);
  if (!ctx.ok()) return Result<Bytes>::failure(ctx.error().message);
  return ctx.value().open(aad, enc_and_ciphertext.subspan(kNenc));
}

}  // namespace dcpl::hpke
