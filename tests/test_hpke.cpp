// HPKE (RFC 9180) base mode: round trips, context binding, sequence
// handling, exporter, the RFC 9180 A.1.1 DHKEM(X25519) known answers, and a
// golden value that pins this suite's full pipeline.
#include <gtest/gtest.h>

#include "crypto/csprng.hpp"
#include "crypto/hkdf.hpp"
#include "hpke/hpke.hpp"

namespace dcpl::hpke {
namespace {

TEST(Hpke, SingleShotRoundTrip) {
  crypto::ChaChaRng rng(1);
  KeyPair kp = KeyPair::generate(rng);
  Bytes ct = seal(kp.public_key, to_bytes("app info"), to_bytes("aad"),
                  to_bytes("hello hpke"), rng);
  auto pt = open(kp, to_bytes("app info"), to_bytes("aad"), ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(to_string(pt.value()), "hello hpke");
}

TEST(Hpke, WrongRecipientCannotOpen) {
  crypto::ChaChaRng rng(2);
  KeyPair kp = KeyPair::generate(rng);
  KeyPair other = KeyPair::generate(rng);
  Bytes ct = seal(kp.public_key, {}, {}, to_bytes("secret"), rng);
  EXPECT_FALSE(open(other, {}, {}, ct).ok());
}

TEST(Hpke, InfoAndAadAreBound) {
  crypto::ChaChaRng rng(3);
  KeyPair kp = KeyPair::generate(rng);
  Bytes ct = seal(kp.public_key, to_bytes("info"), to_bytes("aad"),
                  to_bytes("secret"), rng);
  EXPECT_FALSE(open(kp, to_bytes("other info"), to_bytes("aad"), ct).ok());
  EXPECT_FALSE(open(kp, to_bytes("info"), to_bytes("other aad"), ct).ok());
  EXPECT_TRUE(open(kp, to_bytes("info"), to_bytes("aad"), ct).ok());
}

TEST(Hpke, MultiMessageContextSequencing) {
  crypto::ChaChaRng rng(4);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("session"), rng);
  auto r = setup_base_recipient(s.enc, kp, to_bytes("session"));
  ASSERT_TRUE(r.ok());

  for (int i = 0; i < 10; ++i) {
    Bytes msg = to_bytes("message " + std::to_string(i));
    Bytes ct = s.context.seal({}, msg);
    auto pt = r.value().open({}, ct);
    ASSERT_TRUE(pt.ok()) << i;
    EXPECT_EQ(pt.value(), msg);
  }
}

TEST(Hpke, OutOfOrderMessageFails) {
  crypto::ChaChaRng rng(5);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, {}, rng);
  auto r = setup_base_recipient(s.enc, kp, {});
  ASSERT_TRUE(r.ok());

  Bytes ct0 = s.context.seal({}, to_bytes("zero"));
  Bytes ct1 = s.context.seal({}, to_bytes("one"));
  // Delivering ct1 first fails (nonce mismatch) and does not advance seq.
  EXPECT_FALSE(r.value().open({}, ct1).ok());
  ASSERT_TRUE(r.value().open({}, ct0).ok());
  ASSERT_TRUE(r.value().open({}, ct1).ok());
}

TEST(Hpke, ExporterAgreesAcrossSides) {
  crypto::ChaChaRng rng(6);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("i"), rng);
  auto r = setup_base_recipient(s.enc, kp, to_bytes("i"));
  ASSERT_TRUE(r.ok());
  Bytes e1 = s.context.export_secret(to_bytes("label-a"), 32);
  Bytes e2 = r.value().export_secret(to_bytes("label-a"), 32);
  EXPECT_EQ(e1, e2);
  EXPECT_NE(e1, s.context.export_secret(to_bytes("label-b"), 32));
  EXPECT_EQ(s.context.export_secret(to_bytes("label-a"), 64).size(), 64u);
}

TEST(Hpke, DeterministicSenderIsReproducible) {
  KeyPair kp = KeyPair::derive(to_bytes("recipient seed"));
  Sender s1 =
      setup_base_sender_deterministic(kp.public_key, {}, to_bytes("eph"));
  Sender s2 =
      setup_base_sender_deterministic(kp.public_key, {}, to_bytes("eph"));
  EXPECT_EQ(s1.enc, s2.enc);
  EXPECT_EQ(s1.context.key(), s2.context.key());
}

// Golden known-answer test: pins the full RFC 9180 labeled-KDF pipeline of
// this ciphersuite. The values were recorded from this implementation once
// it matched the primitive-level RFC vectors (X25519, HKDF,
// ChaCha20-Poly1305); any change to labels, suite ids, key derivation or
// schedule ordering breaks this test.
TEST(Hpke, GoldenKnownAnswer) {
  KeyPair kp = KeyPair::derive(to_bytes("golden recipient"));
  Sender s = setup_base_sender_deterministic(
      kp.public_key, to_bytes("golden info"), to_bytes("golden ephemeral"));
  Bytes ct = s.context.seal(to_bytes("golden aad"), to_bytes("golden pt"));

  auto r = setup_base_recipient(s.enc, kp, to_bytes("golden info"));
  ASSERT_TRUE(r.ok());
  auto pt = r.value().open(to_bytes("golden aad"), ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(to_string(pt.value()), "golden pt");

  EXPECT_EQ(to_hex(s.enc),
            "dace104ad8da56fd9bf0b931df2a71afd04e1dd8a45d1e6ef4f148a9b48c790a");
  EXPECT_EQ(to_hex(ct), "17685e30c2a6d6a6302cbf301fa4a0513daa7ec2856cc4927c");
}

// RFC 9180 §4 LabeledExtract/LabeledExpand, written out here from the RFC
// so the A.1.1 check below does not reuse the code it tests.
Bytes rfc_labeled_extract(BytesView suite, BytesView salt,
                          std::string_view label, BytesView ikm) {
  return crypto::hkdf_extract(
      salt, concat({to_bytes("HPKE-v1"), suite, to_bytes(label), ikm}));
}

Bytes rfc_labeled_expand(BytesView suite, BytesView prk,
                         std::string_view label, BytesView info,
                         std::size_t length) {
  return crypto::hkdf_expand(prk,
                             concat({be_encode(length, 2), to_bytes("HPKE-v1"),
                                     suite, to_bytes(label), info}),
                             length);
}

// RFC 9180 A.1.1: DHKEM(X25519, HKDF-SHA256), base mode. A.1 pairs this
// KEM with AES-128-GCM, so only its KEM values (DeriveKeyPair and the
// shared secret) apply to this ChaCha20-Poly1305 suite.
TEST(HpkeRfc9180, A11DhkemX25519KnownAnswers) {
  const Bytes ikm_e = from_hex(
      "7268600d403fce431561aef583ee1613527cff655c1343f29812e66706df3234");
  const Bytes ikm_r = from_hex(
      "6db9df30aa07dd42ee5e8181afdb977e538f5e1fec8a06223f33f7013e525037");
  const Bytes info = from_hex("4f6465206f6e2061204772656369616e2055726e");

  KeyPair eph = KeyPair::derive(ikm_e);
  EXPECT_EQ(to_hex(eph.private_key),
            "52c4a758a802cd8b936eceea314432798d5baf2d7e9235dc084ab1b9cfa2f736");
  EXPECT_EQ(to_hex(eph.public_key),
            "37fda3567bdbd628e88668c3c8d7e97d1d1253b6d4ea6d44c150f741f1bf4431");
  KeyPair rcpt = KeyPair::derive(ikm_r);
  EXPECT_EQ(to_hex(rcpt.private_key),
            "4612c550263fc8ad58375df3f557aac531d26850903e55a9f23f21d8534e8ac8");
  EXPECT_EQ(to_hex(rcpt.public_key),
            "3948cfe0ad1ddb695d780e59077195da6c56506b027329794ab02bca80815c4d");

  Sender s = setup_base_sender_deterministic(rcpt.public_key, info, ikm_e);
  EXPECT_EQ(s.enc, eph.public_key);
  auto r = setup_base_recipient(s.enc, rcpt, info);
  ASSERT_TRUE(r.ok());

  // The KEM shared secret is internal; check it through the key schedule.
  // The key and nonce derived from the RFC's shared_secret must be the ones
  // both contexts hold.
  const Bytes shared_secret = from_hex(
      "fe0e18c9f024ce43799ae393c7e8fe8fce9d218875e8227b0187c04e7d2ea1fc");
  const Bytes suite = concat({to_bytes("HPKE"), be_encode(kKemId, 2),
                              be_encode(kKdfId, 2), be_encode(kAeadId, 2)});
  const std::uint8_t mode_base = 0x00;
  const Bytes context =
      concat({BytesView(&mode_base, 1),
              rfc_labeled_extract(suite, {}, "psk_id_hash", {}),
              rfc_labeled_extract(suite, {}, "info_hash", info)});
  const Bytes secret = rfc_labeled_extract(suite, shared_secret, "secret", {});
  const Bytes key = rfc_labeled_expand(suite, secret, "key", context, kNk);
  const Bytes nonce =
      rfc_labeled_expand(suite, secret, "base_nonce", context, kNn);
  EXPECT_EQ(s.context.key(), key);
  EXPECT_EQ(s.context.base_nonce(), nonce);
  EXPECT_EQ(r.value().key(), key);
  EXPECT_EQ(r.value().base_nonce(), nonce);
}

TEST(Hpke, TruncatedAndCorruptedInputs) {
  crypto::ChaChaRng rng(7);
  KeyPair kp = KeyPair::generate(rng);
  Bytes ct = seal(kp.public_key, {}, {}, to_bytes("x"), rng);
  EXPECT_FALSE(open(kp, {}, {}, BytesView(ct).first(10)).ok());
  EXPECT_FALSE(open(kp, {}, {}, Bytes{}).ok());
  Bytes bad = ct;
  bad[0] ^= 1;  // corrupt enc
  EXPECT_FALSE(open(kp, {}, {}, bad).ok());
  bad = ct;
  bad.back() ^= 1;  // corrupt tag
  EXPECT_FALSE(open(kp, {}, {}, bad).ok());
}

TEST(Hpke, RecipientRejectsLowOrderEnc) {
  crypto::ChaChaRng rng(8);
  KeyPair kp = KeyPair::generate(rng);
  Bytes enc(32, 0);  // low-order point
  EXPECT_FALSE(setup_base_recipient(enc, kp, {}).ok());
  EXPECT_FALSE(setup_base_recipient(Bytes(31), kp, {}).ok());
}

class HpkePayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HpkePayloadSizes, RoundTrip) {
  crypto::ChaChaRng rng(GetParam() + 77);
  KeyPair kp = KeyPair::generate(rng);
  Bytes pt = rng.bytes(GetParam());
  Bytes ct = seal(kp.public_key, to_bytes("i"), to_bytes("a"), pt, rng);
  EXPECT_EQ(ct.size(), kNenc + pt.size() + kNt);
  auto opened = open(kp, to_bytes("i"), to_bytes("a"), ct);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), pt);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HpkePayloadSizes,
                         ::testing::Values(0, 1, 64, 1024, 16384));


TEST(HpkePsk, RoundTripWithSharedPsk) {
  crypto::ChaChaRng rng(20);
  KeyPair kp = KeyPair::generate(rng);
  Bytes psk = rng.bytes(32);
  Bytes psk_id = to_bytes("tenant-7");

  Sender s = setup_psk_sender(kp.public_key, to_bytes("i"), psk, psk_id, rng);
  auto r = setup_psk_recipient(s.enc, kp, to_bytes("i"), psk, psk_id);
  ASSERT_TRUE(r.ok());
  Bytes ct = s.context.seal({}, to_bytes("psk-protected"));
  auto pt = r.value().open({}, ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(to_string(pt.value()), "psk-protected");
}

TEST(HpkePsk, WrongPskFailsToOpen) {
  crypto::ChaChaRng rng(21);
  KeyPair kp = KeyPair::generate(rng);
  Bytes psk = rng.bytes(32), wrong = rng.bytes(32);
  Bytes psk_id = to_bytes("id");

  Sender s = setup_psk_sender(kp.public_key, {}, psk, psk_id, rng);
  Bytes ct = s.context.seal({}, to_bytes("x"));
  auto r = setup_psk_recipient(s.enc, kp, {}, wrong, psk_id);
  ASSERT_TRUE(r.ok());  // setup succeeds; decryption must fail
  EXPECT_FALSE(r.value().open({}, ct).ok());
}

TEST(HpkePsk, WrongPskIdFailsToOpen) {
  crypto::ChaChaRng rng(22);
  KeyPair kp = KeyPair::generate(rng);
  Bytes psk = rng.bytes(32);
  Sender s = setup_psk_sender(kp.public_key, {}, psk, to_bytes("id-a"), rng);
  Bytes ct = s.context.seal({}, to_bytes("x"));
  auto r = setup_psk_recipient(s.enc, kp, {}, psk, to_bytes("id-b"));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().open({}, ct).ok());
}

TEST(HpkePsk, BaseModeCannotReadPskMode) {
  crypto::ChaChaRng rng(23);
  KeyPair kp = KeyPair::generate(rng);
  Bytes psk = rng.bytes(32);
  Sender s = setup_psk_sender(kp.public_key, {}, psk, to_bytes("id"), rng);
  Bytes ct = s.context.seal({}, to_bytes("x"));
  auto base = setup_base_recipient(s.enc, kp, {});
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(base.value().open({}, ct).ok());
}

TEST(HpkePsk, RejectsWeakOrInconsistentPskInputs) {
  crypto::ChaChaRng rng(24);
  KeyPair kp = KeyPair::generate(rng);
  EXPECT_THROW(setup_psk_sender(kp.public_key, {}, rng.bytes(16),
                                to_bytes("id"), rng),
               std::invalid_argument);  // psk too short
  EXPECT_THROW(setup_psk_sender(kp.public_key, {}, rng.bytes(32), {}, rng),
               std::invalid_argument);  // missing psk_id
}

// ---- RFC 9180 §5.2 message limit -------------------------------------------

TEST(HpkeLimit, SealThrowsAtSequenceExhaustion) {
  crypto::ChaChaRng rng(31);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("limit"), rng);
  s.context.set_seq_for_testing(kSeqLimit);
  EXPECT_THROW(s.context.seal({}, to_bytes("x")), MessageLimitReached);
  // seal_append must refuse before touching the output frame.
  Bytes out = to_bytes("frame-prefix");
  EXPECT_THROW(s.context.seal_append({}, to_bytes("x"), out),
               MessageLimitReached);
  EXPECT_EQ(to_string(out), "frame-prefix");
  // The counter must not have moved (no wrap, no partial consume).
  EXPECT_EQ(s.context.seq(), kSeqLimit);
}

TEST(HpkeLimit, OpenFailsAtLimitWithoutConsumingSequence) {
  crypto::ChaChaRng rng(32);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("limit"), rng);
  Bytes ct = s.context.seal({}, to_bytes("x"));
  auto r = setup_base_recipient(s.enc, kp, to_bytes("limit"));
  ASSERT_TRUE(r.ok());
  r.value().set_seq_for_testing(kSeqLimit);
  EXPECT_FALSE(r.value().open({}, ct).ok());
  EXPECT_EQ(r.value().seq(), kSeqLimit);
}

TEST(HpkeLimit, LastSequenceNumberStillWorksEndToEnd) {
  crypto::ChaChaRng rng(33);
  KeyPair kp = KeyPair::generate(rng);
  Sender s = setup_base_sender(kp.public_key, to_bytes("limit"), rng);
  auto r = setup_base_recipient(s.enc, kp, to_bytes("limit"));
  ASSERT_TRUE(r.ok());
  // Jump both halves to the final usable sequence number: one more message
  // round-trips, then both directions hit the wall.
  s.context.set_seq_for_testing(kSeqLimit - 1);
  r.value().set_seq_for_testing(kSeqLimit - 1);
  Bytes ct = s.context.seal(to_bytes("aad"), to_bytes("final message"));
  auto pt = r.value().open(to_bytes("aad"), ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(to_string(pt.value()), "final message");
  EXPECT_EQ(s.context.seq(), kSeqLimit);
  EXPECT_EQ(r.value().seq(), kSeqLimit);
  EXPECT_THROW(s.context.seal({}, to_bytes("y")), MessageLimitReached);
  EXPECT_FALSE(r.value().open(to_bytes("aad"), ct).ok());
}

}  // namespace
}  // namespace dcpl::hpke
