// RSA keygen/raw ops (with offline known answers), EMSA-PSS, RSASSA-PSS,
// and blind signatures.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/blind_rsa.hpp"
#include "crypto/csprng.hpp"
#include "crypto/rsa.hpp"

namespace dcpl::crypto {
namespace {

// Key generation is the slow part; share one key across the suite.
const RsaPrivateKey& test_key() {
  static const RsaPrivateKey key = [] {
    ChaChaRng rng(0x5151);
    return rsa_generate(1024, rng);
  }();
  return key;
}

TEST(Rsa, KeyHasExpectedShape) {
  const auto& key = test_key();
  EXPECT_EQ(key.pub.modulus_bits(), 1024u);
  EXPECT_EQ(key.pub.e, BigInt(65537));
  EXPECT_EQ(key.p * key.q, key.pub.n);
  EXPECT_NE(key.p, key.q);
}

TEST(Rsa, RawRoundTrip) {
  const auto& key = test_key();
  ChaChaRng rng(1);
  for (int i = 0; i < 5; ++i) {
    BigInt m = BigInt::random_below(key.pub.n, rng);
    BigInt c = rsa_public_op(key.pub, m);
    EXPECT_EQ(rsa_private_op(key, c), m);
    // And the other direction (sign then verify).
    BigInt s = rsa_private_op(key, m);
    EXPECT_EQ(rsa_public_op(key.pub, s), m);
  }
}

TEST(Rsa, CrtMatchesPlainExponentiation) {
  const auto& key = test_key();
  ChaChaRng rng(2);
  BigInt c = BigInt::random_below(key.pub.n, rng);
  EXPECT_EQ(rsa_private_op(key, c), c.mod_exp(key.d, key.pub.n));
}

TEST(Rsa, RawOpsRejectOutOfRange) {
  const auto& key = test_key();
  EXPECT_THROW(rsa_public_op(key.pub, key.pub.n), std::invalid_argument);
  EXPECT_THROW(rsa_private_op(key, key.pub.n + BigInt(1)),
               std::invalid_argument);
}

// Known answers computed offline with Python: primes by Miller-Rabin over
// pow(), d = pow(e, -1, phi), qinv = pow(q, -1, p), m = pow(c, d, n).
struct PrivateOpKat {
  const char* p;
  const char* q;
  const char* d;
  const char* dp;
  const char* dq;
  const char* qinv;
  const char* c;
  const char* m;
};
constexpr PrivateOpKat kPrivateOpKats[] = {
  // RSA-1024.
  {
    "e1dd737941657559998e9d615e4072c175bbc5b9fbb2ece6ac34c19692f5edaf"
    "9f6ae4823ed0bfd3c14ce71b604671d558ae6012177f4bce1b8bf005ec0158c9",
    "e1c9f3593b74b3f7b4cce27d0e2d29852b83bd8607d372e2c0920e6b2c5e4796"
    "77be7807e3e0c79f1737ea5efa86a5b12cf540c56945c1bc05b19b24a0518b6f",
    "93feb6850b2941881986335d8bf47995769464f67fd0051ad4ae54fe606a4eeb"
    "3b1d1ac7dcc514af57fcdf1112583f33b695ea89bf225b71b193d6a5d44a1c89"
    "aae3917cb58c833ebb35f70b88770dfd642bbadea15f8d0fed982a5a7b5d15da"
    "fa1fae9858e8e0fe56fb6a78ee318f6efd52cea0c986fa445376c7a6c31abd01",
    "ba668e53f5ba8bbc6454246224ecbf4815a7dfa87ba6d088167a7b818ecb535b"
    "6b0f46828ee0ac4f4fe9ed98d43d8ed869958f479f08b940e1cefd4985da1eb1",
    "434ab8e8033c48d6ae5fd1b08ba51216ca5d3d02d11a47c724b562eeb60e732f"
    "79089f255ad9072576fa0733bf5e99cb3026f7e2ddf918403d422d86c0f10ca9",
    "b6b4a2cb37cfadaf4b5973bc0101a7fe8a995c8f3e91814eedf05137b9a61e65"
    "2d50cf82917a45b42fce4dcad08f60f043eb2715152a7a0464e9bc7eb8b006e5",
    "287c1527c1998c6dfa6c325c3e5a56dbf5e5c07abfb249fc003ef1240cf7aa5b"
    "7ee5c323e2c2b03e03bc3cccbdd06362571115e5ae16296e454a628263f9e1b0"
    "3a21b084f0ff3cf6420ce1bdd309a664bb3873f3aee6c4e1108350b0c47f4031"
    "521fd614cc4a19403334433433a7bb01fbfda66646bbbe0a197c70ba844c4439",
    "fc5d99442498d8af4e8c96f6c2bf71c38ff22e395d567b5543c3af398f515094"
    "df5bc5787a2017d35a19edbd018f1497321f4e89f613f4d34f339690c023c9f5"
    "36cf7cbd22868407f0f45cc046b0e2c3621e00bafe2655ae2737435b75cbbd66"
    "80665b992a74f27bd2723666f9c73302f972411d69c2fc36bf7b28c9d597a63"},
  // RSA-2048.
  {
    "f290f66cb0ebbfa15d6532fe3270849e02e95254a7a279445d2a98f5ab1c7b28"
    "d6f5de18d5971e7c052a7f0150712aed69089197bee0399288fab3bd6d571e44"
    "bb283157019dfd0c1bdaf3e539aec483c69dc4ead099bc2b136454acbfb58335"
    "8736ccb52afc124431fd11e1cc017e5db17d532b565c76afd30a28c047e9dad3",
    "e37876a77a90ccba842c956eaee0b76d6488ef818ec506e9c6356c6e968ab8e1"
    "fbbe64bd531c302d1ab00fc13891d2826bee62d3ec17c001748a9c8aacf2bc9f"
    "ff240f10d481c1fb804166bb1f612e54b5f9429cc0643ef5c71363e32d37f0bf"
    "f1b37257f4f018e6c2b68a1d69d2da1199ba8313e570c0cef035622045709c57",
    "833cadc8b6e7a925ddbf9662b758cf8e6e7d26b1f626241316a74f3ff3346d74"
    "d6ae0978185a45ac5abf57573237d75887b0dc0427c660683a811d69287e262f"
    "53eaf12d714b7ff957b222bdc5a150479da6638c811a4a386008d45589989c33"
    "8ca2c8a78097cc9c41ae8a59d90fa23427acc6a5c7e8b3139163fb0ce592fc15"
    "de3f829cb6be6341b45e034c047297dbac12b885b3537207444dab8e35c18bb3"
    "57d6a7110af4eb8e0518988f32f9e31f5b6ee6e24d50934bb042a15bbe65e561"
    "ce0c002f8e3b31623d6b3b9d0492de5ac292379ede2bf03ba7371d4ddd26a61b"
    "6bf7c542afd1bea9137a78d83c5518bf7a55b07ac04dc65fe47229ba1c78790d",
    "5ae400c27784ced87b33896900a372bdf69f50ef51a52ac57817971b2ed3cc3e"
    "6055deb3f58cdbaa63112a67e6a9910946bb243af515f5dcb7a1212a90c6fd1b"
    "89f9a48b529acd8ff4fc1539c6647b54595f12c35e08cd1e62f4cc59b2b82403"
    "31b851fa6cb1e9724e3ce2af760ef537cc6306800dab35f9ea1d3b69d948826b",
    "247febea2bcc984d457031fa34ad7241676461aa1452a12d59d4b0b57e0a7c68"
    "269102712ea8d342298a1ebd0e6ab7b09dc8feaaaab394e7a6dfa706c98199aa"
    "c2b1f288ecd07563f9cc84c379e18a21a5a17d82d18c445e03b7a4cb8b31f2bb"
    "99f9055bffbd97015035222c5e12ab532fabb1e4bb684047f45b5c87791cfcb9",
    "355f792ab738d335804d4934838c6e28712f1bbb90458fd499c0b1f9e14d1b61"
    "09e5007237adb27c7265bbc383cfe2db5ff782de03a11b54620c89d66e7c4d4c"
    "f2b160a2a18a722e3f6eeebff4fcc6eba4f2f081ea5a6e8e3b82cb226c5cbcac"
    "b1f8d32a7540ad1429fc511f04b863795f78ea5be6201eabfc0c37e29f71fdc8",
    "1d63473d008782436e06c8a6d422d5d2708b0a0f6eaae1ad10f0fb2db3682a1c"
    "91b8ec754f43962ecd524f690fc017609cc0accb995a6ec9855bd6a04aa6d590"
    "7533bf943443af077fb5536237268b53dc6fc9fb715123af0bfbc345aa81e42d"
    "6e5b3704ea420c288a16cf8c578ca3bd44c61d2fe5d401bb70a81b4f6f8d5c4b"
    "19a9c2749e90e0b63144c78a47ba5da8e486ca22b6e7cab73c234b3ef2f102bf"
    "43a884ecabe83486498409389788b2e6405445396b3750c6c4f7f70379a6f07a"
    "f7f4ee317404491e91a3fbb79a7a5696b63f656183a859575c55078598c7b423"
    "74c53d05ed37468c08f81a57f085c29efe0874960130daff1decca7f3c27d59b",
    "8b357f1ec740e4c41489477cbb4d0bdc3967d45a3bde68facc8d36cca4b31862"
    "e656782070905f985b7d624cc837f7b607695188794430dd1ab00949c1386d8b"
    "b3207fc692b28aa696ca916467f5dc0e2a471ce3a2ee4ef36f410dbb67013afb"
    "4c1247c60c6af394f2a872b7f215a7b967c89f13697f14e4123843546ef0f0c6"
    "e005b149a4b866ca77e8090e6ea8b1b24fd7bd49ce9fb6c46352e400add18ed0"
    "71a91d5dd6d1c5c9ff91cdb913728c28c84203f55865e1b9288704202396b374"
    "b2cb829b8d22f91e8cec3d29dac363313f1dd7523e33fa60fa4dee1361796785"
    "e936994aecc02faef3caeb02c73c328e6e4510b7478f044406b94cff1c99559b"},
};

TEST(Rsa, PrivateOpKnownAnswers) {
  for (const PrivateOpKat& kat : kPrivateOpKats) {
    RsaPrivateKey key;
    key.p = BigInt::from_hex(kat.p);
    key.q = BigInt::from_hex(kat.q);
    key.pub.n = key.p * key.q;
    key.pub.e = BigInt(65537);
    key.d = BigInt::from_hex(kat.d);
    key.dp = BigInt::from_hex(kat.dp);
    key.dq = BigInt::from_hex(kat.dq);
    key.qinv = BigInt::from_hex(kat.qinv);
    const BigInt c = BigInt::from_hex(kat.c), m = BigInt::from_hex(kat.m);
    EXPECT_EQ(rsa_private_op(key, c), m) << key.pub.modulus_bits();
    EXPECT_EQ(rsa_public_op(key.pub, m), c) << key.pub.modulus_bits();
    // The CRT parameters the key generator derives match Python's.
    const BigInt one(1);
    EXPECT_EQ(*key.q.mod_inverse(key.p), key.qinv);
    EXPECT_EQ(key.d % (key.p - one), key.dp);
  }
}

TEST(Rsa, KeyGenerationIsPinned) {
  // Same seed, same key: the candidate sequence, the Miller-Rabin bases
  // and the derivation of d are fixed (a regression here changes every
  // downstream token and table).
  XoshiroRng rng(1);
  const RsaPrivateKey key = rsa_generate(1024, rng);
  EXPECT_EQ(key.pub.n.to_hex(),
      "ea7e563e3d80defe05d97623e378a4de9117cfa083e45d4df9f46bdff6b01c1f"
      "577016b440f6f4377116b035ed813cef0cf9d04ee1b2682dd4658340fe245782"
      "1ff35c07b38ed49866c911e18c73f09465303422059c9c02f79835fa94a57f37"
      "e9442611a55b2348825bdaf9565f86cc9d3d795ae3a43a5280b73a9693e9cd55");
  EXPECT_EQ(key.d.to_hex(),
      "94d05e7d1b5d08a75f20f5b7aae96a8010c672aea4652dcd899e53438bf391b5"
      "56313d47619f17b7839e696f9fed8fb509a01451ab2c24af4906af3874d0ad73"
      "20fb793a80e335856a3cef1729372c21666b4ed8ef775b5c88b8da5f917f144e"
      "c998f1af3b260e7c2d1f0cc443a08edaea40d41094cb321c33506596d50b4a01");
  const BigInt one(1);
  EXPECT_EQ((key.pub.e * key.d) % ((key.p - one) * (key.q - one)), one);
}

TEST(Mgf1, KnownProperties) {
  // MGF1 output is deterministic, prefix-consistent, and length-exact.
  Bytes seed = to_bytes("seed");
  Bytes m40 = mgf1_sha256(seed, 40);
  Bytes m20 = mgf1_sha256(seed, 20);
  EXPECT_EQ(m40.size(), 40u);
  EXPECT_EQ(Bytes(m40.begin(), m40.begin() + 20), m20);
  EXPECT_NE(mgf1_sha256(to_bytes("seed2"), 40), m40);
  EXPECT_TRUE(mgf1_sha256(seed, 0).empty());
}

TEST(Pss, EncodeVerifyRoundTrip) {
  ChaChaRng rng(3);
  Bytes msg = to_bytes("attack at dawn");
  for (std::size_t em_bits : {1023u, 1024u, 2047u}) {
    Bytes em = pss_encode(msg, em_bits, rng);
    EXPECT_EQ(em.size(), (em_bits + 7) / 8);
    EXPECT_TRUE(pss_verify(msg, em, em_bits));
    EXPECT_FALSE(pss_verify(to_bytes("attack at dusk"), em, em_bits));
  }
}

TEST(Pss, VerifyRejectsMalformedEncodings) {
  ChaChaRng rng(4);
  Bytes msg = to_bytes("m");
  Bytes em = pss_encode(msg, 1023, rng);
  // Wrong trailer byte.
  Bytes bad = em;
  bad.back() = 0xcc;
  EXPECT_FALSE(pss_verify(msg, bad, 1023));
  // Flipped hash byte.
  bad = em;
  bad[em.size() - 2] ^= 1;
  EXPECT_FALSE(pss_verify(msg, bad, 1023));
  // Wrong length.
  EXPECT_FALSE(pss_verify(msg, BytesView(em).first(em.size() - 1), 1023));
  // Top bits not cleared.
  bad = em;
  bad[0] |= 0x80;
  EXPECT_FALSE(pss_verify(msg, bad, 1023));
}

TEST(Pss, SaltRandomizesEncoding) {
  ChaChaRng rng(5);
  Bytes msg = to_bytes("same message");
  Bytes em1 = pss_encode(msg, 1023, rng);
  Bytes em2 = pss_encode(msg, 1023, rng);
  EXPECT_NE(em1, em2);  // fresh salt each time
  EXPECT_TRUE(pss_verify(msg, em1, 1023));
  EXPECT_TRUE(pss_verify(msg, em2, 1023));
}

TEST(RsaPss, SignVerify) {
  const auto& key = test_key();
  ChaChaRng rng(6);
  Bytes msg = to_bytes("hello pss");
  Bytes sig = rsa_pss_sign(key, msg, rng);
  EXPECT_EQ(sig.size(), key.pub.modulus_bytes());
  EXPECT_TRUE(rsa_pss_verify(key.pub, msg, sig));
  EXPECT_FALSE(rsa_pss_verify(key.pub, to_bytes("hello PSS"), sig));
  Bytes bad = sig;
  bad[10] ^= 1;
  EXPECT_FALSE(rsa_pss_verify(key.pub, msg, bad));
  EXPECT_FALSE(rsa_pss_verify(key.pub, msg, Bytes(sig.size() - 1)));
}

TEST(RsaPss, VerifyRejectsSignatureGeN) {
  const auto& key = test_key();
  Bytes too_big = key.pub.n.to_bytes_be(key.pub.modulus_bytes());
  EXPECT_FALSE(rsa_pss_verify(key.pub, to_bytes("m"), too_big));
}

TEST(BlindRsa, FullProtocolRoundTrip) {
  const auto& key = test_key();
  ChaChaRng rng(7);
  Bytes msg = to_bytes("token-nonce-123");

  BlindingState state = blind(key.pub, msg, rng);
  EXPECT_EQ(state.blinded_message.size(), key.pub.modulus_bytes());

  auto blind_sig = blind_sign(key, state.blinded_message);
  ASSERT_TRUE(blind_sig.ok());

  auto sig = finalize(key.pub, msg, state, blind_sig.value());
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(blind_verify(key.pub, msg, sig.value()));
  EXPECT_FALSE(blind_verify(key.pub, to_bytes("token-nonce-124"), sig.value()));
}

TEST(BlindRsa, BlindedMessageHidesMessage) {
  // The same message blinded twice yields unrelated blinded values, and
  // neither equals the PSS encoding itself: the signer learns nothing.
  const auto& key = test_key();
  ChaChaRng rng(8);
  Bytes msg = to_bytes("the same message");
  BlindingState s1 = blind(key.pub, msg, rng);
  BlindingState s2 = blind(key.pub, msg, rng);
  EXPECT_NE(s1.blinded_message, s2.blinded_message);
}

TEST(BlindRsa, SignaturesFromDistinctBlindingsBothVerify) {
  const auto& key = test_key();
  ChaChaRng rng(9);
  Bytes msg = to_bytes("msg");
  BlindingState s1 = blind(key.pub, msg, rng);
  BlindingState s2 = blind(key.pub, msg, rng);
  auto sig1 = finalize(key.pub, msg, s1, blind_sign(key, s1.blinded_message).value());
  auto sig2 = finalize(key.pub, msg, s2, blind_sign(key, s2.blinded_message).value());
  ASSERT_TRUE(sig1.ok());
  ASSERT_TRUE(sig2.ok());
  EXPECT_TRUE(blind_verify(key.pub, msg, sig1.value()));
  EXPECT_TRUE(blind_verify(key.pub, msg, sig2.value()));
}

TEST(BlindRsa, ServerRejectsMalformedBlindedMessage) {
  const auto& key = test_key();
  EXPECT_FALSE(blind_sign(key, Bytes(7)).ok());
  Bytes too_big = key.pub.n.to_bytes_be(key.pub.modulus_bytes());
  EXPECT_FALSE(blind_sign(key, too_big).ok());
}

TEST(BlindRsa, FinalizeRejectsGarbageSignature) {
  const auto& key = test_key();
  ChaChaRng rng(10);
  Bytes msg = to_bytes("msg");
  BlindingState state = blind(key.pub, msg, rng);
  Bytes garbage(key.pub.modulus_bytes(), 0x41);
  EXPECT_FALSE(finalize(key.pub, msg, state, garbage).ok());
  EXPECT_FALSE(finalize(key.pub, msg, state, Bytes(3)).ok());
}

TEST(BlindRsa, WrongKeySignatureRejected) {
  const auto& key = test_key();
  ChaChaRng rng(11);
  RsaPrivateKey other = rsa_generate(512, rng);
  Bytes msg = to_bytes("msg");
  BlindingState state = blind(key.pub, msg, rng);
  auto sig = blind_sign(key, state.blinded_message);
  ASSERT_TRUE(sig.ok());
  auto fin = finalize(key.pub, msg, state, sig.value());
  ASSERT_TRUE(fin.ok());
  EXPECT_FALSE(blind_verify(other.pub, msg, fin.value()));
}

}  // namespace
}  // namespace dcpl::crypto
