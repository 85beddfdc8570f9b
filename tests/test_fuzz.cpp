// Randomized robustness tests: every wire-format parser must fail
// gracefully (no crash, no throw at the trust boundary) for arbitrary
// bytes, truncations, and bit-flips of valid messages; the RSA blind
// signature boundary must refuse every out-of-range or forged value.
// Deterministic seeds.
#include <gtest/gtest.h>

#include "common/io.hpp"
#include "common/rng.hpp"
#include "crypto/blind_rsa.hpp"
#include "dns/message.hpp"
#include "http/message.hpp"
#include "crypto/csprng.hpp"
#include "systems/channel.hpp"
#include "systems/privacypass/privacypass.hpp"

namespace dcpl {
namespace {

constexpr int kIterations = 500;

TEST(Fuzz, DnsMessageDecodeNeverCrashes) {
  XoshiroRng rng(1);
  for (int i = 0; i < kIterations; ++i) {
    Bytes junk = rng.bytes(rng.below(200));
    auto result = dns::Message::decode(junk);  // ok() either way, no crash
    if (result.ok()) {
      // If it parsed, re-encoding must not crash either.
      (void)result->encode();
    }
  }
}

TEST(Fuzz, DnsMessageBitFlips) {
  XoshiroRng rng(2);
  dns::Message m;
  m.id = 7;
  m.questions.push_back(
      dns::Question{"www.example.com", dns::RecordType::kA, dns::kClassIn});
  m.answers.push_back(dns::ResourceRecord{"www.example.com",
                                          dns::RecordType::kA, dns::kClassIn,
                                          60, dns::a_rdata("192.0.2.1")});
  Bytes enc = m.encode();
  for (int i = 0; i < kIterations; ++i) {
    Bytes mutated = enc;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    (void)dns::Message::decode(mutated);
  }
}

TEST(Fuzz, DnsNameDecompressionBombs) {
  XoshiroRng rng(3);
  // Random headers followed by pointer-heavy name data.
  for (int i = 0; i < kIterations; ++i) {
    Bytes msg(12, 0);
    msg[5] = 1;  // one question
    const std::size_t extra = 2 + rng.below(30);
    for (std::size_t j = 0; j < extra; ++j) {
      // Bias toward pointer bytes (0xc0..0xff).
      msg.push_back(static_cast<std::uint8_t>(0xc0 | rng.below(64)));
    }
    msg.push_back(0);
    msg.push_back(0);
    msg.push_back(1);
    msg.push_back(0);
    msg.push_back(1);
    (void)dns::Message::decode(msg);
  }
}

TEST(Fuzz, HttpRequestDecodeNeverCrashes) {
  XoshiroRng rng(4);
  for (int i = 0; i < kIterations; ++i) {
    (void)http::Request::decode_binary(rng.bytes(rng.below(300)));
    (void)http::Response::decode_binary(rng.bytes(rng.below(300)));
  }
}

TEST(Fuzz, HttpRequestBitFlips) {
  XoshiroRng rng(5);
  http::Request req;
  req.method = "POST";
  req.authority = "a.example";
  req.path = "/p";
  req.headers = {{"K", "V"}};
  req.body = Bytes(64, 0x42);
  Bytes enc = req.encode_binary();
  for (int i = 0; i < kIterations; ++i) {
    Bytes mutated = enc;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    auto result = http::Request::decode_binary(mutated);
    if (result.ok()) (void)result->encode_binary();
  }
}

TEST(Fuzz, ChannelOpenRequestNeverCrashes) {
  XoshiroRng rng(6);
  dcpl::crypto::ChaChaRng crng(6);
  auto kp = hpke::KeyPair::generate(crng);
  for (int i = 0; i < 100; ++i) {
    auto result =
        systems::open_request(kp, to_bytes("app"), rng.bytes(rng.below(200)));
    EXPECT_FALSE(result.ok());  // forgery essentially never verifies
  }
}

TEST(Fuzz, ChannelOpenResponseNeverCrashes) {
  XoshiroRng rng(7);
  Bytes key = rng.bytes(32);
  for (int i = 0; i < kIterations; ++i) {
    auto result = systems::open_response(key, rng.bytes(rng.below(100)));
    EXPECT_FALSE(result.ok());
  }
}

TEST(Fuzz, DnsRoundTripPropertyOnRandomValidMessages) {
  // Generate random *valid* messages; decode(encode(m)) must reproduce all
  // semantic fields.
  XoshiroRng rng(8);
  auto random_name = [&] {
    std::string name;
    const std::size_t labels = 1 + rng.below(4);
    for (std::size_t l = 0; l < labels; ++l) {
      if (l) name += '.';
      const std::size_t len = 1 + rng.below(10);
      for (std::size_t c = 0; c < len; ++c) {
        name += static_cast<char>('a' + rng.below(26));
      }
    }
    return name;
  };

  for (int i = 0; i < 100; ++i) {
    dns::Message m;
    m.id = static_cast<std::uint16_t>(rng.u64());
    m.is_response = rng.below(2);
    m.recursion_desired = rng.below(2);
    m.rcode = static_cast<dns::Rcode>(rng.below(4));
    const std::size_t qs = 1 + rng.below(3);
    for (std::size_t q = 0; q < qs; ++q) {
      m.questions.push_back(dns::Question{
          random_name(), dns::RecordType::kA, dns::kClassIn});
    }
    const std::size_t as = rng.below(4);
    for (std::size_t a = 0; a < as; ++a) {
      m.answers.push_back(dns::ResourceRecord{
          random_name(), dns::RecordType::kTxt, dns::kClassIn,
          static_cast<std::uint32_t>(rng.u64()),
          rng.bytes(rng.below(40))});
    }

    auto decoded = dns::Message::decode(m.encode());
    ASSERT_TRUE(decoded.ok()) << "iteration " << i;
    EXPECT_EQ(decoded->id, m.id);
    EXPECT_EQ(decoded->is_response, m.is_response);
    EXPECT_EQ(decoded->rcode, m.rcode);
    EXPECT_EQ(decoded->questions, m.questions);
    EXPECT_EQ(decoded->answers, m.answers);
  }
}

TEST(Fuzz, HttpRoundTripPropertyOnRandomValidMessages) {
  XoshiroRng rng(9);
  auto random_token = [&](std::size_t max_len) {
    std::string s;
    const std::size_t len = rng.below(max_len);
    for (std::size_t c = 0; c < len; ++c) {
      s += static_cast<char>('!' + rng.below(90));
    }
    return s;
  };

  for (int i = 0; i < 200; ++i) {
    http::Request req;
    req.method = random_token(8);
    req.authority = random_token(40);
    req.path = "/" + random_token(60);
    const std::size_t hs = rng.below(6);
    for (std::size_t h = 0; h < hs; ++h) {
      req.headers.emplace_back(random_token(12), random_token(30));
    }
    req.body = rng.bytes(rng.below(500));

    auto decoded = http::Request::decode_binary(req.encode_binary());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->method, req.method);
    EXPECT_EQ(decoded->authority, req.authority);
    EXPECT_EQ(decoded->path, req.path);
    EXPECT_EQ(decoded->headers, req.headers);
    EXPECT_EQ(decoded->body, req.body);
  }
}

// --- RSA blind signatures and the Privacy Pass payloads that carry them ---

const crypto::RsaPrivateKey& rsa_key() {
  static const crypto::RsaPrivateKey key = [] {
    crypto::ChaChaRng rng(0xf022);
    return crypto::rsa_generate(1024, rng);
  }();
  return key;
}

struct Mutation {
  std::string name;
  Bytes value;
  bool in_range;  // modulus-sized and below n: a raw signer must accept it
};

// The boundary mutations of a modulus-sized value: size -1/+1, a leading
// zero, 0, 1, n-1, n, n+1 and all-0xff.
std::vector<Mutation> boundary_mutations(const crypto::RsaPublicKey& pub,
                                         const Bytes& valid) {
  using crypto::BigInt;
  const std::size_t len = pub.modulus_bytes();
  const BigInt& n = pub.n;
  Bytes longer = valid;
  longer.push_back(0);
  Bytes leading_zero = {0};
  append(leading_zero, valid);
  return {
      {"size-1", Bytes(valid.begin(), valid.end() - 1), false},
      {"size+1", longer, false},
      {"leading-zero", leading_zero, false},
      {"zero", Bytes(len, 0), true},
      {"one", BigInt(1).to_bytes_be(len), true},
      {"n-1", (n - BigInt(1)).to_bytes_be(len), true},
      {"n", n.to_bytes_be(len), false},
      {"n+1", (n + BigInt(1)).to_bytes_be(len), false},
      {"all-ff", Bytes(len, 0xff), false},
  };
}

Bytes flip_bits(Bytes b, Rng& rng) {
  const std::size_t flips = 1 + rng.below(4);
  for (std::size_t f = 0; f < flips; ++f) {
    b[rng.below(b.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
  }
  return b;
}

TEST(Fuzz, BlindSignRefusesOutOfRangeInput) {
  const auto& key = rsa_key();
  crypto::ChaChaRng rng(1);
  const Bytes blinded =
      crypto::blind(key.pub, to_bytes("nonce"), rng).blinded_message;
  for (const Mutation& m : boundary_mutations(key.pub, blinded)) {
    bool ok = false;
    Bytes sig;
    EXPECT_NO_THROW({
      auto r = crypto::blind_sign(key, m.value);
      ok = r.ok();
      if (ok) sig = r.value();
    }) << m.name;
    // An in-range value is a valid raw-RSA input the signer cannot tell
    // apart from a real blinded message; everything else is refused.
    EXPECT_EQ(ok, m.in_range) << m.name;
    if (ok) {
      EXPECT_EQ(crypto::rsa_public_op(key.pub,
                                      crypto::BigInt::from_bytes_be(sig)),
                crypto::BigInt::from_bytes_be(m.value))
          << m.name;
    }
  }
}

TEST(Fuzz, FinalizeAndVerifyRefuseMutatedSignatures) {
  const auto& key = rsa_key();
  crypto::ChaChaRng rng(2);
  const Bytes msg = to_bytes("token-nonce");
  const crypto::BlindingState st = crypto::blind(key.pub, msg, rng);
  const Bytes blind_sig = crypto::blind_sign(key, st.blinded_message).value();
  const Bytes sig = crypto::finalize(key.pub, msg, st, blind_sig).value();

  std::vector<Mutation> bad_blind = boundary_mutations(key.pub, blind_sig);
  std::vector<Mutation> bad_sig = boundary_mutations(key.pub, sig);
  XoshiroRng flips(3);
  for (int i = 0; i < 50; ++i) {
    bad_blind.push_back({"flip", flip_bits(blind_sig, flips), false});
    bad_sig.push_back({"flip", flip_bits(sig, flips), false});
  }
  for (const Mutation& m : bad_blind) {
    bool ok = true;
    EXPECT_NO_THROW(ok = crypto::finalize(key.pub, msg, st, m.value).ok())
        << m.name;
    EXPECT_FALSE(ok) << m.name;
  }
  for (const Mutation& m : bad_sig) {
    bool ok = true;
    EXPECT_NO_THROW(ok = crypto::blind_verify(key.pub, msg, m.value)) << m.name;
    EXPECT_FALSE(ok) << m.name;
  }
}

namespace pp = systems::privacypass;

// Keeps every packet it receives: the other end of crafted exchanges.
class Sink final : public net::Node {
 public:
  using net::Node::Node;
  void on_packet(const net::Packet& p, net::Simulator&) override {
    packets.push_back(p);
  }
  std::vector<net::Packet> packets;
};

Bytes issue_request(const std::string& account, BytesView blinded) {
  ByteWriter w;
  w.u8(1);
  w.vec(to_bytes(account), 1);
  w.vec(blinded, 2);
  return std::move(w).take();
}

Bytes issue_response(BytesView blind_sig) {
  ByteWriter w;
  w.u8(2);
  w.vec(blind_sig, 2);
  return std::move(w).take();
}

Bytes access_request(BytesView nonce, BytesView sig) {
  ByteWriter w;
  w.u8(3);
  w.vec(to_bytes("/page"), 1);
  w.vec(nonce, 1);
  w.vec(sig, 2);
  return std::move(w).take();
}

// Delivers one crafted packet on a fresh context and runs the simulator;
// nothing at the boundary may throw.
void deliver(net::Simulator& sim, const net::Address& src,
             const net::Address& dst, Bytes payload, std::uint64_t ctx = 0) {
  if (ctx == 0) ctx = sim.new_context();
  sim.send(net::Packet{src, dst, std::move(payload), ctx, "privacypass"});
  EXPECT_NO_THROW(sim.run());
}

TEST(Fuzz, PrivacyPassIssuerRefusesMutatedRequests) {
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;
  pp::Issuer issuer("issuer.example", 1024, log, book, 4);
  issuer.register_account("alice");
  Sink sink("sink.example");
  sim.add_node(issuer);
  sim.add_node(sink);

  crypto::ChaChaRng rng(4);
  const Bytes blinded =
      crypto::blind(issuer.public_key(), to_bytes("n"), rng).blinded_message;
  std::size_t in_range = 0;
  for (const Mutation& m : boundary_mutations(issuer.public_key(), blinded)) {
    deliver(sim, "sink.example", "issuer.example",
            issue_request("alice", m.value));
    in_range += m.in_range;
  }
  // Only the in-range values were signed (and answered); the rest denied.
  EXPECT_EQ(issuer.tokens_issued(), in_range);
  EXPECT_EQ(sink.packets.size(), in_range);
  EXPECT_EQ(issuer.requests_denied(), 9 - in_range);

  // Truncations and bit flips of a whole valid request.
  const Bytes valid = issue_request("alice", blinded);
  XoshiroRng flips(5);
  for (std::size_t cut = 0; cut < valid.size(); cut += 7) {
    deliver(sim, "sink.example", "issuer.example",
            Bytes(valid.begin(), valid.begin() + static_cast<long>(cut)));
  }
  for (int i = 0; i < 100; ++i) {
    deliver(sim, "sink.example", "issuer.example", flip_bits(valid, flips));
  }
  deliver(sim, "sink.example", "issuer.example", valid);  // still served
  EXPECT_EQ(sink.packets.back().payload[0], 2);
}

TEST(Fuzz, PrivacyPassClientRefusesMutatedIssueResponses) {
  // The client's issuer is a sink, so every response is crafted here, on
  // the context of a real pending request, signed with a key we hold.
  const auto& key = rsa_key();
  net::Simulator sim;
  core::ObservationLog log;
  Sink sink("issuer.example");
  pp::Client client("client.example", "alice", "issuer.example", key.pub, log,
                    6);
  sim.add_node(sink);
  sim.add_node(client);

  // One fresh request per response: a response consumes its request.
  const auto pending = [&]() -> std::pair<std::uint64_t, Bytes> {
    client.request_token(sim);
    sim.run();
    const net::Packet& req = sink.packets.back();
    ByteReader r(req.payload);
    r.u8();
    r.vec(1);
    return {req.context, r.vec(2)};
  };

  auto [ctx, blinded] = pending();
  const Bytes blind_sig = crypto::blind_sign(key, blinded).value();
  for (const Mutation& m : boundary_mutations(key.pub, blind_sig)) {
    deliver(sim, "issuer.example", "client.example", issue_response(m.value),
            pending().first);
    EXPECT_TRUE(client.wallet().empty()) << m.name;
  }
  // Bit flips of a response that would otherwise finalize.
  XoshiroRng flips(7);
  for (int i = 0; i < 30; ++i) {
    auto [next_ctx, next_blinded] = pending();
    const Bytes valid =
        issue_response(crypto::blind_sign(key, next_blinded).value());
    deliver(sim, "issuer.example", "client.example", flip_bits(valid, flips),
            next_ctx);
    EXPECT_TRUE(client.wallet().empty());
  }
  // The unmutated response to the first request still finalizes.
  deliver(sim, "issuer.example", "client.example", issue_response(blind_sig),
          ctx);
  EXPECT_EQ(client.wallet().size(), 1u);
}

TEST(Fuzz, PrivacyPassOriginRefusesMutatedRedemptions) {
  const auto& key = rsa_key();
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;
  pp::Origin origin("origin.example", "origin.example", key.pub, log, book);
  Sink sink("client.example");
  sim.add_node(origin);
  sim.add_node(sink);

  crypto::ChaChaRng rng(8);
  const Bytes nonce = rng.bytes(32);
  const crypto::BlindingState st = crypto::blind(key.pub, nonce, rng);
  const Bytes sig =
      crypto::finalize(key.pub, nonce, st,
                       crypto::blind_sign(key, st.blinded_message).value())
          .value();

  // Boundary values and bit flips of the signature, and bit flips of the
  // nonce it signs (the path is not bound to the token).
  std::vector<Bytes> bad;
  for (const Mutation& m : boundary_mutations(key.pub, sig)) {
    bad.push_back(access_request(nonce, m.value));
  }
  XoshiroRng flips(9);
  for (int i = 0; i < 25; ++i) {
    bad.push_back(access_request(nonce, flip_bits(sig, flips)));
    bad.push_back(access_request(flip_bits(nonce, flips), sig));
  }
  for (Bytes& payload : bad) {
    deliver(sim, "client.example", "origin.example", std::move(payload));
  }
  EXPECT_EQ(origin.served(), 0u);
  EXPECT_EQ(origin.rejected(), bad.size());
  deliver(sim, "client.example", "origin.example", access_request(nonce, sig));
  EXPECT_EQ(origin.served(), 1u);
}

}  // namespace
}  // namespace dcpl
