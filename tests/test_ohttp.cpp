// Oblivious HTTP end-to-end: correctness plus the derived knowledge tuples.
#include "systems/ohttp/ohttp.hpp"

#include <gtest/gtest.h>

#include "core/analysis.hpp"

namespace dcpl::systems::ohttp {
namespace {

struct Fixture {
  net::Simulator sim;
  core::ObservationLog log;
  core::AddressBook book;

  std::unique_ptr<OriginServer> origin;
  std::unique_ptr<Gateway> gateway;
  std::unique_ptr<Relay> relay;
  std::vector<std::unique_ptr<Client>> clients;

  explicit Fixture(std::size_t n_clients = 1) {
    book.set("relay.example", core::benign_identity("addr:relay.example"));
    book.set("gateway.example", core::benign_identity("addr:gateway.example"));
    book.set("origin.example", core::benign_identity("addr:origin.example"));

    origin = std::make_unique<OriginServer>(
        "origin.example",
        [](const http::Request& req) {
          http::Response resp;
          resp.status = 200;
          resp.body = to_bytes("content of " + req.path);
          return resp;
        },
        log, book);
    gateway = std::make_unique<Gateway>("gateway.example", log, book, 1);
    gateway->add_origin("origin.example", "origin.example");
    relay = std::make_unique<Relay>("relay.example", "gateway.example", log,
                                    book);
    sim.add_node(*origin);
    sim.add_node(*gateway);
    sim.add_node(*relay);

    for (std::size_t i = 0; i < n_clients; ++i) {
      std::string addr = "10.0.0." + std::to_string(i + 1);
      std::string user = "user:client" + std::to_string(i);
      book.set(addr, core::sensitive_identity(user, "network"));
      clients.push_back(std::make_unique<Client>(
          addr, user, "relay.example", gateway->key().public_key, log,
          100 + i));
      sim.add_node(*clients.back());
    }
  }

  http::Request request(const std::string& path) {
    http::Request req;
    req.authority = "origin.example";
    req.path = path;
    return req;
  }
};

TEST(Ohttp, EndToEndFetch) {
  Fixture f;
  std::string body;
  f.clients[0]->fetch(f.request("/page"), f.sim,
                      [&](const http::Response& r) { body = to_string(r.body); });
  f.sim.run();
  EXPECT_EQ(body, "content of /page");
  EXPECT_EQ(f.origin->requests_served(), 1u);
  EXPECT_EQ(f.relay->forwarded(), 1u);
  EXPECT_EQ(f.clients[0]->responses_received(), 1u);
}

TEST(Ohttp, ManyClientsManyRequests) {
  Fixture f(5);
  int answered = 0;
  for (int round = 0; round < 4; ++round) {
    for (auto& c : f.clients) {
      c->fetch(f.request("/r" + std::to_string(round)), f.sim,
               [&](const http::Response&) { ++answered; });
    }
  }
  f.sim.run();
  EXPECT_EQ(answered, 20);
  EXPECT_EQ(f.origin->requests_served(), 20u);
}

// The paper's §3.2.5-style OHTTP analysis: relay (▲, ⊙), gateway (△, ●).
// The metrics exporter is a party too, so it must not hold a client's
// address (▲) next to the gateway and origin series. Per-link byte counters
// labeled "client->relay" used to put one there for every client.
TEST(Ohttp, MetricsExportHoldsNoClientAddress) {
  Fixture f(3);
  obs::Registry reg;
  f.sim.set_metrics(reg);
  int answered = 0;
  for (auto& c : f.clients) {
    c->fetch(f.request("/p"), f.sim,
             [&](const http::Response&) { ++answered; });
  }
  f.sim.run();
  ASSERT_EQ(answered, 3);

  const obs::Snapshot snap = reg.snapshot();
  ASSERT_NE(snap.find("packets_delivered"), nullptr);
  const std::string prom = obs::metrics_to_prometheus(reg);
  ASSERT_FALSE(prom.empty());
  for (const auto& c : f.clients) {
    const std::string& addr = c->address();
    for (const obs::SnapshotEntry& e : snap.entries) {
      for (const auto& [key, value] : e.labels) {
        EXPECT_EQ(value.find(addr), std::string::npos)
            << e.name << "{" << key << "=" << value << "}";
      }
    }
    EXPECT_EQ(prom.find(addr), std::string::npos) << addr;
  }
}

TEST(Ohttp, DerivedTuplesMatchDecouplingPrinciple) {
  Fixture f;
  f.clients[0]->fetch(f.request("/secret-search"), f.sim, nullptr);
  f.sim.run();

  core::DecouplingAnalysis a(f.log);
  EXPECT_EQ(a.tuple_for("10.0.0.1").to_string(), "(▲, ●)");
  EXPECT_EQ(a.tuple_for("relay.example").to_string(), "(▲, ⊙)");
  EXPECT_EQ(a.tuple_for("gateway.example").to_string(), "(△, ●)");
  EXPECT_EQ(a.tuple_for("origin.example").to_string(), "(△, ●)");
  EXPECT_TRUE(a.is_decoupled("10.0.0.1"));
}

TEST(Ohttp, RelayNeverObservesPlaintext) {
  Fixture f;
  f.clients[0]->fetch(f.request("/needle-path"), f.sim, nullptr);
  f.sim.run();
  for (const auto& obs : f.log.for_party("relay.example")) {
    EXPECT_EQ(obs.atom.label.find("needle"), std::string::npos);
    EXPECT_NE(obs.atom.kind, core::AtomKind::kSensitiveData);
  }
}

TEST(Ohttp, GatewayNeverSeesClientAddress) {
  Fixture f;
  f.clients[0]->fetch(f.request("/x"), f.sim, nullptr);
  f.sim.run();
  for (const auto& obs : f.log.for_party("gateway.example")) {
    EXPECT_EQ(obs.atom.label.find("10.0.0.1"), std::string::npos);
    EXPECT_NE(obs.atom.kind, core::AtomKind::kSensitiveIdentity);
  }
}

TEST(Ohttp, BreachAnySinglePartyDoesNotCouple) {
  Fixture f;
  f.clients[0]->fetch(f.request("/x"), f.sim, nullptr);
  f.sim.run();
  core::DecouplingAnalysis a(f.log);
  for (const char* p : {"relay.example", "gateway.example", "origin.example"}) {
    EXPECT_FALSE(a.breach(p).coupled()) << p;
  }
  // But relay + gateway colluding re-couple (shared linkage context chain).
  EXPECT_TRUE(a.coalition_recouples({"relay.example", "gateway.example"}));
}

TEST(Ohttp, UnknownAuthorityIsDropped) {
  Fixture f;
  http::Request req;
  req.authority = "unknown.example";
  bool called = false;
  f.clients[0]->fetch(req, f.sim, [&](const http::Response&) { called = true; });
  f.sim.run();
  EXPECT_FALSE(called);
  EXPECT_EQ(f.origin->requests_served(), 0u);
}

TEST(Ohttp, GarbageToGatewayIsDropped) {
  Fixture f;
  f.sim.send(net::Packet{"10.0.0.1", "gateway.example", Bytes(64, 0xaa),
                         f.sim.new_context(), "ohttp"});
  f.sim.run();
  EXPECT_EQ(f.origin->requests_served(), 0u);
}

TEST(Ohttp, TamperedCiphertextNeverReachesOrigin) {
  Fixture f;
  // Tamper with everything the relay forwards.
  struct Tamperer final : net::Node {
    net::Address gw;
    explicit Tamperer(net::Address a, net::Address g)
        : Node(std::move(a)), gw(std::move(g)) {}
    void on_packet(const net::Packet& p, net::Simulator& sim) override {
      Bytes corrupted = p.payload;
      if (!corrupted.empty()) corrupted[corrupted.size() / 2] ^= 0xff;
      sim.send(net::Packet{address(), gw, corrupted, p.context, p.protocol});
    }
  } tamperer("evil-relay.example", "gateway.example");
  f.sim.add_node(tamperer);

  Client client("10.9.9.9", "user:victim", "evil-relay.example",
                f.gateway->key().public_key, f.log, 7);
  f.sim.add_node(client);
  client.fetch(f.request("/x"), f.sim, nullptr);
  f.sim.run();
  EXPECT_EQ(f.origin->requests_served(), 0u);
}

TEST(Ohttp, ResponsesRoutedToCorrectClient) {
  Fixture f(3);
  std::vector<std::string> bodies(3);
  for (int i = 0; i < 3; ++i) {
    f.clients[i]->fetch(f.request("/client" + std::to_string(i)), f.sim,
                        [&bodies, i](const http::Response& r) {
                          bodies[i] = to_string(r.body);
                        });
  }
  f.sim.run();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(bodies[i], "content of /client" + std::to_string(i));
  }
}


TEST(Ohttp, PaddingDefeatsRequestSizeFingerprinting) {
  Fixture f(2);
  f.clients[0]->set_padding_bucket(256);
  f.clients[1]->set_padding_bucket(256);

  std::vector<std::size_t> wire_sizes;
  f.sim.add_wiretap([&](const net::TraceEntry& e) {
    // Client->relay legs only (the gateway's responses also target the
    // relay; exclude them).
    if (e.dst == "relay.example" && e.src.starts_with("10.0.0.")) {
      wire_sizes.push_back(e.size);
    }
  });

  int got = 0;
  f.clients[0]->fetch(f.request("/a"), f.sim,
                      [&](const http::Response&) { ++got; });
  f.clients[1]->fetch(f.request("/a-much-longer-path-name-here"), f.sim,
                      [&](const http::Response&) { ++got; });
  f.sim.run();

  EXPECT_EQ(got, 2);  // padded requests still served correctly
  ASSERT_EQ(wire_sizes.size(), 2u);
  EXPECT_EQ(wire_sizes[0], wire_sizes[1]);  // identical on the wire
}

TEST(Ohttp, UnpaddedClientsStillWork) {
  Fixture f;
  std::string body;
  f.clients[0]->fetch(f.request("/plain"), f.sim,
                      [&](const http::Response& r) { body = to_string(r.body); });
  f.sim.run();
  EXPECT_EQ(body, "content of /plain");
}


TEST(OhttpKeys, KeyConfigEncodeDecodeRoundTrip) {
  Fixture f;
  KeyConfig config = f.gateway->key_config();
  EXPECT_EQ(config.public_key, f.gateway->key().public_key);
  auto decoded = KeyConfig::decode(config.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->key_id, config.key_id);
  EXPECT_EQ(decoded->kem_id, hpke::kKemId);
  EXPECT_EQ(decoded->public_key, config.public_key);
  EXPECT_FALSE(KeyConfig::decode(Bytes(2)).ok());
  Bytes bad = config.encode();
  bad[1] ^= 0xff;  // unsupported KEM id
  EXPECT_FALSE(KeyConfig::decode(bad).ok());
}

TEST(OhttpKeys, RotationKeepsOldClientsWorkingDuringGrace) {
  Fixture f;
  Bytes old_key = f.gateway->key().public_key;
  f.gateway->rotate_key();
  EXPECT_EQ(f.gateway->active_keys(), 2u);
  EXPECT_NE(f.gateway->key().public_key, old_key);

  // The fixture's client still holds the OLD key: grace window serves it.
  std::string body;
  f.clients[0]->fetch(f.request("/old-config"), f.sim,
                      [&](const http::Response& r) { body = to_string(r.body); });
  f.sim.run();
  EXPECT_EQ(body, "content of /old-config");

  // A client on the NEW config works too.
  Client fresh("10.0.9.9", "user:fresh", "relay.example",
               f.gateway->key_config().public_key, f.log, 77);
  f.sim.add_node(fresh);
  body.clear();
  fresh.fetch(f.request("/new-config"), f.sim,
              [&](const http::Response& r) { body = to_string(r.body); });
  f.sim.run();
  EXPECT_EQ(body, "content of /new-config");
}

TEST(OhttpKeys, RetiringOldKeysCutsOffStaleClients) {
  Fixture f;
  f.gateway->rotate_key();
  f.gateway->retire_old_keys();
  EXPECT_EQ(f.gateway->active_keys(), 1u);
  bool called = false;
  f.clients[0]->fetch(f.request("/x"), f.sim,
                      [&](const http::Response&) { called = true; });
  f.sim.run();
  EXPECT_FALSE(called);  // old key no longer accepted
  EXPECT_EQ(f.origin->requests_served(), 0u);
}

TEST(OhttpKeys, KeyIdsIncrementAcrossRotations) {
  Fixture f;
  const std::uint8_t first = f.gateway->key_config().key_id;
  f.gateway->rotate_key();
  EXPECT_EQ(f.gateway->key_config().key_id, first + 1);
}

}  // namespace
}  // namespace dcpl::systems::ohttp
