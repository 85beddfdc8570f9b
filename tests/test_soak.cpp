// Soak test: a mixed city of systems sharing one simulator — OHTTP
// browsing, mix-net messaging, Privacy Pass redemptions, and PPM telemetry
// running concurrently. Checks global correctness, the combined decoupling
// verdict, and bit-exact determinism across runs.
#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "crypto/sha256.hpp"
#include "impaired_systems.hpp"
#include "systems/mixnet/mixnet.hpp"
#include "systems/ohttp/ohttp.hpp"
#include "systems/ppm/ppm.hpp"
#include "systems/privacypass/privacypass.hpp"

namespace dcpl::systems {
namespace {

struct City {
  net::Simulator sim;
  std::vector<net::TraceEntry> trace;  // every delivery, via a wiretap
  core::ObservationLog log;
  core::AddressBook book;

  // OHTTP estate.
  std::unique_ptr<ohttp::OriginServer> web_origin;
  std::unique_ptr<ohttp::Gateway> gateway;
  std::unique_ptr<ohttp::Relay> relay;
  std::vector<std::unique_ptr<ohttp::Client>> browsers;

  // Mix-net estate.
  std::vector<std::unique_ptr<mixnet::MixNode>> mixes;
  std::unique_ptr<mixnet::Receiver> dropbox;
  std::vector<std::unique_ptr<mixnet::Sender>> whistleblowers;

  // Privacy Pass estate.
  std::unique_ptr<privacypass::Issuer> issuer;
  std::unique_ptr<privacypass::Origin> gated_origin;
  std::vector<std::unique_ptr<privacypass::Client>> pass_clients;

  // PPM estate.
  std::vector<std::unique_ptr<ppm::Aggregator>> aggs;
  std::unique_ptr<ppm::Collector> collector;
  std::vector<std::unique_ptr<ppm::Client>> reporters;

  std::vector<core::Party> users;
  std::vector<net::Address> node_addrs;  // every registered node, in order

  void add(net::Node& n) {
    sim.add_node(n);
    node_addrs.push_back(n.address());
  }

  City() {
    sim.add_wiretap([this](const net::TraceEntry& e) { trace.push_back(e); });
    auto benign = [&](const std::string& a) {
      book.set(a, core::benign_identity("addr:" + a));
    };
    auto user_addr = [&](const std::string& a, const std::string& label) {
      book.set(a, core::sensitive_identity(label, "network"));
      users.push_back(a);
    };

    // --- OHTTP ---
    benign("web.example");
    benign("gw.example");
    benign("relay.example");
    web_origin = std::make_unique<ohttp::OriginServer>(
        "web.example",
        [](const http::Request& req) {
          http::Response resp;
          resp.body = to_bytes("page " + req.path);
          return resp;
        },
        log, book);
    gateway = std::make_unique<ohttp::Gateway>("gw.example", log, book, 1);
    gateway->add_origin("web.example", "web.example");
    relay = std::make_unique<ohttp::Relay>("relay.example", "gw.example", log,
                                           book);
    add(*web_origin);
    add(*gateway);
    add(*relay);
    for (int i = 0; i < 8; ++i) {
      std::string addr = "10.0.0." + std::to_string(i + 1);
      user_addr(addr, "user:browser" + std::to_string(i));
      browsers.push_back(std::make_unique<ohttp::Client>(
          addr, "user:browser" + std::to_string(i), "relay.example",
          gateway->key().public_key, log, 100 + i));
      add(*browsers.back());
    }

    // --- Mix-net ---
    for (int i = 0; i < 3; ++i) {
      std::string addr = "mix" + std::to_string(i + 1);
      benign(addr);
      mixes.push_back(std::make_unique<mixnet::MixNode>(addr, 4, 500'000, log,
                                                        book, 20 + i));
      add(*mixes.back());
    }
    benign("dropbox");
    dropbox = std::make_unique<mixnet::Receiver>("dropbox", log, book, 30);
    add(*dropbox);
    for (int i = 0; i < 8; ++i) {
      std::string addr = "10.1.0." + std::to_string(i + 1);
      user_addr(addr, "user:wb" + std::to_string(i));
      whistleblowers.push_back(std::make_unique<mixnet::Sender>(
          addr, "user:wb" + std::to_string(i), log, 200 + i));
      add(*whistleblowers.back());
    }

    // --- Privacy Pass ---
    benign("issuer.example");
    benign("gated.example");
    issuer = std::make_unique<privacypass::Issuer>("issuer.example", 1024,
                                                   log, book, 2);
    gated_origin = std::make_unique<privacypass::Origin>(
        "gated.example", "gated.example", issuer->public_key(), log, book);
    add(*issuer);
    add(*gated_origin);
    for (int i = 0; i < 4; ++i) {
      std::string account = "acct" + std::to_string(i);
      issuer->register_account(account);
      std::string addr = "exit" + std::to_string(i);
      benign(addr);       // reached over an anonymizing path
      users.push_back(addr);  // still a user device for the §2.4 verdict
      pass_clients.push_back(std::make_unique<privacypass::Client>(
          addr, account, "issuer.example", issuer->public_key(), log,
          300 + i));
      add(*pass_clients.back());
    }

    // --- PPM ---
    std::vector<net::Address> agg_addrs = {"aggA", "aggB"};
    for (std::size_t i = 0; i < 2; ++i) {
      benign(agg_addrs[i]);
      aggs.push_back(std::make_unique<ppm::Aggregator>(
          agg_addrs[i], i, 2, agg_addrs[0], log, book, 40 + i));
      add(*aggs.back());
    }
    aggs[0]->set_peers(agg_addrs);
    benign("collector");
    collector = std::make_unique<ppm::Collector>("collector", agg_addrs, log,
                                                 book);
    add(*collector);
    for (int i = 0; i < 10; ++i) {
      std::string addr = "10.2.0." + std::to_string(i + 1);
      user_addr(addr, "user:dev" + std::to_string(i));
      reporters.push_back(std::make_unique<ppm::Client>(
          addr, "user:dev" + std::to_string(i), i + 1, log, 400 + i));
      add(*reporters.back());
    }
  }

  /// Runs the whole city's mixed workload; returns a trace digest.
  std::string run_workload() {
    std::vector<mixnet::HopInfo> chain;
    for (auto& m : mixes) {
      chain.push_back({m->address(), m->key().public_key});
    }
    mixnet::HopInfo drop{"dropbox", dropbox->key().public_key};
    std::vector<ppm::AggregatorInfo> infos;
    for (auto& a : aggs) {
      infos.push_back({a->address(), a->key().public_key});
    }

    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < browsers.size(); ++i) {
        http::Request req;
        req.authority = "web.example";
        req.path = "/r" + std::to_string(round) + "/u" + std::to_string(i);
        browsers[i]->fetch(req, sim, nullptr);
      }
      for (std::size_t i = 0; i < whistleblowers.size(); ++i) {
        whistleblowers[i]->send_message(
            "leak-" + std::to_string(round) + "-" + std::to_string(i), chain,
            drop, sim);
      }
      for (auto& c : pass_clients) c->request_token(sim);
      for (std::size_t i = 0; i < reporters.size(); ++i) {
        reporters[i]->submit_bool((i + round) % 3 == 0, infos, sim);
      }
      sim.run();
      for (auto& c : pass_clients) c->access("gated.example", "/door", sim);
      sim.run();
    }

    // Digest the full trace for determinism checks.
    Bytes blob;
    for (const auto& e : trace) {
      append(blob, be_encode(e.time, 8));
      append(blob, to_bytes(e.src + ">" + e.dst + ";"));
      append(blob, be_encode(e.size, 4));
    }
    return to_hex(crypto::Sha256::hash(blob));
  }
};

TEST(Soak, MixedWorkloadCorrectness) {
  City city;
  city.run_workload();

  EXPECT_EQ(city.web_origin->requests_served(), 24u);  // 8 browsers x 3
  EXPECT_EQ(city.dropbox->deliveries().size(), 24u);   // 8 senders x 3
  EXPECT_EQ(city.gated_origin->served(), 12u);         // 4 clients x 3
  for (auto& a : city.aggs) EXPECT_EQ(a->accepted(), 30u);

  std::uint64_t total = 0;
  city.collector->collect(city.sim,
                          [&](std::size_t, std::uint64_t t) { total = t; });
  city.sim.run();
  // Rounds 0..2, reporters 0..9: true when (i+round)%3==0 -> 10 per round.
  EXPECT_EQ(total, 10u);
}

TEST(Soak, WholeCityRemainsDecoupled) {
  City city;
  city.run_workload();
  core::DecouplingAnalysis a(city.log);
  EXPECT_TRUE(a.is_decoupled(city.users));
  // Spot-check cross-system coalitions gain nothing.
  EXPECT_FALSE(a.coalition_recouples({"relay.example", "mix1", "aggA"}));
  EXPECT_FALSE(a.coalition_recouples({"issuer.example", "gw.example"}));
}

TEST(Soak, DeterministicAcrossRuns) {
  City a, b;
  EXPECT_EQ(a.run_workload(), b.run_workload());
}

TEST(Soak, TraceVolumeIsSubstantial) {
  City city;
  city.run_workload();
  // The mixed workload should exercise hundreds of packets.
  EXPECT_GT(city.sim.packets_delivered(), 300u);
  EXPECT_GT(city.sim.bytes_delivered(), 25'000u);
}

// The whole mixed city on the sharded engine. The city's systems share one
// core::ObservationLog, which is not thread-safe, so every node is pinned to
// shard 0 — the run still exercises the full threaded machinery (worker
// spawn, window barriers, deferred trace replay, repeated run() calls with
// sends in between) and must reproduce the serial trace digest byte for
// byte. Spread multi-shard execution is covered by test_shard, whose flow
// capture uses the staged FlowLedger lanes.
TEST(Soak, ShardedCityPinnedToOneShardMatchesSerialDigest) {
  City serial;
  const std::string want = serial.run_workload();

  City sharded;
  for (const net::Address& a : sharded.node_addrs) {
    sharded.sim.set_shard_affinity(a, 0);
  }
  sharded.sim.set_shards(4);
  EXPECT_EQ(sharded.run_workload(), want);

  EXPECT_EQ(sharded.sim.packets_delivered(), serial.sim.packets_delivered());
  EXPECT_EQ(sharded.sim.bytes_delivered(), serial.sim.bytes_delivered());
  EXPECT_EQ(sharded.web_origin->requests_served(),
            serial.web_origin->requests_served());
  EXPECT_EQ(sharded.dropbox->deliveries().size(),
            serial.dropbox->deliveries().size());
  EXPECT_EQ(sharded.gated_origin->served(), serial.gated_origin->served());

  const net::Simulator::ShardRunStats& stats = sharded.sim.shard_stats();
  EXPECT_EQ(stats.shards, 4u);
  ASSERT_EQ(stats.cross_sends.size(), 4u);
  for (std::uint64_t c : stats.cross_sends) {
    EXPECT_EQ(c, 0u);  // everything pinned: no boundary crossings
  }
  // The decoupling verdict survives the sharded execution unchanged.
  core::DecouplingAnalysis a(sharded.log);
  EXPECT_TRUE(a.is_decoupled(sharded.users));
}

// 1000+ randomized-seed runs sweeping loss ∈ {0, 0.05, 0.2} across all
// eight paper systems (bench_tables T1-T8). Every run must drain at bounded
// virtual time, and impairment must never *create* a coupling: systems that
// are decoupled fault-free stay decoupled under any seeded plan (faults can
// only remove or duplicate observations). The VPN control stays coupled in
// every fault-free run. Seeds come from a fixed-seed generator, so the whole
// sweep is reproducible.
TEST(Soak, ThousandRunRandomizedFaultSweep) {
  using testutil::SystemRun;
  struct Entry {
    const char* name;
    SystemRun (*run)(const net::FaultPlan*);
    bool decoupled_when_clean;
  };
  const Entry entries[] = {
      {"ecash", testutil::run_ecash, true},
      {"mixnet", testutil::run_mixnet, true},
      {"privacypass", testutil::run_privacypass, true},
      {"odoh", testutil::run_odoh, true},
      {"pgpp", testutil::run_pgpp, true},
      {"mpr", testutil::run_mpr, true},
      {"ppm", testutil::run_ppm, true},
      {"vpn", testutil::run_vpn, false},
  };
  const double losses[] = {0.0, 0.05, 0.2};

  XoshiroRng seed_gen(2026);
  int runs = 0;
  std::uint64_t injected_total = 0;
  for (int iter = 0; iter < 42; ++iter) {
    for (double loss : losses) {
      for (const Entry& e : entries) {
        const std::uint64_t seed = seed_gen.u64();
        SystemRun r;
        if (loss == 0.0) {
          r = e.run(nullptr);
        } else {
          net::FaultPlan plan(seed);
          plan.impair(net::Impairment{loss, 0.05, 0.2, 5'000});
          r = e.run(&plan);
          injected_total += r.injected;
        }
        ++runs;
        // Bounded virtual time: bounded retries mean every workload drains
        // within a minute of simulated time, impaired or not.
        EXPECT_LT(r.end_time, 60'000'000u)
            << e.name << " seed " << seed << " loss " << loss;
        if (e.decoupled_when_clean) {
          EXPECT_TRUE(r.decoupled)
              << e.name << " seed " << seed << " loss " << loss;
        } else if (loss == 0.0) {
          // The coupled control: no fault-free run may look decoupled.
          EXPECT_FALSE(r.decoupled) << e.name << " seed " << seed;
        }
      }
    }
  }
  EXPECT_EQ(runs, 1008);
  EXPECT_GT(injected_total, 0u);
}

}  // namespace
}  // namespace dcpl::systems
