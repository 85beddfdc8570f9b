// System-level sharded run: the full OHTTP stack (clients, relay, gateway,
// origin — real HPKE crypto, zero-copy forwards) spread across shards with
// per-node observation logs, so the only shared mutable state is the
// engine's own. This is the tier the ThreadSanitizer CI job leans on: a
// data race anywhere in the mailbox/pool/metrics plumbing surfaces here
// under real protocol traffic, not just synthetic ping-pong.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/address_book.hpp"
#include "core/knowledge.hpp"
#include "core/observation.hpp"
#include "net/sim.hpp"
#include "systems/ohttp/ohttp.hpp"

namespace dcpl::systems {
namespace {

constexpr int kClients = 12;
constexpr int kRounds = 3;

/// One OHTTP estate where every party keeps its own ObservationLog, so
/// nodes can spread across shards without sharing a log.
struct Estate {
  net::Simulator sim;
  std::vector<net::TraceEntry> trace;  // every delivery, via a wiretap
  core::AddressBook book;
  std::vector<std::unique_ptr<core::ObservationLog>> logs;

  std::unique_ptr<ohttp::OriginServer> origin;
  std::unique_ptr<ohttp::Gateway> gateway;
  std::unique_ptr<ohttp::Relay> relay;
  std::vector<std::unique_ptr<ohttp::Client>> clients;

  core::ObservationLog& fresh_log() {
    logs.push_back(std::make_unique<core::ObservationLog>());
    return *logs.back();
  }

  Estate() {
    sim.add_wiretap([this](const net::TraceEntry& e) { trace.push_back(e); });
    book.set("web.example", core::benign_identity("addr:web.example"));
    book.set("gw.example", core::benign_identity("addr:gw.example"));
    book.set("relay.example", core::benign_identity("addr:relay.example"));

    origin = std::make_unique<ohttp::OriginServer>(
        "web.example",
        [](const http::Request& req) {
          http::Response resp;
          resp.body = to_bytes("page " + req.path);
          return resp;
        },
        fresh_log(), book);
    gateway =
        std::make_unique<ohttp::Gateway>("gw.example", fresh_log(), book, 1);
    gateway->add_origin("web.example", "web.example");
    relay = std::make_unique<ohttp::Relay>("relay.example", "gw.example",
                                           fresh_log(), book);
    sim.add_node(*origin);
    sim.add_node(*gateway);
    sim.add_node(*relay);
    for (int i = 0; i < kClients; ++i) {
      const std::string addr = "10.0.0." + std::to_string(i + 1);
      const std::string label = "user:browser" + std::to_string(i);
      book.set(addr, core::sensitive_identity(label, "network"));
      clients.push_back(std::make_unique<ohttp::Client>(
          addr, label, "relay.example", gateway->key().public_key,
          fresh_log(), 100 + i));
      sim.add_node(*clients.back());
    }
  }

  /// Each client fetches kRounds pages, chaining the next fetch from the
  /// previous response callback so traffic keeps flowing mid-run.
  void run_workload() {
    for (int i = 0; i < kClients; ++i) {
      fetch_round(i, 0);
    }
    sim.run();
  }

  void fetch_round(int client, int round) {
    if (round >= kRounds) return;
    http::Request req;
    req.authority = "web.example";
    req.path = "/r" + std::to_string(round) + "/u" + std::to_string(client);
    clients[client]->fetch(req, sim, [this, client, round](
                                         const http::Response&) {
      fetch_round(client, round + 1);
    });
  }
};

TEST(SystemSharded, OhttpStackSpreadAcrossShardsMatchesSerial) {
  Estate serial;
  serial.run_workload();
  ASSERT_EQ(serial.origin->requests_served(),
            static_cast<std::size_t>(kClients * kRounds));

  for (std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Estate sharded;
    sharded.sim.set_shards(shards);  // no affinity: nodes spread by id
    sharded.run_workload();

    EXPECT_EQ(sharded.origin->requests_served(),
              serial.origin->requests_served());
    EXPECT_EQ(sharded.relay->forwarded(), serial.relay->forwarded());
    for (int i = 0; i < kClients; ++i) {
      EXPECT_EQ(sharded.clients[i]->responses_received(),
                serial.clients[i]->responses_received())
          << "client " << i;
    }
    EXPECT_EQ(sharded.sim.packets_delivered(), serial.sim.packets_delivered());
    EXPECT_EQ(sharded.sim.bytes_delivered(), serial.sim.bytes_delivered());

    const net::Simulator::ShardRunStats& stats = sharded.sim.shard_stats();
    EXPECT_EQ(stats.shards, shards);
    std::uint64_t cross = 0;
    for (std::uint64_t c : stats.cross_sends) cross += c;
    EXPECT_GT(cross, 0u) << "workload never crossed a shard boundary";
  }
}

// Same OHTTP estate under set_auto_affinity(kMinCut): the partitioner
// places parties from the link table instead of id-modulo, and every
// serial-equivalence obligation still holds. Runs under the TSan CI job,
// so partitioner-driven placement gets race coverage on real traffic too.
TEST(SystemSharded, OhttpStackWithAutoAffinityMatchesSerial) {
  Estate serial;
  serial.run_workload();

  for (std::uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Estate sharded;
    sharded.sim.set_shards(shards);
    sharded.sim.set_auto_affinity(net::Simulator::AffinityPolicy::kMinCut);
    sharded.run_workload();

    EXPECT_EQ(sharded.sim.shard_stats().policy,
              net::Simulator::AffinityPolicy::kMinCut);
    EXPECT_EQ(sharded.origin->requests_served(),
              serial.origin->requests_served());
    EXPECT_EQ(sharded.relay->forwarded(), serial.relay->forwarded());
    for (int i = 0; i < kClients; ++i) {
      EXPECT_EQ(sharded.clients[i]->responses_received(),
                serial.clients[i]->responses_received())
          << "client " << i;
    }
    EXPECT_EQ(sharded.sim.packets_delivered(), serial.sim.packets_delivered());
    EXPECT_EQ(sharded.sim.bytes_delivered(), serial.sim.bytes_delivered());
  }
}

TEST(SystemSharded, RepeatedShardedRunsAreBitStable) {
  auto digest = [](Estate& e) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ull;
      }
    };
    for (const net::TraceEntry& t : e.trace) {
      mix(t.time);
      mix(t.size);
      mix(t.context);
    }
    return h;
  };
  Estate first;
  first.sim.set_shards(4);
  first.run_workload();
  const std::uint64_t want = digest(first);
  for (int rep = 0; rep < 3; ++rep) {
    Estate again;
    again.sim.set_shards(4);
    again.run_workload();
    ASSERT_EQ(digest(again), want) << "rep " << rep;
  }
}

}  // namespace
}  // namespace dcpl::systems
