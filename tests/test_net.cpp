// Discrete-event simulator: ordering, latency, wiretaps, determinism.
#include "net/sim.hpp"

#include <gtest/gtest.h>

namespace dcpl::net {
namespace {

/// Records deliveries and optionally echoes back.
class EchoNode final : public Node {
 public:
  EchoNode(Address addr, bool echo) : Node(std::move(addr)), echo_(echo) {}

  void on_packet(const Packet& p, Simulator& sim) override {
    received.push_back(p);
    times.push_back(sim.now());
    if (echo_) {
      Packet reply{address(), p.src, p.payload, p.context, p.protocol};
      sim.send(std::move(reply));
    }
  }

  std::vector<Packet> received;
  std::vector<Time> times;

 private:
  bool echo_;
};

TEST(Simulator, DeliversWithLinkLatency) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 5000);

  sim.send(Packet{"a", "b", to_bytes("hi"), 1, "test"});
  Time end = sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.times[0], 5000u);
  EXPECT_EQ(end, 5000u);
  EXPECT_EQ(to_string(b.received[0].payload), "hi");
}

TEST(Simulator, RequestResponseRoundTrip) {
  Simulator sim;
  EchoNode client("client", false), server("server", true);
  sim.add_node(client);
  sim.add_node(server);
  sim.connect("client", "server", 7000);

  sim.send(Packet{"client", "server", to_bytes("ping"), 1, "test"});
  sim.run();
  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_EQ(client.times[0], 14000u);  // there and back
}

TEST(Simulator, DefaultLatencyForUnconnectedPairs) {
  Simulator sim;
  sim.set_default_latency(123);
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.send(Packet{"a", "b", {}, 0, ""});
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 123u);
}

TEST(Simulator, HasLinkDistinguishesConfiguredPairs) {
  Simulator sim;
  sim.connect("a", "b", 5000);
  EXPECT_TRUE(sim.has_link("a", "b"));
  EXPECT_TRUE(sim.has_link("b", "a"));  // connect installs both directions
  EXPECT_FALSE(sim.has_link("a", "c"));
  EXPECT_FALSE(sim.has_link("c", "a"));
}

TEST(Simulator, LinkLatencyIsNulloptForUnknownPairs) {
  Simulator sim;
  sim.set_default_latency(123);
  sim.connect("a", "b", 5000);
  // Explicit link: the configured value.
  EXPECT_EQ(sim.link_latency("a", "b"), 5000u);
  EXPECT_EQ(sim.link_latency("b", "a"), 5000u);
  // Unknown pair: nullopt, NOT the default-latency fallback that
  // latency_between applies at delivery time.
  EXPECT_EQ(sim.link_latency("a", "c"), std::nullopt);
}

TEST(Simulator, ReconnectReplacesLatencyExplicitly) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 5000);
  sim.connect("a", "b", 900);  // documented: replaces the previous latency
  EXPECT_EQ(sim.link_latency("a", "b"), 900u);
  EXPECT_EQ(sim.link_latency("b", "a"), 900u);
  sim.send(Packet{"a", "b", to_bytes("hi"), 1, "test"});
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 900u);
}

TEST(Simulator, ExtraDelayAddsToLatency) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 1000);
  sim.send(Packet{"a", "b", {}, 0, ""}, 250);
  sim.run();
  EXPECT_EQ(b.times.at(0), 1250u);
}

TEST(Simulator, FifoOrderForSimultaneousEvents) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 100);
  for (int i = 0; i < 10; ++i) {
    sim.send(Packet{"a", "b", Bytes{static_cast<std::uint8_t>(i)}, 0, ""});
  }
  sim.run();
  ASSERT_EQ(b.received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(b.received[i].payload[0], i);
}

TEST(Simulator, UnknownDestinationThrows) {
  Simulator sim;
  EchoNode a("a", false);
  sim.add_node(a);
  EXPECT_THROW(sim.send(Packet{"a", "nowhere", {}, 0, ""}), std::out_of_range);
}

TEST(Simulator, DuplicateAddressThrows) {
  Simulator sim;
  EchoNode a1("a", false), a2("a", false);
  sim.add_node(a1);
  EXPECT_THROW(sim.add_node(a2), std::invalid_argument);
}

TEST(Simulator, ScheduledCallbacksRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(300, [&] { order.push_back(3); });
  sim.at(100, [&] { order.push_back(1); });
  sim.at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_THROW(sim.at(0, [] {}), std::invalid_argument);
}

TEST(Simulator, WiretapSeesMetadataOnly) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 10);

  std::vector<TraceEntry> tapped;
  sim.add_wiretap([&](const TraceEntry& e) { tapped.push_back(e); });

  sim.send(Packet{"a", "b", to_bytes("secret payload"), 42, "proto"});
  sim.run();
  ASSERT_EQ(tapped.size(), 1u);
  EXPECT_EQ(tapped[0].src, "a");
  EXPECT_EQ(tapped[0].dst, "b");
  EXPECT_EQ(tapped[0].size, 14u);
  EXPECT_EQ(tapped[0].context, 42u);
  EXPECT_EQ(tapped[0].protocol, "proto");
}

TEST(Simulator, TraceAccumulatesAndCountsBytes) {
  Simulator sim;
  EchoNode a("a", false), b("b", true);
  sim.add_node(a);
  sim.add_node(b);
  sim.send(Packet{"a", "b", Bytes(10), 0, ""});
  sim.run();
  EXPECT_EQ(sim.packets_delivered(), 2u);
  EXPECT_EQ(sim.bytes_delivered(), 20u);
}

TEST(Simulator, ContextIdsAreUniqueAndNonZero) {
  Simulator sim;
  std::uint64_t c1 = sim.new_context();
  std::uint64_t c2 = sim.new_context();
  EXPECT_NE(c1, 0u);
  EXPECT_NE(c1, c2);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    EchoNode a("a", false), b("b", true), c("c", true);
    sim.add_node(a);
    sim.add_node(b);
    sim.add_node(c);
    sim.connect("a", "b", 11);
    sim.connect("a", "c", 13);
    sim.send(Packet{"a", "b", Bytes(3), 1, "x"});
    sim.send(Packet{"a", "c", Bytes(5), 2, "y"});
    std::string log;
    sim.add_wiretap([&log](const TraceEntry& e) {
      log += std::to_string(e.time) + e.src + e.dst + ";";
    });
    sim.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}


TEST(Simulator, BandwidthAddsSerializationDelay) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 1000);
  sim.set_bandwidth("a", "b", 10);  // 10 bytes/ms

  sim.send(Packet{"a", "b", Bytes(100), 0, ""});  // 100 B / 10 B/ms = 10 ms
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_EQ(b.times[0], 1000u + 10'000u);
}

TEST(Simulator, ZeroBandwidthMeansInfinite) {
  Simulator sim;
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.connect("a", "b", 1000);
  sim.set_bandwidth("a", "b", 0);
  sim.send(Packet{"a", "b", Bytes(100000), 0, ""});
  sim.run();
  EXPECT_EQ(b.times.at(0), 1000u);
}

TEST(Simulator, BandwidthIsPerLink) {
  Simulator sim;
  EchoNode a("a", false), b("b", false), c("c", false);
  sim.add_node(a);
  sim.add_node(b);
  sim.add_node(c);
  sim.connect("a", "b", 1000);
  sim.connect("a", "c", 1000);
  sim.set_bandwidth("a", "b", 1);  // slow
  sim.send(Packet{"a", "b", Bytes(50), 0, ""});
  sim.send(Packet{"a", "c", Bytes(50), 0, ""});
  sim.run();
  EXPECT_EQ(b.times.at(0), 51'000u);
  EXPECT_EQ(c.times.at(0), 1000u);
}

// Wiretaps are the only ordered per-delivery sink: they see every delivery
// in order, while the metrics hold aggregates only — no series per
// address or per link.
TEST(Simulator, CountersAndWiretapsSeeEveryDelivery) {
  Simulator sim;
  obs::Registry reg;
  sim.set_metrics(reg);
  EchoNode a("a", false), b("b", false);
  sim.add_node(a);
  sim.add_node(b);

  std::vector<TraceEntry> tapped;
  sim.add_wiretap([&](const TraceEntry& e) { tapped.push_back(e); });
  sim.send(Packet{"a", "b", Bytes(100), 1, "t"});
  sim.send(Packet{"a", "b", Bytes(28), 2, "t"});
  sim.run();

  EXPECT_EQ(sim.packets_delivered(), 2u);
  EXPECT_EQ(sim.bytes_delivered(), 128u);
  ASSERT_EQ(tapped.size(), 2u);
  EXPECT_EQ(tapped[0].size, 100u);
  EXPECT_EQ(tapped[0].src, "a");
  EXPECT_EQ(tapped[0].dst, "b");
  EXPECT_EQ(tapped[0].protocol, "t");
  EXPECT_EQ(tapped[1].context, 2u);
  EXPECT_EQ(b.received.size(), 2u);

  // A second run keeps counting; the tap stays attached.
  sim.send(Packet{"a", "b", Bytes(1), 3, "t"});
  sim.run();
  ASSERT_EQ(tapped.size(), 3u);
  EXPECT_EQ(tapped[2].context, 3u);
  EXPECT_EQ(sim.packets_delivered(), 3u);
  EXPECT_EQ(reg.counter("packets_delivered").value(), 3u);
  EXPECT_EQ(reg.counter("bytes_delivered").value(), 129u);
  EXPECT_EQ(reg.histogram("delivery_latency_us").count(), 3u);
  for (const obs::SnapshotEntry& e : reg.snapshot().entries) {
    EXPECT_TRUE(e.labels.empty()) << e.name;
  }
}

TEST(Simulator, InternedButNodelessDestinationThrows) {
  Simulator sim;
  EchoNode a("a", false);
  sim.add_node(a);
  // connect() interns "ghost" without registering a node for it; sending
  // there must still throw, not index past the node table.
  sim.connect("a", "ghost", 5'000);
  ASSERT_TRUE(sim.interner().lookup("ghost").has_value());
  EXPECT_THROW(sim.send(Packet{"a", "ghost", {}, 0, ""}), std::out_of_range);
}

}  // namespace
}  // namespace dcpl::net
