// Randomized differential oracle for the simulator's engine.
//
// The hand-picked goldens in test_engine/test_shard pin a few fixed
// workloads. This tier draws many: each seed builds a random topology
// (client -> relay -> sink fan-in, relay replies, sink acks, a prober whose
// sends originate on shard 0 through untagged at() callbacks), random link
// latencies (>= 1 us, some pairs left on the default latency), random
// per-client round counts and delays, and a random deterministic FaultPlan
// (partition windows, crash windows, breaches). The workload runs on one
// shard, then on 2 and 4 shards under both placement policies, and every
// shard-count-independent output must match the 1-shard run exactly:
// end time, packet/byte totals, FaultStats, the sorted per-node reception
// logs, the flow-ledger tuple fold and totals, the bucket-level latency
// digests (tracer recorders and the registry's delivery_latency_us), and
// the multiset of deliveries a wiretap saw. Stochastic impairments are
// left out on purpose: their RNG streams are per shard, so they are only
// stable per count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "net/faults.hpp"
#include "net/sim.hpp"
#include "net/tracing.hpp"
#include "obs/flow.hpp"
#include "obs/latency.hpp"

namespace dcpl::net {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t mix(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return mix(h, s.size());
}

constexpr std::uint64_t kFnvSeed = 0xCBF29CE484222325ull;

/// One reception as a node saw it. Contexts are left out of the key:
/// new_context() namespaces ids by shard, so raw values differ by count.
struct Reception {
  Time time;
  Address src;
  std::string protocol;
  std::string payload;

  auto key() const { return std::tie(time, src, protocol, payload); }
  bool operator<(const Reception& o) const { return key() < o.key(); }
  bool operator==(const Reception& o) const { return key() == o.key(); }
};

/// The random workload, drawn once per seed and replayed on every engine
/// configuration. Plain data, so every run sees the identical inputs.
struct Scenario {
  std::uint32_t clients = 0;
  std::uint32_t relays = 0;
  std::uint32_t sinks = 0;
  Time default_latency = 0;
  std::vector<std::uint32_t> client_relay;
  std::vector<Time> client_latency;
  std::vector<std::uint32_t> client_rounds;
  std::vector<Time> client_start;
  std::vector<std::uint64_t> client_salt;
  // relay_sink_latency[r][s]: 0 = no explicit link (default latency).
  std::vector<std::vector<Time>> relay_sink_latency;
  Time prober_latency = 0;
  std::vector<std::pair<Time, std::uint32_t>> probes;  // (time, relay)
  struct Window {
    Address a;
    Address b;
    Time start;
    Time end;
  };
  std::vector<Window> partitions;
  std::vector<Window> crashes;  // b unused
  std::vector<std::pair<Address, Time>> breaches;
};

std::string client_name(std::uint32_t i) { return "c" + std::to_string(i); }
std::string relay_name(std::uint32_t i) { return "r" + std::to_string(i); }
std::string sink_name(std::uint32_t i) { return "s" + std::to_string(i); }

Scenario draw_scenario(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  Scenario s;
  s.clients = 6 + static_cast<std::uint32_t>(below(30));
  s.relays = 2 + static_cast<std::uint32_t>(below(5));
  s.sinks = 1 + static_cast<std::uint32_t>(below(3));
  s.default_latency = 1 + below(12000);
  for (std::uint32_t c = 0; c < s.clients; ++c) {
    s.client_relay.push_back(static_cast<std::uint32_t>(below(s.relays)));
    s.client_latency.push_back(1 + below(6000));
    s.client_rounds.push_back(1 + static_cast<std::uint32_t>(below(5)));
    s.client_start.push_back(below(4) == 0 ? 0 : below(3000));
    s.client_salt.push_back(rng());
  }
  s.relay_sink_latency.assign(s.relays, std::vector<Time>(s.sinks, 0));
  for (auto& row : s.relay_sink_latency) {
    for (Time& lat : row) lat = below(4) == 0 ? 0 : 1 + below(5000);
  }
  s.prober_latency = 1 + below(8000);
  for (std::uint64_t i = 0, n = below(6); i < n; ++i) {
    s.probes.emplace_back(below(40000),
                          static_cast<std::uint32_t>(below(s.relays)));
  }
  const Time horizon = 60000;
  for (std::uint64_t i = 0, n = below(4); i < n; ++i) {
    const std::uint32_t c = static_cast<std::uint32_t>(below(s.clients));
    const Time start = below(horizon);
    s.partitions.push_back({client_name(c), relay_name(s.client_relay[c]),
                            start, start + 1 + below(15000)});
  }
  for (std::uint64_t i = 0, n = below(4); i < n; ++i) {
    const std::uint64_t pick = below(s.clients + s.relays + s.sinks);
    const Address party =
        pick < s.clients ? client_name(static_cast<std::uint32_t>(pick))
        : pick < s.clients + s.relays
            ? relay_name(static_cast<std::uint32_t>(pick - s.clients))
            : sink_name(
                  static_cast<std::uint32_t>(pick - s.clients - s.relays));
    const Time start = below(horizon);
    s.crashes.push_back({party, "", start, start + 1 + below(12000)});
  }
  for (std::uint64_t i = 0, n = below(3); i < n; ++i) {
    const Address party =
        below(2) == 0
            ? relay_name(static_cast<std::uint32_t>(below(s.relays)))
            : sink_name(static_cast<std::uint32_t>(below(s.sinks)));
    s.breaches.emplace_back(party, below(horizon));
  }
  return s;
}

class LoggingNode : public Node {
 public:
  LoggingNode(Address name, obs::FlowLedger* ledger, bool sensitive)
      : Node(std::move(name)), ledger_(ledger), sensitive_(sensitive) {}

  std::vector<Reception> log;

 protected:
  void record(const Packet& p, Simulator& sim) {
    const std::string body = to_string(p.payload);
    log.push_back({sim.now(), p.src, p.protocol, body});
    if (ledger_ == nullptr) return;
    ledger_->record_exposure(address(),
                             sensitive_ ? core::sensitive_data(body)
                                        : core::benign_data(body),
                             p.context);
  }

 private:
  obs::FlowLedger* ledger_;
  bool sensitive_;
};

/// Sends one request per round to its relay; the next round starts when
/// the reply arrives. A crashed or partitioned round ends the client.
class ClientNode final : public LoggingNode {
 public:
  ClientNode(const Scenario& s, std::uint32_t id, obs::FlowLedger* ledger)
      : LoggingNode(client_name(id), ledger, false),
        relay_(relay_name(s.client_relay[id])),
        rounds_(s.client_rounds[id]),
        salt_(s.client_salt[id]) {}

  void kickoff(Simulator& sim) { send_round(sim); }

  void on_packet(const Packet& p, Simulator& sim) override {
    record(p, sim);
    if (sent_ < rounds_) send_round(sim);
  }

 private:
  void send_round(Simulator& sim) {
    const std::uint64_t h = mix(salt_, sent_);
    const std::string body =
        address() + ".r" + std::to_string(sent_) + "." + std::to_string(h % 997);
    ++sent_;
    sim.send(Packet{address(), relay_, to_bytes(body), sim.new_context(),
                    "req"},
             /*extra_delay=*/h % 4 == 0 ? h % 700 : 0);
  }

  Address relay_;
  std::uint32_t rounds_;
  std::uint64_t salt_;
  std::uint32_t sent_ = 0;
};

/// Replies to the sender and forwards the request to a payload-chosen sink.
class RelayNode final : public LoggingNode {
 public:
  RelayNode(const Scenario& s, std::uint32_t id, obs::FlowLedger* ledger)
      : LoggingNode(relay_name(id), ledger, false), sinks_(s.sinks) {}

  void on_packet(const Packet& p, Simulator& sim) override {
    record(p, sim);
    if (p.protocol == "ack") return;
    sim.send(Packet{address(), p.src, p.payload, p.context, "reply"});
    const std::uint32_t sink = static_cast<std::uint32_t>(
        mix(kFnvSeed, to_string(p.payload)) % sinks_);
    sim.forward(address(), sink_name(sink), p.context, "fwd");
  }

 private:
  std::uint32_t sinks_;
};

/// Terminal party: logs and acks short payloads back to the relay.
class SinkNode final : public LoggingNode {
 public:
  SinkNode(std::uint32_t id, obs::FlowLedger* ledger)
      : LoggingNode(sink_name(id), ledger, true) {}

  void on_packet(const Packet& p, Simulator& sim) override {
    record(p, sim);
    if (p.payload.size() % 2 == 0) {
      sim.send(Packet{address(), p.src, to_bytes("ack"), p.context, "ack"});
    }
  }
};

/// Receives relay replies to the probes sent on its behalf by at().
class ProberNode final : public LoggingNode {
 public:
  explicit ProberNode(obs::FlowLedger* ledger)
      : LoggingNode("prober", ledger, false) {}

  void on_packet(const Packet& p, Simulator& sim) override { record(p, sim); }
};

struct Config {
  std::uint32_t shards = 1;
  Simulator::AffinityPolicy policy = Simulator::AffinityPolicy::kModulo;
};

struct Outcome {
  Time end = 0;
  std::size_t packets = 0;
  std::uint64_t bytes = 0;
  FaultStats faults;
  std::map<Address, std::vector<Reception>> logs;
  std::string flow_tuples;
  std::uint64_t flow_exposures = 0;
  std::uint64_t flow_compromises = 0;
  std::uint64_t flow_deduped = 0;
  std::uint64_t traced = 0;
  std::string latency_summary;
  std::uint64_t latency_digest = kFnvSeed;
  std::uint64_t delivery_latency_digest = kFnvSeed;
  std::uint64_t tap_digest = kFnvSeed;
  std::uint64_t tapped = 0;
  std::uint64_t windows = 0;
};

/// Folds a recorder's exact state: count, min, max and every bucket.
std::uint64_t recorder_digest(std::uint64_t h, const obs::LatencyRecorder& r) {
  h = mix(h, r.count());
  h = mix(h, r.min());
  h = mix(h, r.max());
  for (std::size_t i = 0; i < obs::LatencyRecorder::kBucketCount; ++i) {
    h = mix(h, r.bucket(i));
  }
  return h;
}

Outcome run_scenario(const Scenario& s, const Config& cfg) {
  Simulator sim;
  obs::Registry metrics;
  sim.set_metrics(metrics);
  obs::FlowLedger ledger;
  sim.set_flow(&ledger);
  // What a wiretap saw, as a multiset: taps see (time, seq) order serially
  // and (time, shard, seq) order sharded, and contexts are shard-namespaced.
  std::vector<std::tuple<Time, Address, Address, std::size_t, std::string>>
      tapped;
  sim.add_wiretap([&tapped](const TraceEntry& e) {
    tapped.emplace_back(e.time, e.src, e.dst, e.size, e.protocol);
  });
  // Waterfall capture off: span sampling keys on engine-specific trace
  // sequence numbers; the recorders are count-independent.
  LatencyTracer tracer(/*waterfall_period=*/0);
  sim.set_latency_tracer(&tracer);
  sim.set_default_latency(s.default_latency);

  std::vector<std::unique_ptr<ClientNode>> clients;
  std::vector<std::unique_ptr<RelayNode>> relays;
  std::vector<std::unique_ptr<SinkNode>> sinks;
  ProberNode prober(&ledger);
  std::vector<LoggingNode*> all;
  for (std::uint32_t r = 0; r < s.relays; ++r) {
    relays.push_back(std::make_unique<RelayNode>(s, r, &ledger));
    all.push_back(relays.back().get());
  }
  for (std::uint32_t c = 0; c < s.clients; ++c) {
    clients.push_back(std::make_unique<ClientNode>(s, c, &ledger));
    all.push_back(clients.back().get());
  }
  for (std::uint32_t k = 0; k < s.sinks; ++k) {
    sinks.push_back(std::make_unique<SinkNode>(k, &ledger));
    all.push_back(sinks.back().get());
  }
  all.push_back(&prober);
  for (LoggingNode* n : all) sim.add_node(*n);

  for (std::uint32_t c = 0; c < s.clients; ++c) {
    sim.connect(client_name(c), relay_name(s.client_relay[c]),
                s.client_latency[c]);
  }
  for (std::uint32_t r = 0; r < s.relays; ++r) {
    for (std::uint32_t k = 0; k < s.sinks; ++k) {
      if (s.relay_sink_latency[r][k] != 0) {
        sim.connect(relay_name(r), sink_name(k), s.relay_sink_latency[r][k]);
      }
    }
    sim.connect("prober", relay_name(r), s.prober_latency);
  }

  FaultPlan plan(/*seed=*/1);
  for (const auto& w : s.partitions) plan.partition(w.a, w.b, w.start, w.end);
  for (const auto& w : s.crashes) plan.crash(w.a, w.start, w.end);
  for (const auto& [party, t] : s.breaches) plan.breach(party, t);
  sim.set_fault_plan(std::move(plan));

  sim.set_shards(cfg.shards);
  sim.set_auto_affinity(cfg.policy);
  for (std::uint32_t c = 0; c < s.clients; ++c) {
    ClientNode* client = clients[c].get();
    sim.at_node(client->address(), s.client_start[c],
                [client, &sim] { client->kickoff(sim); });
  }
  for (std::size_t i = 0; i < s.probes.size(); ++i) {
    const auto [t, relay] = s.probes[i];
    sim.at(t, [&sim, relay, i] {
      sim.send(Packet{"prober", relay_name(relay),
                      to_bytes("probe" + std::to_string(i)), sim.new_context(),
                      "probe"});
    });
  }

  Outcome out;
  out.end = sim.run();
  sim.set_latency_tracer(nullptr);
  out.packets = sim.packets_delivered();
  out.bytes = sim.bytes_delivered();
  out.faults = sim.fault_stats();
  out.windows = sim.shard_stats().windows;
  for (LoggingNode* n : all) {
    std::sort(n->log.begin(), n->log.end());
    out.logs[n->address()] = n->log;
  }
  std::ostringstream tuples;
  for (const auto& [party, tuple] : ledger.tuples()) {
    tuples << party << "=" << tuple.to_string() << ";";
  }
  out.flow_tuples = tuples.str();
  out.flow_exposures = ledger.exposures();
  out.flow_compromises = ledger.compromises();
  out.flow_deduped = ledger.deduped();

  std::sort(tapped.begin(), tapped.end());
  out.tapped = tapped.size();
  for (const auto& [time, src, dst, size, protocol] : tapped) {
    out.tap_digest = mix(out.tap_digest, time);
    out.tap_digest = mix(out.tap_digest, src);
    out.tap_digest = mix(out.tap_digest, dst);
    out.tap_digest = mix(out.tap_digest, size);
    out.tap_digest = mix(out.tap_digest, protocol);
  }
  out.delivery_latency_digest = recorder_digest(
      out.delivery_latency_digest, metrics.histogram("delivery_latency_us"));

  // Keyed by protocol name: under shards, protocols are interned in
  // thread-timing order, so raw ProtocolIds are not comparable.
  const std::vector<std::string> names = sim.protocol_names();
  std::map<std::string, const obs::LatencyRecorder*> recs;
  for (ProtocolId p = 0; p < names.size() && p < LatencyTracer::kMaxProtocols;
       ++p) {
    if (tracer.e2e(p).count() != 0) recs["e2e:" + names[p]] = &tracer.e2e(p);
  }
  recs["stage:link"] = &tracer.stage_link();
  recs["stage:queue_wait"] = &tracer.stage_queue_wait();
  std::ostringstream summary;
  for (const auto& [name, rec] : recs) {
    out.latency_digest = mix(out.latency_digest, name);
    out.latency_digest = recorder_digest(out.latency_digest, *rec);
    summary << name << "=" << rec->count() << "/" << rec->max() << ";";
    if (name.rfind("e2e:", 0) == 0) out.traced += rec->count();
  }
  out.latency_summary = summary.str();
  return out;
}

void expect_same(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(got.end, want.end);
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.faults, want.faults);
  ASSERT_EQ(got.logs.size(), want.logs.size());
  for (const auto& [addr, log] : want.logs) {
    auto it = got.logs.find(addr);
    ASSERT_NE(it, got.logs.end()) << addr;
    EXPECT_EQ(it->second, log) << "reception log diverged at " << addr;
  }
  EXPECT_EQ(got.flow_tuples, want.flow_tuples);
  EXPECT_EQ(got.flow_exposures, want.flow_exposures);
  EXPECT_EQ(got.flow_compromises, want.flow_compromises);
  EXPECT_EQ(got.flow_deduped, want.flow_deduped);
  EXPECT_EQ(got.traced, want.traced);
  EXPECT_EQ(got.latency_summary, want.latency_summary);
  EXPECT_EQ(got.latency_digest, want.latency_digest);
  EXPECT_EQ(got.delivery_latency_digest, want.delivery_latency_digest);
  EXPECT_EQ(got.tapped, want.tapped);
  EXPECT_EQ(got.tap_digest, want.tap_digest);
}

constexpr std::uint64_t kSeeds = 24;

TEST(EngineOracle, ShardedRunsMatchOneShardOnRandomScenarios) {
  std::uint64_t faulted = 0, breached = 0, delivered = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Scenario s = draw_scenario(seed);
    const Outcome serial = run_scenario(s, {});
    ASSERT_GT(serial.packets, 0u) << "seed=" << seed;
    EXPECT_EQ(serial.tapped, serial.packets);  // the tap saw every delivery
    EXPECT_EQ(serial.windows, 0u);  // the 1-shard run opens no windows
    delivered += serial.packets;
    faulted += serial.faults.partition_dropped + serial.faults.offline_dropped;
    breached += serial.faults.breaches_fired;
    for (std::uint32_t shards : {2u, 4u}) {
      for (auto policy : {Simulator::AffinityPolicy::kModulo,
                          Simulator::AffinityPolicy::kMinCut}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " shards=" + std::to_string(shards) + " policy=" +
                     (policy == Simulator::AffinityPolicy::kModulo
                          ? "modulo"
                          : "mincut"));
        const Outcome sharded = run_scenario(s, {shards, policy});
        EXPECT_GT(sharded.windows, 0u);
        expect_same(serial, sharded);
      }
    }
  }
  // The draw must actually exercise the fault paths, or the oracle would
  // compare only fault-free runs.
  EXPECT_GT(delivered, 1000u);
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(breached, 0u);
}

// The sharded side of the oracle is only meaningful if it is itself stable:
// a fixed shard count and policy replays the same outcome.
TEST(EngineOracle, ShardedRunsAreStablePerCount) {
  for (std::uint64_t seed : {3ull, 11ull}) {
    const Scenario s = draw_scenario(seed);
    for (std::uint32_t shards : {2u, 4u}) {
      const Config cfg{shards, Simulator::AffinityPolicy::kMinCut};
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " shards=" + std::to_string(shards));
      const Outcome first = run_scenario(s, cfg);
      const Outcome again = run_scenario(s, cfg);
      expect_same(first, again);
      EXPECT_EQ(again.windows, first.windows);
    }
  }
}

}  // namespace
}  // namespace dcpl::net
