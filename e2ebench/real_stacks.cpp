// The two real-stack workloads: full protocol code (HPKE, AEAD, RSA blind
// signatures, DNS, retries, the observation and flow plane) driven over the
// simulator as closed loops. Each round builds a fresh topology, runs a
// fixed number of operations, and checks every response.
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/observation.hpp"
#include "crypto/blind_rsa.hpp"
#include "harness.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "report_util.hpp"
#include "systems/mixnet/mixnet.hpp"
#include "systems/mpr/mpr.hpp"
#include "systems/odoh/odoh.hpp"
#include "systems/ohttp/ohttp.hpp"
#include "systems/privacypass/privacypass.hpp"
#include "systems/retry.hpp"

namespace dcpl::e2ebench {
namespace {

/// Party registration: every node runs behind a PartyNode, traced or not,
/// so the traced and untraced rounds execute the same dispatch path.
class Topology {
 public:
  explicit Topology(net::Simulator& sim) : sim_(sim) {}

  void add(net::Node& node, Layer layer, std::function<void()> after = {}) {
    wrapped_.push_back(
        std::make_unique<PartyNode>(node, layer, std::move(after)));
    sim_.add_node(*wrapped_.back());
  }

 private:
  net::Simulator& sim_;
  std::vector<std::unique_ptr<PartyNode>> wrapped_;
};

/// Shared measured phase: runs the simulator to completion under the chunk
/// clock, with the layer clock and allocation counter on (traced rounds
/// only), snapshots the work counters, then runs `check` as harness time.
template <class Check>
void measure(net::Simulator& sim, obs::Registry& reg, const RoundSpec& spec,
             ChunkClock& clock, const OpTracker& ops, RoundResult& r,
             Check&& check) {
  const OpSnapshot before = op_snapshot();
  const std::uint64_t events_before = reg.counter("events_processed").value();
  const std::uint64_t resends_before =
      reg.scope("retry").counter("resends").value();
  set_alloc_counting(spec.traced);
  if (spec.traced) layer_clock().start(kNet);
  const std::uint64_t t0 = now_ns();
  clock.start(sim, [&ops] { return !ops.all_done(); });
  sim.run();
  clock.stop();
  r.run_s = static_cast<double>(now_ns() - t0) * 1e-9;
  set_alloc_counting(false);
  add_op_delta(r.work, before, op_snapshot());
  {
    ScopedLayer harness(kHarness);
    r.chunk_s = clock.chunk_seconds();
    r.work.events = static_cast<double>(
        reg.counter("events_processed").value() - events_before - clock.ticks());
    r.work.bytes = static_cast<double>(sim.bytes_delivered());
    // The peak over all rounds so far: every round replays the same events.
    r.work.peak_queue = static_cast<double>(reg.gauge("queue_depth_peak").peak());
    const net::FaultStats& f = sim.fault_stats();
    r.work.faults = static_cast<double>(f.total_dropped() + f.duplicated +
                                        f.jittered + f.breaches_fired);
    r.work.resends = static_cast<double>(
        reg.scope("retry").counter("resends").value() - resends_before);
    check();
  }
  r.measured_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (spec.traced) {
    layer_clock().stop();
    for (int l = 0; l < kLayerCount; ++l) {
      r.layer_s[l] = layer_clock().seconds(static_cast<Layer>(l));
    }
  }
}

/// Key material is the same in every round of every run, never drawn from
/// the workload seed: set-up, RSA key generation above all (its cost varies
/// from key to key), is then the same work in every round.
std::uint64_t key_seed(std::uint64_t k) { return mix_seed(0x6b657973, k); }

std::string client_address(int group, int i) {
  return "10." + std::to_string(group) + "." + std::to_string(i / 250) + "." +
         std::to_string(i % 250 + 1);
}

/// Origin content: a pure function of the request, so the benchmark can
/// recompute the expected body for every response it receives.
http::Response origin_content(const http::Request& req) {
  const std::size_t cut = req.path.rfind('/');
  const std::size_t size = std::stoul(req.path.substr(cut + 1));
  std::uint8_t x = static_cast<std::uint8_t>(req.path.size() * 31 +
                                             req.body.size());
  http::Response resp;
  resp.status = 200;
  resp.body.resize(size);
  for (std::uint8_t& b : resp.body) {
    x = static_cast<std::uint8_t>(x * 167 + 13);
    b = x;
  }
  return resp;
}

/// A seeded web request: a Zipf-popular object path ending in the response
/// size, and (for 30% of requests) a POST body.
http::Request web_request(Rng& rng, const ZipfSampler& objects,
                          const std::string& authority) {
  http::Request req;
  req.authority = authority;
  const std::size_t response_bytes = 64 + rng.below(1985);
  req.path = "/obj/" + std::to_string(objects.sample(rng)) + "/" +
             std::to_string(response_bytes);
  if (rng.unit() < 0.3) {
    req.method = "POST";
    req.body = rng.bytes(16 + rng.below(497));
  }
  return req;
}

// ---- ohttp_real -----------------------------------------------------------

// A few tens of closed-loop clients on a small shared infrastructure: the
// population stays small so the run measures per-request cost, which HPKE
// dominates.
constexpr int kOhttpClients = 32;
constexpr int kOhttpRelays = 2;
constexpr int kOhttpGateways = 2;
constexpr int kOhttpOrigins = 2;
constexpr int kOhttpOpsPerClient = 32;  // 1,024 operations per round

}  // namespace

RoundResult run_ohttp_real(const RoundSpec& spec) {
  using namespace systems::ohttp;
  constexpr std::size_t kOps = kOhttpClients * kOhttpOpsPerClient;

  // Inputs depend on the seed only, so every round replays the same work.
  std::vector<http::Request> requests;
  std::vector<Bytes> expected;
  {
    XoshiroRng rng(mix_seed(spec.seed, 1));
    ZipfSampler objects(1000, 1.0);
    for (std::size_t op = 0; op < kOps; ++op) {
      requests.push_back(web_request(
          rng, objects,
          "origin" + std::to_string(rng.below(kOhttpOrigins)) + ".example"));
      expected.push_back(origin_content(requests.back()).body);
    }
  }

  RoundResult r;
  const std::uint64_t t_setup = now_ns();
  net::Simulator sim;
  obs::Registry& reg = sim_registry();
  sim.set_metrics(reg);
  core::ObservationLog log;
  core::AddressBook book;
  Topology topo(sim);

  std::vector<std::unique_ptr<OriginServer>> origins;
  std::vector<std::unique_ptr<Gateway>> gateways;
  std::vector<std::unique_ptr<Relay>> relays;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kOhttpOrigins; ++i) {
    const std::string addr = "origin" + std::to_string(i) + ".example";
    book.set(addr, core::benign_identity("addr:" + addr));
    origins.push_back(
        std::make_unique<OriginServer>(addr, origin_content, log, book));
    topo.add(*origins.back(), kOrigin);
  }
  for (int i = 0; i < kOhttpGateways; ++i) {
    const std::string addr = "gateway" + std::to_string(i) + ".example";
    book.set(addr, core::benign_identity("addr:" + addr));
    gateways.push_back(std::make_unique<Gateway>(
        addr, log, book, key_seed(i)));
    for (int o = 0; o < kOhttpOrigins; ++o) {
      const std::string origin = "origin" + std::to_string(o) + ".example";
      gateways.back()->add_origin(origin, origin);
      sim.connect(addr, origin, 2'000);
    }
    topo.add(*gateways.back(), kGateway);
  }
  for (int i = 0; i < kOhttpRelays; ++i) {
    const std::string addr = "relay" + std::to_string(i) + ".example";
    const std::string gw =
        "gateway" + std::to_string(i % kOhttpGateways) + ".example";
    book.set(addr, core::benign_identity("addr:" + addr));
    relays.push_back(std::make_unique<Relay>(addr, gw, log, book));
    sim.connect(addr, gw, 5'000);
    topo.add(*relays.back(), kRelay);
  }
  for (int i = 0; i < kOhttpClients; ++i) {
    const std::string addr = client_address(0, i);
    const std::string user = "user:c" + std::to_string(i);
    book.set(addr, core::sensitive_identity(user, "network"));
    const int relay = i % kOhttpRelays;
    clients.push_back(std::make_unique<Client>(
        addr, user, relays[relay]->address(),
        gateways[relay % kOhttpGateways]->key().public_key, log,
        key_seed(32 + i)));
    topo.add(*clients.back(), kClient);
  }

  ChunkClock clock;
  OpTracker ops(kOps, clock);
  std::function<void(int, int)> issue = [&](int c, int k) {
    if (k >= kOhttpOpsPerClient) return;
    const std::size_t op = static_cast<std::size_t>(c) * kOhttpOpsPerClient +
                           static_cast<std::size_t>(k);
    ops.issue(op);
    ScopedLayer client(kClient);
    clients[c]->fetch(requests[op], sim,
                      [&, c, k, op](const http::Response& resp) {
                        {
                          ScopedLayer harness(kHarness);
                          ops.complete(op, resp.status == 200 &&
                                               resp.body == expected[op]);
                        }
                        issue(c, k + 1);
                      });
  };
  for (int c = 0; c < kOhttpClients; ++c) {
    sim.at(static_cast<net::Time>(c) * 100, [&issue, c] { issue(c, 0); });
  }
  r.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  measure(sim, reg, spec, clock, ops, r, [&] {
    ops.finish(r);
    r.work.observations = static_cast<double>(log.size());
  });
  return r;
}

// ---- stack_mix ------------------------------------------------------------

namespace {

// Closed-loop slots; each slot owns one client per stack and draws every
// next operation's stack from the seeded mix below.
constexpr int kMixSlots = 25;
constexpr int kMixOpsPerSlot = 40;  // 1,000 operations: a multiple of 20
constexpr int kZoneNames = 128;
constexpr int kMixHops = 3;

enum class Stack : std::uint8_t { kPrivacyPass, kOdoh, kMixnet, kMpr };

/// The stack of every operation in a round, in a seeded order: in every 20
/// operations, 3 Privacy Pass, 11 ODoH, 2 mix-net and 4 MPR. The weights
/// give each stack about the same share of the round's wall time (README:
/// "Why this mix"). A fixed composition keeps the per-round work the same
/// across seeds; only the order moves.
std::vector<Stack> stack_order(std::size_t ops, Rng& rng) {
  std::vector<Stack> order;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t x = i % 20;
    order.push_back(x < 3    ? Stack::kPrivacyPass
                    : x < 14 ? Stack::kOdoh
                    : x < 16 ? Stack::kMixnet
                             : Stack::kMpr);
  }
  for (std::size_t i = ops; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

std::string zone_name(int i) { return "n" + std::to_string(i) + ".example.com"; }

Bytes zone_address(int i) {
  return Bytes{198, 18, static_cast<std::uint8_t>(i / 256),
               static_cast<std::uint8_t>(i % 256)};
}

std::string dotted(const Bytes& a) {
  return std::to_string(a[0]) + "." + std::to_string(a[1]) + "." +
         std::to_string(a[2]) + "." + std::to_string(a[3]);
}

bool answer_matches(const dns::Message& m, int name) {
  const std::string qname = dns::canonical_name(zone_name(name));
  const Bytes want = zone_address(name);
  for (const auto& rr : m.answers) {
    if (rr.type == dns::RecordType::kA &&
        dns::canonical_name(rr.name) == qname && rr.rdata == want) {
      return true;
    }
  }
  return false;
}

/// One operation's seeded inputs.
struct MixOp {
  Stack stack = Stack::kOdoh;
  int name = 0;          // ODoH: zone index
  std::string text;      // mix-net: message body; PP: origin path
  http::Request request; // MPR
  Bytes expected;        // MPR: origin body
};

}  // namespace

RoundResult run_stack_mix(const RoundSpec& spec) {
  namespace pp = systems::privacypass;
  namespace odoh = systems::odoh;
  namespace mixnet = systems::mixnet;
  namespace mpr = systems::mpr;
  constexpr std::size_t kOps = kMixSlots * kMixOpsPerSlot;

  std::vector<MixOp> inputs(kOps);
  {
    XoshiroRng rng(mix_seed(spec.seed, 2));
    ZipfSampler names(kZoneNames, 1.0);
    ZipfSampler objects(1000, 1.0);
    const std::vector<Stack> order = stack_order(kOps, rng);
    for (std::size_t op = 0; op < kOps; ++op) {
      MixOp& in = inputs[op];
      in.stack = order[op];
      switch (in.stack) {
        case Stack::kPrivacyPass:
          in.text = "/protected/" + std::to_string(objects.sample(rng));
          break;
        case Stack::kOdoh:
          in.name = static_cast<int>(names.sample(rng));
          break;
        case Stack::kMixnet:
          in.text = "op" + std::to_string(op) + "|" +
                    to_hex(rng.bytes(8 + rng.below(120)));
          break;
        case Stack::kMpr:
          in.request = web_request(rng, objects, "mpr-origin.example");
          in.expected = origin_content(in.request).body;
          break;
      }
    }
  }

  RoundResult r;
  const std::uint64_t t_setup = now_ns();
  net::Simulator sim;
  obs::Registry& reg = sim_registry();
  sim.set_metrics(reg);
  core::ObservationLog log;
  core::AddressBook book;
  Topology topo(sim);
  const auto benign = [&book](const std::string& addr) {
    book.set(addr, core::benign_identity("addr:" + addr));
  };

  // Privacy Pass: issuer (RSA-1024) and a redeeming origin.
  benign("issuer.example");
  benign("pp-origin.example");
  pp::Issuer issuer("issuer.example", 1024, log, book, key_seed(0));
  pp::Origin pp_origin("pp-origin.example", "pp-origin.example",
                       issuer.public_key(), log, book);
  topo.add(issuer, kIssuer);
  topo.add(pp_origin, kOrigin);

  // ODoH: root -> com -> example.com hierarchy behind a caching target.
  const char* kRoot = "198.41.0.4";
  const char* kTld = "192.5.6.30";
  const char* kAuth = "192.0.2.53";
  for (const char* a : {kRoot, kTld, kAuth}) benign(a);
  benign("target.example");
  benign("proxy.example");
  dns::Zone root_zone("");
  root_zone.delegate("com", "a.gtld-servers.net", kTld);
  dns::Zone com_zone("com");
  com_zone.delegate("example.com", "ns1.example.com", kAuth);
  dns::Zone example_zone("example.com");
  for (int i = 0; i < kZoneNames; ++i) {
    example_zone.add_a(zone_name(i), dotted(zone_address(i)));
  }
  odoh::AuthorityNode root(kRoot, std::move(root_zone), log, book);
  odoh::AuthorityNode tld(kTld, std::move(com_zone), log, book);
  odoh::AuthorityNode auth(kAuth, std::move(example_zone), log, book);
  odoh::ResolverNode target("target.example", kRoot, log, book, key_seed(1));
  odoh::OdohProxy proxy("proxy.example", "target.example", log, book);
  for (auto* a : {&root, &tld, &auth}) topo.add(*a, kResolver);
  topo.add(target, kResolver);
  topo.add(proxy, kRelay);
  for (const char* a : {kRoot, kTld, kAuth}) {
    sim.connect("target.example", a, 2'000);
  }
  sim.connect("proxy.example", "target.example", 5'000);

  // Mix-net: a 3-hop chain (batch 1: low-latency onion routing) to one
  // receiver, whose deliveries complete the operations.
  std::vector<std::unique_ptr<mixnet::MixNode>> mixes;
  std::vector<mixnet::HopInfo> chain;
  for (int i = 0; i < kMixHops; ++i) {
    const std::string addr = "mix" + std::to_string(i) + ".example";
    benign(addr);
    mixes.push_back(std::make_unique<mixnet::MixNode>(addr, 1, 0, log, book,
                                                      key_seed(2 + i)));
    chain.push_back(mixnet::HopInfo{addr, mixes.back()->key().public_key});
    topo.add(*mixes.back(), kMix);
    if (i > 0) sim.connect(chain[i - 1].address, addr, 5'000);
  }
  benign("receiver.example");
  mixnet::Receiver receiver("receiver.example", log, book, key_seed(8));
  const mixnet::HopInfo receiver_hop{"receiver.example",
                                     receiver.key().public_key};
  sim.connect(chain.back().address, "receiver.example", 5'000);

  // MPR: two onion relays in front of an end-to-end encrypted origin.
  benign("mpr-relay1.example");
  benign("mpr-relay2.example");
  benign("mpr-origin.example");
  mpr::SecureOrigin mpr_origin("mpr-origin.example", origin_content, log,
                               book, key_seed(9));
  mpr::OnionRelay relay1("mpr-relay1.example", log, book, key_seed(10));
  mpr::OnionRelay relay2("mpr-relay2.example", log, book, key_seed(11));
  topo.add(mpr_origin, kOrigin);
  topo.add(relay1, kRelay);
  topo.add(relay2, kRelay);
  sim.connect("mpr-relay1.example", "mpr-relay2.example", 5'000);
  sim.connect("mpr-relay2.example", "mpr-origin.example", 5'000);
  const std::vector<mpr::RelayInfo> mpr_chain = {
      {"mpr-relay1.example", relay1.key().public_key},
      {"mpr-relay2.example", relay2.key().public_key}};

  // Per-slot clients. The Privacy Pass client reaches the origin over an
  // anonymity path, so its address is benign; the others are user
  // addresses.
  std::vector<std::unique_ptr<pp::Client>> pp_clients;
  std::vector<std::unique_ptr<odoh::StubClient>> stubs;
  std::vector<std::unique_ptr<mixnet::Sender>> senders;
  std::vector<std::unique_ptr<mpr::Client>> mpr_clients;
  std::vector<std::unique_ptr<XoshiroRng>> retry_rngs;
  std::vector<core::Party> users;
  for (int s = 0; s < kMixSlots; ++s) {
    const std::string account = "acct" + std::to_string(s);
    const std::string pp_addr = "ppc" + std::to_string(s) + ".example";
    benign(pp_addr);
    issuer.register_account(account);
    pp_clients.push_back(std::make_unique<pp::Client>(
        pp_addr, account, "issuer.example", issuer.public_key(), log,
        key_seed(16 + 4 * s)));
    topo.add(*pp_clients.back(), kClient);
    users.push_back(pp_addr);

    const std::string user = "user:s" + std::to_string(s);
    for (int g = 2; g <= 4; ++g) {
      const std::string addr = client_address(g, s);
      book.set(addr, core::sensitive_identity(user, "network"));
      users.push_back(addr);
    }
    stubs.push_back(std::make_unique<odoh::StubClient>(
        client_address(2, s), user, log, key_seed(17 + 4 * s)));
    senders.push_back(std::make_unique<mixnet::Sender>(
        client_address(3, s), user, log, key_seed(18 + 4 * s)));
    mpr_clients.push_back(std::make_unique<mpr::Client>(
        client_address(4, s), user, log, key_seed(19 + 4 * s)));
    topo.add(*stubs.back(), kClient);
    topo.add(*senders.back(), kClient);
    topo.add(*mpr_clients.back(), kClient);
    retry_rngs.push_back(std::make_unique<XoshiroRng>(key_seed(1'000 + s)));
  }

  // Light seeded loss, duplication and jitter on every link: enough to
  // exercise retries and receiver dedup, light enough that the bounded
  // retry policies recover every operation.
  net::FaultPlan plan(mix_seed(spec.seed, 3));
  plan.impair(net::Impairment{0.001, 0.01, 0.05, 2'000});
  sim.set_fault_plan(plan);

  // The flow plane, attached exactly as bench_tables attaches it.
  bench::FlowHarness flow(sim, log, users);

  systems::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_timeout_us = 200'000;
  policy.max_timeout_us = 1'600'000;
  // Mix-net sends are one-way, so reliability is blind redundancy: every
  // attempt is sent, and the receiver dedups.
  systems::RetryPolicy mix_policy = policy;
  mix_policy.max_attempts = 3;

  ChunkClock clock;
  OpTracker ops(kOps, clock);
  std::set<Bytes> spent_nonces;
  std::vector<pp::Token> tokens;
  std::size_t double_spends = 0;
  std::function<void(int, int)> issue;
  const auto finish_op = [&](int s, int k, bool ok) {
    {
      ScopedLayer harness(kHarness);
      ops.complete(static_cast<std::size_t>(s) * kMixOpsPerSlot + k, ok);
    }
    issue(s, k + 1);
  };

  issue = [&](int s, int k) {
    if (k >= kMixOpsPerSlot) return;
    const std::size_t op =
        static_cast<std::size_t>(s) * kMixOpsPerSlot + static_cast<std::size_t>(k);
    const MixOp& in = inputs[op];
    ops.issue(op);
    ScopedLayer client(kClient);
    switch (in.stack) {
      case Stack::kPrivacyPass:
        pp_clients[s]->request_token_reliable(
            sim, policy, [&, s, k, op](Result<pp::Token> token) {
              if (!token.ok()) {
                finish_op(s, k, false);
                return;
              }
              {
                ScopedLayer harness(kHarness);
                if (!spent_nonces.insert(token->nonce).second) ++double_spends;
                tokens.push_back(*token);
              }
              // The client files the token in its wallet only after this
              // callback returns, so the redemption runs as its own event.
              sim.at(sim.now(), [&, s, k, op] {
                ScopedLayer redeem(kClient);
                const bool sent = pp_clients[s]->access_reliable(
                    "pp-origin.example", inputs[op].text, sim, policy,
                    [&, s, k](Result<bool> served) {
                      finish_op(s, k, served.ok() && *served);
                    });
                if (!sent) finish_op(s, k, false);
              });
            });
        break;
      case Stack::kOdoh:
        stubs[s]->query_reliable(
            zone_name(in.name), odoh::Mode::kOdoh, "", target.key().public_key,
            "proxy.example", sim, policy,
            [&, s, k, name = in.name](Result<dns::Message> answer) {
              finish_op(s, k, answer.ok() && answer_matches(*answer, name));
            });
        break;
      case Stack::kMixnet:
        senders[s]->send_message_reliable(in.text, chain, receiver_hop, sim,
                                          mix_policy);
        break;
      case Stack::kMpr:
        // MPR has no reliable entry point; the retry layer drives fresh
        // circuits until the first verified response.
        systems::retry_run(
            sim, policy, *retry_rngs[s],
            [&, s, k, op](unsigned) {
              mpr_clients[s]->fetch_via_relays(
                  inputs[op].request, mpr_chain, "mpr-origin.example",
                  mpr_origin.key().public_key, sim,
                  [&, s, k, op](const http::Response& resp) {
                    if (ops.done(op)) return;
                    finish_op(s, k, resp.status == 200 &&
                                        resp.body == inputs[op].expected);
                  });
            },
            [&ops, op] { return ops.done(op); },
            [&, s, k](const systems::RetryError&) { finish_op(s, k, false); });
        break;
    }
  };

  // Mix-net completions surface at the receiver: each new delivery names
  // its operation and must match the message byte for byte.
  std::size_t delivered = 0;
  topo.add(receiver, kOrigin, [&] {
    while (delivered < receiver.deliveries().size()) {
      const std::string& msg = receiver.deliveries()[delivered++].message;
      const std::size_t op = std::stoul(msg.substr(2, msg.find('|') - 2));
      if (op >= kOps || ops.done(op)) continue;
      finish_op(static_cast<int>(op / kMixOpsPerSlot),
                static_cast<int>(op % kMixOpsPerSlot), msg == inputs[op].text);
    }
  });

  for (int s = 0; s < kMixSlots; ++s) {
    sim.at(static_cast<net::Time>(s) * 100, [&issue, s] { issue(s, 0); });
  }
  r.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  measure(sim, reg, spec, clock, ops, r, [&] {
    ops.finish(r);
    r.work.observations = static_cast<double>(log.size());
    r.work.flow_events = static_cast<double>(flow.ledger.events_recorded());
    r.cache_hits = static_cast<double>(target.cache_hits());
    r.cache_lookups =
        static_cast<double>(target.cache_hits() + target.resolutions());
    static constexpr const char* kStackNames[] = {"privacy pass", "odoh",
                                                  "mix-net", "mpr"};
    std::size_t failed_by_stack[4] = {};
    for (std::size_t op = 0; op < kOps; ++op) {
      if (!ops.succeeded(op)) ++failed_by_stack[static_cast<int>(inputs[op].stack)];
    }
    for (int st = 0; st < 4; ++st) {
      if (failed_by_stack[st] > 0) {
        r.problem(std::string(kStackNames[st]) + ": " +
                  std::to_string(failed_by_stack[st]) + " operation(s) failed");
      }
    }
    std::size_t round_faults = 0;
    if (!flow.monitor.violations().empty()) {
      r.problem("decoupling monitor: " +
                std::to_string(flow.monitor.violations().size()) +
                " violation(s), first by " +
                flow.monitor.violations().front().party);
      ++round_faults;
    }
    if (double_spends > 0 || pp_origin.rejected() > 0) {
      r.problem("privacy pass: " + std::to_string(double_spends) +
                " reissued nonce(s), " + std::to_string(pp_origin.rejected()) +
                " rejected redemption(s)");
      ++round_faults;
    }
    // A round-level fault cannot be pinned on one operation: fail them all.
    if (round_faults > 0) r.failed = r.attempted;
  });

  // Every issued token must verify under the issuer key. Checked after the
  // measured phase so the benchmark's own RSA work stays out of the counts.
  std::size_t bad_tokens = 0;
  for (const pp::Token& t : tokens) {
    if (!crypto::blind_verify(issuer.public_key(), t.nonce, t.signature)) {
      ++bad_tokens;
    }
  }
  if (bad_tokens > 0) {
    r.problem("privacy pass: " + std::to_string(bad_tokens) +
              " token(s) fail verification");
    r.failed = r.attempted;
  }
  return r;
}

}  // namespace dcpl::e2ebench
