// e2ebench: the repository's end-to-end benchmark driver.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs rounds of one workload until --seconds have passed (at least three
// rounds). Round 0 is a warm-up: its set-up time and correctness count, its
// other timings do not. The inputs of every round derive from --seed alone,
// so every round replays the same events: the work counters of a seed are
// exact and repeat across runs, and the end-to-end timings are read off the
// best chunk clock (ChunkClock). With --trace 0 the last stdout line is a
// JSON object with the end-to-end metrics; with --trace 1 rounds alternate
// between traced and plain, and the JSON carries the per-layer metrics
// instead.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/blind_rsa.hpp"
#include "crypto/rsa.hpp"
#include "crypto/x25519.hpp"
#include "harness.hpp"
#include "hpke/hpke.hpp"
#include "obs/metrics.hpp"

namespace dcpl::e2ebench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0) || a.seconds > 120) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a.trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> kWorkloads = {
      {"ohttp_real", run_ohttp_real},
      {"stack_mix", run_stack_mix},
      {"scale_serial", run_scale_serial}};
  return kWorkloads;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile (the usual "type 7" definition).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The CPU brand string, read with cpuid so the benchmark reads no file
/// outside its checkout.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.resize(brand.find('\0') == std::string::npos ? brand.size()
                                                       : brand.find('\0'));
    brand.erase(0, brand.find_first_not_of(' '));
    if (!brand.empty()) return brand;
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Wall ns per call of the crypto entry points the stacks use, timed
/// in-process on this host (traced runs only).
struct CryptoCosts {
  double x25519 = 0, hpke_seal = 0, hpke_open = 0, aead = 0;
  double rsa_blind_sign = 0, rsa_verify = 0;
};

template <class F>
double ns_per_call(F&& f) {
  constexpr double kBudgetNs = 60e6;
  std::uint64_t calls = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t t = t0;
  while (t - t0 < kBudgetNs || calls < 8) {
    f();
    ++calls;
    t = now_ns();
  }
  return static_cast<double>(t - t0) / static_cast<double>(calls);
}

CryptoCosts calibrate_crypto(std::uint64_t seed) {
  XoshiroRng rng(mix_seed(seed, 7));
  CryptoCosts c;
  const Bytes scalar = rng.bytes(32);
  const Bytes point = crypto::x25519_public(rng.bytes(32));
  c.x25519 = ns_per_call([&] { (void)crypto::x25519(scalar, point); });
  const hpke::KeyPair kp = hpke::KeyPair::generate(rng);
  const Bytes msg = rng.bytes(256);
  const Bytes info = to_bytes("e2ebench");
  const Bytes sealed = hpke::seal(kp.public_key, info, {}, msg, rng);
  c.hpke_seal = ns_per_call([&] { (void)hpke::seal(kp.public_key, info, {}, msg, rng); });
  c.hpke_open = ns_per_call([&] { (void)hpke::open(kp, info, {}, sealed); });
  const Bytes key = rng.bytes(32);
  const Bytes nonce = rng.bytes(12);
  c.aead = ns_per_call([&] { (void)crypto::aead_seal(key, nonce, {}, msg); });
  const crypto::RsaPrivateKey rsa = crypto::rsa_generate(1024, rng);
  const Bytes token = rng.bytes(32);
  const crypto::BlindingState blinded = crypto::blind(rsa.pub, token, rng);
  const Bytes blind_sig = crypto::blind_sign(rsa, blinded.blinded_message).value();
  const Bytes sig = crypto::finalize(rsa.pub, token, blinded, blind_sig).value();
  c.rsa_blind_sign = ns_per_call(
      [&] { (void)crypto::blind_sign(rsa, blinded.blinded_message); });
  c.rsa_verify =
      ns_per_call([&] { (void)crypto::blind_verify(rsa.pub, token, sig); });
  return c;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// The best chunk clock: each chunk of the round timeline at the fastest
/// wall time any measured round took for it (ChunkClock).
class BestClock {
 public:
  /// Folds in one measured round's chunk times.
  void add(const std::vector<double>& chunks) {
    if (best_.empty()) {
      best_ = chunks;
    } else if (chunks.size() != best_.size()) {
      timelines_match_ = false;
    } else {
      for (std::size_t j = 0; j < best_.size(); ++j) {
        best_[j] = std::min(best_[j], chunks[j]);
      }
    }
  }
  bool timelines_match() const { return timelines_match_; }
  /// starts()[j] is the time before chunk j; the last entry is the total.
  std::vector<double> starts() const {
    std::vector<double> start(1, 0.0);
    for (double t : best_) start.push_back(start.back() + t);
    return start;
  }

 private:
  std::vector<double> best_;
  bool timelines_match_ = true;
};

std::vector<Metric> end_to_end(const std::vector<RoundResult>& rounds,
                               const BestClock& best, double rss_mb,
                               std::uint64_t attempted, std::uint64_t failed) {
  // Every round replays the same events, so the throughputs and latencies
  // are read off round 1's timeline with each chunk at its best time over
  // the measured rounds. setup_s is the median over all rounds, warm-up
  // included.
  std::vector<double> setup;
  for (const RoundResult& r : rounds) setup.push_back(r.setup_s);
  const std::vector<double> start = best.starts();
  const double total = start.back();
  const RoundResult& ref = rounds.at(1);
  // An operation sits at the middle of the chunk it was issued in and of
  // the chunk it completed in.
  std::vector<double> op_ms;
  for (const auto& c : ref.op_chunks) {
    if (c[1] + 1 >= start.size()) continue;
    op_ms.push_back(
        0.5 * (start[c[1]] + start[c[1] + 1] - start[c[0]] - start[c[0] + 1]) *
        1e3);
  }
  std::printf("op_wall: %zu samples, one measured round's operations on the "
              "best chunk clock of %zu rounds (%zu chunks, %.6f s)\n",
              op_ms.size(), rounds.size() - 1, start.size() - 1, total);
  return {
      {"setup_s", "s", median(setup)},
      {"ops_per_s", "1/s",
       ratio(static_cast<double>(ref.attempted - ref.failed), total)},
      {"events_per_s", "1/s", ratio(ref.work.events, total)},
      {"op_wall_p50_ms", "ms", quantile(op_ms, 0.50)},
      {"op_wall_p99_ms", "ms", quantile(op_ms, 0.99)},
      {"completed_share", "ratio",
       ratio(static_cast<double>(attempted - failed),
             static_cast<double>(attempted))},
      {"peak_rss_mb", "MB", rss_mb},
  };
}

std::vector<Metric> per_layer(const std::vector<RoundResult>& rounds,
                              const CryptoCosts& cost) {
  // Work counters come from the first traced round (round 1): every round
  // replays the same seeded inputs, so it is exact and repeatable. Times
  // are summed over every traced round; overhead compares traced rounds
  // with the plain rounds between them.
  const RoundResult& first = rounds.at(1);
  const WorkCounters& w = first.work;
  const double ops = static_cast<double>(first.attempted);
  double traced_ops = 0, events = 0, measured = 0;
  std::array<double, kLayerCount> layer{};
  std::vector<double> traced_run, plain_run;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    if (i % 2 == 0) {
      plain_run.push_back(r.run_s);
      continue;
    }
    traced_run.push_back(r.run_s);
    traced_ops += static_cast<double>(r.attempted);
    events += r.work.events;
    measured += r.measured_s;
    for (int l = 0; l < kLayerCount; ++l) layer[l] += r.layer_s[l];
  }
  double covered = layer[kNet];
  for (int l = kClient; l <= kMix; ++l) covered += layer[l];
  const double crypto_s =
      (w.x25519 * cost.x25519 + w.aead * cost.aead +
       w.rsa_blind_sign * cost.rsa_blind_sign + w.rsa_verify * cost.rsa_verify) *
      1e-9 * static_cast<double>(traced_run.size());
  const auto busy_us = [&](Layer l) { return ratio(layer[l] * 1e6, traced_ops); };

  std::printf("layers (traced rounds, s):");
  for (int l = 0; l < kLayerCount; ++l) {
    std::printf(" %s=%.4f", layer_name(static_cast<Layer>(l)), layer[l]);
  }
  std::printf(" measured=%.4f\n", measured);

  return {
      {"net.events_per_op", "count", ratio(w.events, ops)},
      {"net.self_ns_per_event", "ns", ratio(layer[kNet] * 1e9, events)},
      {"net.peak_queue_depth", "count", w.peak_queue},
      {"net.bytes_per_op", "B", ratio(w.bytes, ops)},
      {"net.faults.injected_per_op", "count", ratio(w.faults, ops)},
      {"crypto.x25519.calls_per_op", "count", ratio(w.x25519, ops)},
      {"crypto.x25519.ns_per_call", "ns", cost.x25519},
      {"hpke.seal.calls_per_op", "count", ratio(w.hpke_seal, ops)},
      {"hpke.seal.ns_per_call", "ns", cost.hpke_seal},
      {"hpke.open.calls_per_op", "count", ratio(w.hpke_open, ops)},
      {"hpke.open.ns_per_call", "ns", cost.hpke_open},
      {"crypto.rsa_blind_sign.calls_per_op", "count", ratio(w.rsa_blind_sign, ops)},
      {"crypto.rsa_blind_sign.ns_per_call", "ns", cost.rsa_blind_sign},
      {"crypto.rsa_verify.ns_per_call", "ns", cost.rsa_verify},
      {"crypto.aead.calls_per_op", "count", ratio(w.aead, ops)},
      {"crypto.share_of_wall", "ratio", ratio(crypto_s, measured)},
      {"systems.client.busy_us_per_op", "us", busy_us(kClient)},
      {"systems.relay.busy_us_per_op", "us", busy_us(kRelay)},
      {"systems.gateway.busy_us_per_op", "us", busy_us(kGateway)},
      {"systems.origin.busy_us_per_op", "us", busy_us(kOrigin)},
      {"systems.issuer.busy_us_per_op", "us", busy_us(kIssuer)},
      {"systems.resolver.busy_us_per_op", "us", busy_us(kResolver)},
      {"systems.mix.busy_us_per_op", "us", busy_us(kMix)},
      {"systems.retry.resends_per_op", "count", ratio(w.resends, ops)},
      {"dns.resolver.cache_hit_share", "ratio",
       ratio(first.cache_hits, first.cache_lookups)},
      {"core.observations_per_op", "count", ratio(w.observations, ops)},
      {"obs.flow.events_per_op", "count", ratio(w.flow_events, ops)},
      {"common.allocs_per_op", "count", ratio(w.allocs, ops)},
      {"common.alloc_bytes_per_op", "B", ratio(w.alloc_bytes, ops)},
      {"trace.closure_share", "ratio", ratio(covered, measured)},
      {"trace.overhead_share", "ratio",
       ratio(median(traced_run), median(plain_run))},
  };
}

int run(const Args& args) {
  const Workload workload = workloads().at(args.workload);
  obs::Registry ops_registry;
  obs::set_op_registry(&ops_registry);

  std::printf("host: {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\"}\n",
              std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), E2EBENCH_COMPILER,
              E2EBENCH_BUILD_TYPE);
  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  std::vector<RoundResult> rounds;
  BestClock best;
  double rss_mb = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t problems = 0;
  const std::uint64_t t0 = now_ns();
  const auto elapsed = [t0] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  while (rounds.size() < 3 || elapsed() < args.seconds) {
    RoundSpec spec;
    spec.seed = args.seed;
    spec.round = static_cast<int>(rounds.size());
    spec.traced = args.trace && spec.round % 2 == 1;
    rounds.push_back(workload(spec));
    RoundResult& r = rounds.back();
    attempted += r.attempted;
    failed += r.failed;
    std::printf("round %d%s: setup %.6f s, run %.6f s, %.1f ops/s, "
                "%llu failed\n",
                spec.round, spec.traced ? " (traced)" : "", r.setup_s, r.run_s,
                ratio(static_cast<double>(r.attempted - r.failed), r.run_s),
                static_cast<unsigned long long>(r.failed));
    for (const std::string& p : r.problems) {
      std::printf("round %d: %s\n", spec.round, p.c_str());
    }
    problems += r.problems.size();
    // Only round 1's operation spans are read, and the chunk times fold into
    // the best clock at once, so memory does not grow with the rounds.
    if (spec.round >= 1) best.add(r.chunk_s);
    // The heap's high-water mark creeps up over many rounds, so peak RSS is
    // read after round 1, at the same point of every run.
    if (spec.round == 1) rss_mb = peak_rss_mb();
    r.chunk_s = {};
    if (spec.round != 1) r.op_chunks = {};
  }
  std::printf("rounds: %zu, ops: %llu attempted, %llu failed\n", rounds.size(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  // Calibrated after the rounds, on a warm core, like the rounds it prices.
  const std::vector<Metric> metrics =
      args.trace ? per_layer(rounds, calibrate_crypto(args.seed))
                 : end_to_end(rounds, best, rss_mb, attempted, failed);
  if (!best.timelines_match()) {
    std::printf("rounds differ in virtual timeline length\n");
    ++problems;
  }
  for (const Metric& m : metrics) {
    std::printf("  %-38s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  obs::set_op_registry(nullptr);
  print_result(failed == 0 && problems == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace dcpl::e2ebench

int main(int argc, char** argv) {
  dcpl::e2ebench::Args args;
  if (!dcpl::e2ebench::parse_args(argc, argv, args) ||
      dcpl::e2ebench::workloads().count(args.workload) == 0) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <ohttp_real|stack_mix|"
                 "scale_serial> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  return dcpl::e2ebench::run(args);
}
