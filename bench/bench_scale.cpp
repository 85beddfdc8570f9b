// Million-user scale sweep for the simulator hot path (workload in
// scale_workload.hpp, shared with bench_profile). The sweep runs
// N = 1k -> 1M (clipped by --users, default 100k) and reports events/sec,
// bytes/sec, peak event-queue depth, and per-message overhead vs. mix hop
// count into the dcpl-bench-report/2 schema.
//
// Each sweep point runs against its own scope of the *global* registry
// ("scale.n<N>"), so the report's "metrics" section carries real per-size
// simulator metrics. (The seed routed every point into a local registry
// that died with the point, which left the committed BENCH_scale.json with
// an all-zero metrics section.)
//
// --flow re-runs every sweep point twice more with an obs::FlowLedger
// wiretapped onto the delivery path (one exposure per delivery): once with
// recording off (dedup + fold + monitor hooks only) and once with the ring
// recording, reporting the throughput overhead of each against the
// ledger-free baseline. Flow runs use throwaway registries — they are
// overhead probes, not the point's record.
//
// --shards <n> appends a sharded-engine sweep at the largest population
// point: the same workload re-runs at shard counts 2, 4, ... n on the
// conservative-window parallel engine, reporting per-count throughput,
// speedup vs. the serial point, and a "shards" report section with the
// per-shard event/delivery/cross-send split (and contention telemetry:
// busy vs barrier-wait time, mailbox backpressure, cross-shard traffic)
// of the largest count.
//
// The largest serial point and every sharded point additionally run with
// the request-tracing plane attached (net::LatencyTracer): per-protocol
// end-to-end virtual-latency percentiles and the per-hop stage breakdown
// go to the "latency" report section and to n<cap>_latency_* values the
// baseline gate compares lower-is-better; --waterfall <path> writes the
// sampled per-request spans as a Chrome trace. Because trace ids come from
// deterministic counters and the recorders are commutative, every sharded
// point's percentiles must be bit-identical to the serial point's — checked
// per shard count.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "net/tracing.hpp"
#include "obs/metrics.hpp"
#include "report_util.hpp"
#include "scale_workload.hpp"

namespace {

namespace net = dcpl::net;
namespace obs = dcpl::obs;
namespace scale = dcpl::bench::scale;

bool parse_flow(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--flow") == 0) return true;
  }
  return false;
}

std::string parse_waterfall(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--waterfall") == 0) return argv[i + 1];
  }
  return {};
}

// --affinity-from <report.json> (or --affinity-from=<report.json>): seed the
// min-cut partitioner with the traffic matrix a previous sharded run
// recorded in its report's "shards" section.
std::string parse_affinity_from(int argc, char** argv) {
  constexpr const char* kFlag = "--affinity-from";
  const std::size_t flag_len = std::strlen(kFlag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], kFlag) == 0 && i + 1 < argc) return argv[i + 1];
    if (std::strncmp(argv[i], kFlag, flag_len) == 0 &&
        argv[i][flag_len] == '=') {
      return argv[i] + flag_len + 1;
    }
  }
  return {};
}

// Pulls shards.per_shard[*].traffic out of a prior report. Returns an empty
// matrix (and warns) on any shape problem — a stale or foreign report must
// degrade to the unseeded partitioner, not kill the bench.
std::vector<std::vector<std::uint64_t>> load_traffic_matrix(
    const std::string& path) {
  std::vector<std::vector<std::uint64_t>> matrix;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_scale: cannot open --affinity-from %s\n",
                 path.c_str());
    return matrix;
  }
  std::string body;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, got);
  std::fclose(f);
  obs::JsonValue root;
  const obs::JsonValue* shards = nullptr;
  const obs::JsonValue* per_shard = nullptr;
  if (!obs::JsonParser::parse(body, root) ||
      (shards = root.find("shards")) == nullptr ||
      (per_shard = shards->find("per_shard")) == nullptr ||
      !per_shard->is_array()) {
    std::fprintf(stderr,
                 "bench_scale: no shards.per_shard section in %s; "
                 "running the partitioner unseeded\n",
                 path.c_str());
    return matrix;
  }
  for (const obs::JsonValue& row : per_shard->array) {
    const obs::JsonValue* traffic = row.find("traffic");
    if (traffic == nullptr || !traffic->is_array()) {
      matrix.clear();
      std::fprintf(stderr,
                   "bench_scale: %s has per_shard entries without traffic "
                   "rows; running the partitioner unseeded\n",
                   path.c_str());
      return matrix;
    }
    std::vector<std::uint64_t> cells;
    for (const obs::JsonValue& cell : traffic->array) {
      cells.push_back(cell.is_number() && cell.number > 0
                          ? static_cast<std::uint64_t>(cell.number)
                          : 0);
    }
    matrix.push_back(std::move(cells));
  }
  return matrix;
}

// Share of sends that crossed a shard boundary, over all sends.
double cross_share_pct(const scale::PointResult& r) {
  std::uint64_t cross = 0, local = 0;
  for (std::uint64_t c : r.shard_cross_sends) cross += c;
  for (std::uint64_t l : r.shard_local_sends) local += l;
  const std::uint64_t total = cross + local;
  return total > 0 ? 100.0 * static_cast<double>(cross) /
                         static_cast<double>(total)
                   : 0.0;
}

double overhead_pct(double baseline, double with_ledger) {
  return baseline > 0 ? (baseline - with_ledger) / baseline * 100.0 : 0.0;
}

// Name-keyed digest of one tracer's end-to-end recorders. Protocol ids are
// interned per run (and in nondeterministic order on the sharded engine),
// so cross-run comparison goes through the name table, sorted.
struct ProtoLatency {
  std::string name;
  std::uint64_t count = 0, p50 = 0, p99 = 0, p999 = 0, max = 0;
  bool operator==(const ProtoLatency&) const = default;
};

std::vector<ProtoLatency> latency_digest(const net::LatencyTracer& tracer,
                                         const std::vector<std::string>& names) {
  std::vector<ProtoLatency> out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const obs::LatencyRecorder& r =
        tracer.e2e(static_cast<net::ProtocolId>(i));
    if (r.count() == 0) continue;
    out.push_back({names[i], r.count(), r.quantile(0.50), r.quantile(0.99),
                   r.quantile(0.999), r.max()});
  }
  std::sort(out.begin(), out.end(),
            [](const ProtoLatency& a, const ProtoLatency& b) {
              return a.name < b.name;
            });
  return out;
}

void stage_json(obs::JsonWriter& w, const char* name, const char* unit,
                const obs::LatencyRecorder& r) {
  w.key(name);
  w.begin_object();
  w.kv("unit", unit);
  w.kv("count", static_cast<double>(r.count()));
  w.kv("p50", static_cast<double>(r.quantile(0.50)));
  w.kv("p99", static_cast<double>(r.quantile(0.99)));
  w.kv("max", static_cast<double>(r.max()));
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  dcpl::bench::Report report("bench_scale", argc, argv);
  const std::size_t cap = scale::parse_users(argc, argv);
  const std::vector<std::size_t> sweep = scale::sweep_sizes(cap);

  std::printf("== bench_scale: OHTTP + mixnet wire patterns, %zu-user cap\n",
              cap);
  std::printf("  %10s %10s %12s %14s %12s %10s\n", "users", "wall_ms",
              "events", "events/sec", "bytes/sec", "peak_q");

  const bool flow = parse_flow(argc, argv);
  const std::string waterfall_path = parse_waterfall(argc, argv);
  bool ok = true;
  scale::PointResult cap_serial;  // serial reference for the shard sweep
  net::LatencyTracer cap_tracer;  // tracing plane at the largest point
  std::vector<std::string> cap_names;
  std::vector<ProtoLatency> cap_latency;
  for (std::size_t n : sweep) {
    // Snapshot point: metrics land in a per-size scope of the global
    // registry, which Report::finish serializes as the "metrics" section.
    scale::PointOptions opts;
    opts.registry = &obs::global_registry()
                         .scope("scale")
                         .scope("n" + std::to_string(n));
    if (n == sweep.back()) {
      opts.tracer = &cap_tracer;
      opts.on_done = [&cap_names](dcpl::net::Simulator& sim,
                                  const scale::Tally&) {
        cap_names = sim.protocol_names();
      };
    }
    const scale::PointResult r = scale::run_point(n, opts);
    if (n == sweep.back()) cap_serial = r;
    std::printf("  %10zu %10.1f %12.0f %14.0f %12.0f %10.0f\n", r.users,
                r.wall_ms, r.events, r.events_per_sec, r.bytes_per_sec,
                r.peak_queue_depth);
    const std::string tag = "n" + std::to_string(n) + "_";
    report.value(tag + "wall_ms", r.wall_ms);
    report.value(tag + "sim_ms", r.sim_ms);
    report.value(tag + "events", r.events);
    report.value(tag + "events_per_sec", r.events_per_sec);
    report.value(tag + "bytes_per_sec", r.bytes_per_sec);
    report.value(tag + "peak_queue_depth", r.peak_queue_depth);
    ok &= report.check(tag + "all_ohttp_responses", r.ohttp_complete);
    ok &= report.check(tag + "all_mix_delivered", r.mix_complete);
    ok &= report.check(tag + "mix_overhead_exact", r.overhead_exact);

    if (flow) {
      obs::FlowLedger idle;
      idle.set_recording(false);
      scale::PointOptions off_opts;
      off_opts.ledger = &idle;
      const scale::PointResult r_off = scale::run_point(n, off_opts);
      obs::FlowLedger recording;
      scale::PointOptions on_opts;
      on_opts.ledger = &recording;
      const scale::PointResult r_on = scale::run_point(n, on_opts);
      std::printf("  %10s %10.1f %12s %14.0f  ledger off (%.1f%% overhead)\n",
                  "", r_off.wall_ms, "", r_off.events_per_sec,
                  overhead_pct(r.events_per_sec, r_off.events_per_sec));
      std::printf("  %10s %10.1f %12s %14.0f  ledger on  (%.1f%% overhead, "
                  "%llu events, %llu wrapped)\n",
                  "", r_on.wall_ms, "", r_on.events_per_sec,
                  overhead_pct(r.events_per_sec, r_on.events_per_sec),
                  static_cast<unsigned long long>(recording.events_recorded()),
                  static_cast<unsigned long long>(recording.dropped()));
      report.value(tag + "flow_off_events_per_sec", r_off.events_per_sec);
      report.value(tag + "flow_on_events_per_sec", r_on.events_per_sec);
      report.value(tag + "flow_off_overhead_pct",
                   overhead_pct(r.events_per_sec, r_off.events_per_sec));
      report.value(tag + "flow_on_overhead_pct",
                   overhead_pct(r.events_per_sec, r_on.events_per_sec));
      report.value(tag + "flow_ledger_events",
                   static_cast<double>(recording.events_recorded()));
      report.value(tag + "flow_ledger_wrapped",
                   static_cast<double>(recording.dropped()));
      // Same deliveries under either ledger, and the idle ledger must have
      // counted without retaining (flight recorder off).
      ok &= report.check(tag + "flow_runs_complete",
                         r_off.ohttp_complete && r_off.mix_complete &&
                             r_on.ohttp_complete && r_on.mix_complete);
      ok &= report.check(tag + "flow_ledger_saw_traffic",
                         idle.events_recorded() > 0 &&
                             idle.events_recorded() ==
                                 recording.events_recorded() &&
                             idle.size() == 0);
    }
  }

  // Latency section from the cap point's tracer: per-protocol end-to-end
  // virtual percentiles plus the per-hop stage breakdown. The e2e numbers
  // are virtual-time differences — deterministic for the workload — so
  // they double as baseline-gated values (lower is better). Wall-clock
  // crypto/wire stages come from the global stage registry; this workload
  // runs wire-pattern replicas with no crypto, so those counts are zero
  // here and populate in the system benches.
  cap_latency = latency_digest(cap_tracer, cap_names);
  {
    const std::string ntag = "n" + std::to_string(cap) + "_";
    std::printf("== end-to-end latency at %zu users (virtual us)\n", cap);
    std::printf("  %10s %12s %10s %10s %10s %10s\n", "protocol", "count",
                "p50", "p99", "p99.9", "max");
    obs::JsonWriter w;
    w.begin_object();
    w.kv("users", static_cast<double>(cap));
    w.kv("waterfall_period",
         static_cast<double>(cap_tracer.waterfall_period()));
    w.kv("waterfall_spans", static_cast<double>(cap_tracer.span_count()));
    w.kv("waterfall_dropped",
         static_cast<double>(cap_tracer.spans_dropped()));
    w.key("protocols");
    w.begin_object();
    for (const ProtoLatency& p : cap_latency) {
      std::printf("  %10s %12llu %10llu %10llu %10llu %10llu\n",
                  p.name.c_str(), static_cast<unsigned long long>(p.count),
                  static_cast<unsigned long long>(p.p50),
                  static_cast<unsigned long long>(p.p99),
                  static_cast<unsigned long long>(p.p999),
                  static_cast<unsigned long long>(p.max));
      w.key(p.name);
      w.begin_object();
      w.kv("count", static_cast<double>(p.count));
      w.kv("p50_us", static_cast<double>(p.p50));
      w.kv("p99_us", static_cast<double>(p.p99));
      w.kv("p999_us", static_cast<double>(p.p999));
      w.kv("max_us", static_cast<double>(p.max));
      w.end_object();
      const std::string vtag = ntag + "latency_" + p.name + "_";
      report.value(vtag + "p50_us", static_cast<double>(p.p50));
      report.value(vtag + "p99_us", static_cast<double>(p.p99));
      report.value(vtag + "p999_us", static_cast<double>(p.p999));
      report.value(vtag + "max_us", static_cast<double>(p.max));
    }
    w.end_object();
    w.key("stages");
    w.begin_object();
    stage_json(w, "queue_wait", "us", cap_tracer.stage_queue_wait());
    stage_json(w, "link", "us", cap_tracer.stage_link());
    stage_json(w, "crypto_seal", "ns",
               obs::stage_recorder(obs::Stage::kCryptoSeal));
    stage_json(w, "crypto_open", "ns",
               obs::stage_recorder(obs::Stage::kCryptoOpen));
    stage_json(w, "wire_frame", "ns",
               obs::stage_recorder(obs::Stage::kWireFrame));
    w.end_object();
    w.end_object();
    report.section("latency", w.take());
    // Every OHTTP round trip terminates at its client and every mix send
    // at the sink — one end-to-end sample each, nothing dropped or
    // double-counted.
    std::uint64_t e2e_total = 0;
    for (const ProtoLatency& p : cap_latency) e2e_total += p.count;
    ok &= report.check(ntag + "latency_all_requests_traced",
                       e2e_total == 2 * static_cast<std::uint64_t>(cap));
  }
  if (!waterfall_path.empty()) {
    if (!obs::write_file(waterfall_path,
                         cap_tracer.to_chrome_json(cap_names))) {
      std::fprintf(stderr, "bench_scale: cannot write waterfall %s\n",
                   waterfall_path.c_str());
      ok = false;
    }
  }

  // Sharded sweep at the cap point: same workload, conservative-window
  // parallel engine, each shard count run under BOTH placement policies —
  // the id-modulo seed and the traffic-aware min-cut partitioner (tentpole
  // comparison: cross-shard send share and barrier rounds must drop under
  // min-cut). Aggregate behaviour must be unchanged either way — identical
  // event count, every OHTTP round-trip and mix send completing — while
  // the per-shard split goes to the "shards" report section.
  const std::uint32_t shard_cap = scale::parse_shards(argc, argv);
  if (shard_cap > 1) {
    const std::string affinity_from = parse_affinity_from(argc, argv);
    std::vector<std::vector<std::uint64_t>> seed_traffic;
    if (!affinity_from.empty()) {
      seed_traffic = load_traffic_matrix(affinity_from);
      if (!seed_traffic.empty()) {
        std::printf("== partitioner seeded from %s (%zux%zu traffic)\n",
                    affinity_from.c_str(), seed_traffic.size(),
                    seed_traffic[0].size());
      }
    }
    std::printf("== sharded engine at %zu users\n", cap);
    std::printf("  %10s %8s %10s %14s %10s %10s %12s %8s\n", "shards",
                "policy", "wall_ms", "events/sec", "speedup", "windows",
                "cross_sends", "cross%");
    const std::string ntag = "n" + std::to_string(cap) + "_";
    // The serial point anchors the scaling curve as its 1-shard entry.
    report.value(ntag + "s1_wall_ms", cap_serial.wall_ms);
    report.value(ntag + "s1_events_per_sec", cap_serial.events_per_sec);
    report.value(ntag + "s1_cross_sends_pct", 0.0);
    std::string shards_json;
    for (std::uint32_t s : scale::shard_counts(shard_cap)) {
      const std::string tag = ntag + "s" + std::to_string(s) + "_";
      scale::PointResult modulo_r;  // placement-comparison anchor
      scale::PointResult auto_r;
      for (const bool auto_affinity : {false, true}) {
        scale::PointOptions opts;
        opts.registry = &obs::global_registry()
                             .scope("scale")
                             .scope("n" + std::to_string(cap) + "_s" +
                                    std::to_string(s) +
                                    (auto_affinity ? "_auto" : ""));
        opts.shards = s;
        if (auto_affinity) {
          opts.affinity = net::Simulator::AffinityPolicy::kMinCut;
          opts.affinity_traffic = seed_traffic;
        }
        net::LatencyTracer shard_tracer;
        std::vector<std::string> shard_names;
        opts.tracer = &shard_tracer;
        opts.on_done = [&shard_names](dcpl::net::Simulator& sim,
                                      const scale::Tally&) {
          shard_names = sim.protocol_names();
        };
        const scale::PointResult r = scale::run_point(cap, opts);
        (auto_affinity ? auto_r : modulo_r) = r;
        const double speedup =
            cap_serial.events_per_sec > 0
                ? r.events_per_sec / cap_serial.events_per_sec
                : 0.0;
        std::uint64_t cross = 0, delivered = 0;
        for (std::uint64_t c : r.shard_cross_sends) cross += c;
        for (std::uint64_t d : r.shard_deliveries) delivered += d;
        const double cross_pct = cross_share_pct(r);
        std::printf("  %10u %8s %10.1f %14.0f %9.2fx %10llu %12llu %7.1f%%\n",
                    r.shards, auto_affinity ? "min-cut" : "modulo", r.wall_ms,
                    r.events_per_sec, speedup,
                    static_cast<unsigned long long>(r.windows),
                    static_cast<unsigned long long>(cross), cross_pct);
        // The id-modulo run keeps the seed's unprefixed key names (so old
        // baselines stay comparable); the min-cut run adds the auto_
        // family next to them.
        const std::string ptag = auto_affinity ? tag + "auto_" : tag;
        report.value(ptag + "wall_ms", r.wall_ms);
        report.value(ptag + "events_per_sec", r.events_per_sec);
        report.value(ptag + "speedup_vs_serial", speedup);
        report.value(ptag + "windows", static_cast<double>(r.windows));
        report.value(ptag + "cross_sends", static_cast<double>(cross));
        report.value(ptag + "cross_sends_pct", cross_pct);
        ok &= report.check(ptag + "run_complete",
                           r.ohttp_complete && r.mix_complete &&
                               r.overhead_exact);
        ok &= report.check(ptag + "event_count_matches_serial",
                           r.events == cap_serial.events);
        ok &= report.check(ptag + "deliveries_sum_to_total",
                           delivered == r.total_deliveries);
        ok &= report.check(ptag + "lookahead_positive", r.lookahead_us > 0);
        // Bit-identical percentiles vs the serial cap point: trace ids come
        // from deterministic counters and recorder merging is a commutative
        // bucket add, so the sharded engine must reproduce the serial
        // latency distribution exactly — any drift is a lost or duplicated
        // delivery the aggregate counters could mask.
        ok &= report.check(ptag + "latency_matches_serial",
                           latency_digest(shard_tracer, shard_names) ==
                               cap_latency);
      }

      // Tentpole yield, gated where the acceptance bar sits (4 shards):
      // the traffic-aware partition must cut the cross-shard send share by
      // at least 30% and spend fewer barrier rounds than id-modulo.
      const double modulo_pct = cross_share_pct(modulo_r);
      const double auto_pct = cross_share_pct(auto_r);
      const double reduction_pct =
          modulo_pct > 0 ? (modulo_pct - auto_pct) / modulo_pct * 100.0 : 0.0;
      report.value(tag + "cross_reduction_pct", reduction_pct);
      if (s == 4) {
        ok &= report.check(tag + "auto_cross_reduction_at_least_30pct",
                           reduction_pct >= 30.0);
        ok &= report.check(tag + "auto_windows_reduced",
                           auto_r.windows < modulo_r.windows);
      }

      // The largest count's per-shard split becomes the report section.
      // Headline and per_shard (including traffic rows) come from the
      // id-modulo run: the recorded n x n matrix is then labeled by
      // placement-independent modulo classes, which is exactly the space
      // --affinity-from seeding maps node ids into. The min-cut run's
      // numbers ride in "auto" for the placement comparison.
      obs::JsonWriter w;
      w.begin_object();
      w.kv("count", static_cast<double>(modulo_r.shards));
      w.kv("users", static_cast<double>(modulo_r.users));
      w.kv("policy", "modulo");
      w.kv("lookahead_us", modulo_r.lookahead_us);
      w.kv("windows", static_cast<double>(modulo_r.windows));
      w.kv("total_deliveries",
           static_cast<double>(modulo_r.total_deliveries));
      w.kv("cross_sends_pct", modulo_pct);
      w.key("auto");
      w.begin_object();
      w.kv("policy", "min_cut");
      w.kv("lookahead_us", auto_r.lookahead_us);
      w.kv("windows", static_cast<double>(auto_r.windows));
      w.kv("cross_sends_pct", auto_pct);
      w.kv("cross_reduction_pct", reduction_pct);
      w.end_object();
      w.key("per_shard");
      w.begin_array();
      for (std::size_t i = 0; i < modulo_r.shard_events.size(); ++i) {
        const scale::PointResult& r = modulo_r;
        w.begin_object();
        w.kv("shard", static_cast<double>(i));
        w.kv("events", static_cast<double>(r.shard_events[i]));
        w.kv("deliveries", static_cast<double>(r.shard_deliveries[i]));
        w.kv("cross_sends", static_cast<double>(r.shard_cross_sends[i]));
        w.kv("local_sends", static_cast<double>(r.shard_local_sends[i]));
        // Contention telemetry (wall-clock, machine-dependent): how much
        // of the worker's time went to executing windows vs waiting at
        // the window barrier, plus backpressure stalls on full outboxes
        // and this shard's cross-shard traffic row (destination-indexed
        // remote sends, deterministic).
        if (i < r.shard_busy_ns.size()) {
          w.kv("busy_ns", static_cast<double>(r.shard_busy_ns[i]));
          w.kv("barrier_wait_ns",
               static_cast<double>(r.shard_barrier_ns[i]));
          w.kv("mailbox_stalls",
               static_cast<double>(r.shard_mailbox_stalls[i]));
        }
        if (i < r.shard_traffic.size()) {
          w.key("traffic");
          w.begin_array();
          for (std::uint64_t t : r.shard_traffic[i]) {
            w.value(static_cast<double>(t));
          }
          w.end_array();
        }
        w.end_object();
      }
      w.end_array();
      w.end_object();
      shards_json = w.take();
    }
    report.section("shards", shards_json);
  }

  // Per-message overhead vs. hop count: a chain of h mixes costs h+1 wire
  // messages and sum_{k=0..h} (512 - 48k) wire bytes end to end. The exact
  // per-class counts were asserted against the tallies above.
  for (int h = 1; h <= scale::kMaxHops; ++h) {
    std::size_t wire_bytes = 0;
    for (int k = 0; k <= h; ++k) {
      wire_bytes += scale::kOnionBytes - scale::kOnionShrink * k;
    }
    report.value("overhead_msgs_hops" + std::to_string(h),
                 static_cast<double>(h + 1));
    report.value("overhead_wire_bytes_hops" + std::to_string(h),
                 static_cast<double>(wire_bytes));
    std::printf("  mix chain of %d: %d messages, %zu wire bytes per send\n", h,
                h + 1, wire_bytes);
  }

  return report.finish(ok);
}
