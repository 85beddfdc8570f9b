// The scale workload: bench/scale_workload.hpp's run_point, unchanged, on
// the serial engine. One round is one full population round; the engine is
// the whole cost.
#include <algorithm>
#include <vector>

#include "harness.hpp"
#include "scale_workload.hpp"

namespace dcpl::e2ebench {
namespace {

/// ~25k users, whose live state stays inside the host's last-level cache
/// (README: "Where the workload figures come from"). The seed moves the
/// population by up to 630 users, so each seed is a different input at the
/// same working-set scale.
std::size_t population(std::uint64_t seed) {
  return 25'000 + static_cast<std::size_t>(mix_seed(seed, 4) % 64) * 10;
}

// Operation latency. run_point starts users in kStartSlots slots, one per
// millisecond of virtual time (user i in slot i % kStartSlots), and every
// user's operation takes the same virtual time. Probes every kProbeUs of
// virtual time stamp the wall clock and the count of completed operations;
// they are the round's chunk boundaries. A slot spans the chunks from its
// start to the first probe by which as many operations have completed as
// had started up to and including that slot.
constexpr std::size_t kStartSlots = 1000;
constexpr net::Time kSlotUs = 1'000;
constexpr net::Time kProbeUs = kChunkUs;
constexpr std::size_t kProbes = (kStartSlots * kSlotUs + 200'000) / kProbeUs;

struct Probe {
  std::uint64_t wall_ns = 0;
  std::uint64_t completed = 0;
};

std::uint64_t completed(const bench::scale::Tally& tally) {
  std::uint64_t sink = 0;
  for (const auto& a : tally.sink_arrivals) {
    sink += a.load(std::memory_order_relaxed);
  }
  return std::min(tally.ohttp_responses.load(std::memory_order_relaxed), sink);
}

/// The round's chunks, bounded by run start, the probes and run end, and
/// one span per start slot (each slot is users / kStartSlots operations
/// with identical timing).
void chunk_timeline(const std::vector<Probe>& probes, std::uint64_t t_ready,
                    std::uint64_t t_done, std::size_t users, RoundResult& r) {
  std::uint64_t last = t_ready;
  for (const Probe& p : probes) {
    r.chunk_s.push_back(static_cast<double>(p.wall_ns - last) * 1e-9);
    last = p.wall_ns;
  }
  r.chunk_s.push_back(static_cast<double>(t_done - last) * 1e-9);

  std::uint64_t started = 0;
  std::size_t m = 0;
  for (std::size_t slot = 0; slot < kStartSlots && slot < users; ++slot) {
    started += (users - slot - 1) / kStartSlots + 1;
    const std::size_t issue = slot * (kSlotUs / kProbeUs);
    while (m < probes.size() && probes[m].completed < started) ++m;
    if (m == probes.size()) {
      r.problem("operations complete past the last probe");
      return;
    }
    // Probe i ends chunk i: the slot is issued in the chunk its start probe
    // opens and completes in the chunk its completion probe ends.
    r.op_chunks.push_back({static_cast<std::uint32_t>(issue + 1),
                           static_cast<std::uint32_t>(m)});
  }
}

}  // namespace

RoundResult run_scale_serial(const RoundSpec& spec) {
  namespace scale = bench::scale;
  const std::size_t users = population(spec.seed);
  RoundResult r;

  OpSnapshot before{};
  OpSnapshot after{};
  std::uint64_t t_ready = 0;
  std::uint64_t t_done = 0;
  std::uint64_t ohttp_responses = 0;
  std::uint64_t sink_arrivals = 0;
  std::vector<Probe> probes(kProbes);
  scale::PointOptions opts;  // run_point's own registry: no retry layer here
  const std::uint64_t t_setup = now_ns();
  opts.on_ready = [&](net::Simulator& sim, const scale::Tally& tally) {
    r.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
    for (std::size_t i = 0; i < kProbes; ++i) {
      sim.at(static_cast<net::Time>(i) * kProbeUs, [&probes, &tally, i] {
        probes[i] = Probe{now_ns(), completed(tally)};
      });
    }
    before = op_snapshot();
    set_alloc_counting(spec.traced);
    t_ready = now_ns();
  };
  opts.on_done = [&](net::Simulator& sim, const scale::Tally& tally) {
    t_done = now_ns();
    set_alloc_counting(false);
    after = op_snapshot();
    r.work.bytes = static_cast<double>(sim.bytes_delivered());
    ohttp_responses = tally.ohttp_responses.load();
    for (const auto& a : tally.sink_arrivals) sink_arrivals += a.load();
  };
  const scale::PointResult p = scale::run_point(users, opts);
  r.measured_s = static_cast<double>(now_ns() - t_ready) * 1e-9;
  r.run_s = p.wall_ms * 1e-3;
  add_op_delta(r.work, before, after);
  r.work.events = p.events - kProbes;
  r.work.peak_queue = p.peak_queue_depth;

  // One operation per user: its OHTTP round plus its onion send.
  r.attempted = users;
  const std::uint64_t done = std::min(ohttp_responses, sink_arrivals);
  r.failed = users - std::min<std::uint64_t>(done, users);
  if (!p.ohttp_complete) r.problem("not every OHTTP round completed");
  if (!p.mix_complete) r.problem("not every onion reached the sink");
  if (!p.overhead_exact) r.problem("mix-net wire overhead is not exact");
  chunk_timeline(probes, t_ready, t_done, users, r);
  if (!r.problems.empty()) r.failed = users;

  if (spec.traced) {
    r.layer_s[kNet] = r.run_s;
    r.layer_s[kHarness] = r.measured_s - r.run_s;
  }
  return r;
}

}  // namespace dcpl::e2ebench
