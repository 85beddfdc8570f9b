// Shared pieces of the end-to-end benchmark: the per-round result every
// workload returns, the chunk clock that stamps a round's virtual timeline,
// the layer self-time clock the traced rounds charge, the timing decorator
// that wraps each party's net::Node, and the work-counter snapshots taken
// from the library's public counters.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/sim.hpp"
#include "obs/metrics.hpp"

namespace dcpl::e2ebench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- layers -------------------------------------------------------------

/// Where a traced round's wall time goes. kNet is the engine itself: time
/// inside Simulator::run() that no party handler or benchmark callback
/// claims (queue, dispatch, link resolution, and the library's own timer
/// callbacks such as retry resends). kHarness is the benchmark's own
/// bookkeeping and correctness checks.
enum Layer : int {
  kNet,
  kClient,
  kRelay,
  kGateway,
  kOrigin,
  kIssuer,
  kResolver,
  kMix,
  kHarness,
  kLayerCount
};

const char* layer_name(Layer layer);

/// Self-time ledger for the single-threaded stacks. Nested scopes pause the
/// enclosing layer, so the charged times never overlap and sum to the
/// wall time between start() and stop().
class LayerClock {
 public:
  void start(Layer base);  // clears the ledger; `base` is charged until enter
  void enter(Layer layer);
  void leave();
  void stop();             // charges the open layer and disables the clock
  bool enabled() const { return enabled_; }
  double seconds(Layer layer) const { return acc_ns_[layer] * 1e-9; }

 private:
  void charge();
  bool enabled_ = false;
  std::uint64_t last_ns_ = 0;
  int depth_ = 0;
  std::array<Layer, 16> stack_{};
  std::array<std::uint64_t, kLayerCount> acc_ns_{};
};

LayerClock& layer_clock();

class ScopedLayer {
 public:
  explicit ScopedLayer(Layer layer) : on_(layer_clock().enabled()) {
    if (on_) layer_clock().enter(layer);
  }
  ~ScopedLayer() {
    if (on_) layer_clock().leave();
  }
  ScopedLayer(const ScopedLayer&) = delete;
  ScopedLayer& operator=(const ScopedLayer&) = delete;

 private:
  bool on_;
};

/// Registers in place of a party node: forwards every delivery to `inner`
/// inside a ScopedLayer for the party's layer, then runs `after` (the hook
/// one-way stacks use to notice completions at their receiver).
class PartyNode final : public net::Node {
 public:
  PartyNode(net::Node& inner, Layer layer, std::function<void()> after = {})
      : Node(inner.address()),
        inner_(&inner),
        layer_(layer),
        after_(std::move(after)) {}

  void on_packet(const net::Packet& p, net::Simulator& sim) override {
    ScopedLayer scope(layer_);
    inner_->on_packet(p, sim);
    if (after_) after_();
  }

 private:
  net::Node* inner_;
  Layer layer_;
  std::function<void()> after_;
};

// ---- counters -----------------------------------------------------------

/// Deterministic work done in one round: a fixed seed must reproduce every
/// field exactly.
struct WorkCounters {
  double events = 0;
  double bytes = 0;
  double faults = 0;
  double peak_queue = 0;
  double x25519 = 0;
  double hpke_seal = 0;
  double hpke_open = 0;
  double aead = 0;
  double rsa_blind_sign = 0;
  double rsa_verify = 0;
  double observations = 0;
  double flow_events = 0;
  double allocs = 0;
  double alloc_bytes = 0;
  double resends = 0;
};

/// The library's crypto OpCounters plus the benchmark's allocation counter,
/// read as one snapshot so a round can report deltas.
struct OpSnapshot {
  double x25519, hpke_seal, hpke_open, aead, rsa_blind_sign, rsa_verify;
  double allocs, alloc_bytes;
};
OpSnapshot op_snapshot();
/// Fills the crypto and allocation fields of `w` with `after - before`.
void add_op_delta(WorkCounters& w, const OpSnapshot& before,
                  const OpSnapshot& after);

/// The metrics registry of every closed-loop round's simulator, one per
/// process, so rounds read its counters as deltas. A registry per round
/// would have to outlive its round: the retry layer's static
/// obs::CounterHandle caches a Counter* per registry address, so a new
/// registry at a recycled address would be handed a dangling counter.
obs::Registry& sim_registry();

/// Counting global operator new: off except in traced rounds, so untraced
/// rounds pay nothing for it.
void set_alloc_counting(bool on);

// ---- chunk clock ----------------------------------------------------------

/// Virtual length of one chunk of a round's timeline.
constexpr net::Time kChunkUs = 250;

/// Cuts a round's virtual timeline into chunks of kChunkUs and stamps the
/// wall clock at every boundary. Every round of a run replays the same
/// events, so chunk j is the same work in every round. The host slows a
/// core for stretches of tens of milliseconds at a time; the fastest time
/// seen for a chunk over the rounds is how long its work takes when it does
/// not (README: "How a run works").
class ChunkClock {
 public:
  /// Stamps the start of chunk 0, then a boundary every kChunkUs of virtual
  /// time for as long as `more()` holds.
  void start(net::Simulator& sim, std::function<bool()> more);
  /// Stamps the end of the last chunk.
  void stop() { stamps_.push_back(now_ns()); }
  /// The chunk running now.
  std::uint32_t chunk() const {
    return static_cast<std::uint32_t>(stamps_.size() - 1);
  }
  /// Boundary callbacks run so far: simulator events of the clock's own.
  std::uint64_t ticks() const { return ticks_; }
  std::vector<double> chunk_seconds() const;

 private:
  void tick();
  net::Simulator* sim_ = nullptr;
  std::function<bool()> more_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t ticks_ = 0;
};

// ---- rounds ---------------------------------------------------------------

struct RoundSpec {
  std::uint64_t seed = 0;
  int round = 0;
  bool traced = false;
};

struct RoundResult {
  double setup_s = 0;     // topology, registration, key generation
  double run_s = 0;       // wall inside Simulator::run()
  double measured_s = 0;  // first request to last completion check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Wall time of each chunk of the round's virtual timeline.
  std::vector<double> chunk_s;
  /// Per operation: the chunk it was issued in and the chunk it completed in.
  std::vector<std::array<std::uint32_t, 2>> op_chunks;
  WorkCounters work;
  std::array<double, kLayerCount> layer_s{};
  double cache_hits = 0;
  double cache_lookups = 0;
  /// First few correctness failures, for the log.
  std::vector<std::string> problems;

  void problem(std::string what) {
    if (problems.size() < 8) problems.push_back(std::move(what));
  }
};

/// Tracks one round's closed-loop operations by id.
class OpTracker {
 public:
  OpTracker(std::size_t ops, const ChunkClock& clock)
      : clock_(&clock), chunks_(ops), state_(ops, 0) {}
  void issue(std::size_t op) {
    chunks_[op][0] = clock_->chunk();
    state_[op] = 1;
  }
  /// Records the first completion of `op`; later ones are ignored.
  void complete(std::size_t op, bool ok);
  bool done(std::size_t op) const { return state_[op] >= 2; }
  bool all_done() const { return completed_ == state_.size(); }
  bool succeeded(std::size_t op) const { return state_[op] == 2; }
  /// Counts attempted/failed into `r`; ops never completed count as failed.
  void finish(RoundResult& r) const;

 private:
  const ChunkClock* clock_;
  std::vector<std::array<std::uint32_t, 2>> chunks_;
  std::vector<std::uint8_t> state_;  // 0 idle, 1 issued, 2 ok, 3 failed
  std::size_t completed_ = 0;
};

using Workload = RoundResult (*)(const RoundSpec&);

RoundResult run_ohttp_real(const RoundSpec& spec);
RoundResult run_stack_mix(const RoundSpec& spec);
RoundResult run_scale_serial(const RoundSpec& spec);

/// Mixes a workload seed with a stream tag into an independent seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace dcpl::e2ebench
