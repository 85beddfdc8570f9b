#include "harness.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>

#include "obs/metrics.hpp"

// Counting global allocator. Replacing operator new in the benchmark binary
// is the only way to count the library's allocations without touching it.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dcpl::e2ebench {

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "net",    "client",   "relay", "gateway", "origin",
      "issuer", "resolver", "mix",   "harness"};
  return kNames[layer];
}

void LayerClock::start(Layer base) {
  acc_ns_.fill(0);
  depth_ = 1;
  stack_[0] = base;
  last_ns_ = now_ns();
  enabled_ = true;
}

void LayerClock::charge() {
  const std::uint64_t t = now_ns();
  acc_ns_[stack_[depth_ - 1]] += t - last_ns_;
  last_ns_ = t;
}

void LayerClock::enter(Layer layer) {
  charge();
  stack_.at(static_cast<std::size_t>(depth_)) = layer;
  ++depth_;
}

void LayerClock::leave() {
  charge();
  if (depth_ > 1) --depth_;
}

void LayerClock::stop() {
  if (!enabled_) return;
  charge();
  enabled_ = false;
}

LayerClock& layer_clock() {
  static LayerClock clock;
  return clock;
}

OpSnapshot op_snapshot() {
  obs::Registry& crypto = obs::op_registry().scope("crypto");
  const auto v = [&crypto](const char* name) {
    return static_cast<double>(crypto.counter(name).value());
  };
  return OpSnapshot{v("x25519"),
                    v("hpke_seal"),
                    v("hpke_open"),
                    v("aead_seal") + v("aead_open"),
                    v("rsa_blind_sign"),
                    v("rsa_blind_verify"),
                    static_cast<double>(g_alloc_calls.load()),
                    static_cast<double>(g_alloc_bytes.load())};
}

void add_op_delta(WorkCounters& w, const OpSnapshot& before,
                  const OpSnapshot& after) {
  w.x25519 = after.x25519 - before.x25519;
  w.hpke_seal = after.hpke_seal - before.hpke_seal;
  w.hpke_open = after.hpke_open - before.hpke_open;
  w.aead = after.aead - before.aead;
  w.rsa_blind_sign = after.rsa_blind_sign - before.rsa_blind_sign;
  w.rsa_verify = after.rsa_verify - before.rsa_verify;
  w.allocs = after.allocs - before.allocs;
  w.alloc_bytes = after.alloc_bytes - before.alloc_bytes;
}

obs::Registry& sim_registry() {
  static obs::Registry registry;
  return registry;
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

void ChunkClock::start(net::Simulator& sim, std::function<bool()> more) {
  sim_ = &sim;
  more_ = std::move(more);
  stamps_.assign(1, now_ns());
  ticks_ = 0;
  sim.at(sim.now() + kChunkUs, [this] { tick(); });
}

void ChunkClock::tick() {
  stamps_.push_back(now_ns());
  ++ticks_;
  if (more_()) sim_->at(sim_->now() + kChunkUs, [this] { tick(); });
}

std::vector<double> ChunkClock::chunk_seconds() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < stamps_.size(); ++i) {
    out.push_back(static_cast<double>(stamps_[i] - stamps_[i - 1]) * 1e-9);
  }
  return out;
}

void OpTracker::complete(std::size_t op, bool ok) {
  if (state_[op] != 1) return;
  state_[op] = ok ? 2 : 3;
  ++completed_;
  chunks_[op][1] = clock_->chunk();
}

void OpTracker::finish(RoundResult& r) const {
  r.attempted += state_.size();
  for (std::size_t op = 0; op < state_.size(); ++op) {
    if (state_[op] != 2) ++r.failed;
    if (state_[op] >= 2) r.op_chunks.push_back(chunks_[op]);
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over the pair.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace dcpl::e2ebench
