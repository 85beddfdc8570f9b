#include "net/sim.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "net/partition.hpp"
#include "net/profile.hpp"
#include "net/tracing.hpp"
#include "obs/flow.hpp"
#include "obs/sampler.hpp"

namespace dcpl::net {

thread_local Simulator::Shard* Simulator::tls_shard_ = nullptr;

namespace {

/// Brackets one Node::on_packet with the ledger's delivery scope so every
/// exposure logged while the packet is in scope carries its protocol tag —
/// exception-safe, since systems may throw out of on_packet.
class FlowDeliveryScope {
 public:
  FlowDeliveryScope(obs::FlowLedger* flow, std::uint64_t context,
                    const std::string& protocol)
      : flow_(flow) {
    if (flow_) flow_->begin_delivery(context, protocol);
  }
  ~FlowDeliveryScope() {
    if (flow_) flow_->end_delivery();
  }
  FlowDeliveryScope(const FlowDeliveryScope&) = delete;
  FlowDeliveryScope& operator=(const FlowDeliveryScope&) = delete;

 private:
  obs::FlowLedger* flow_;
};

/// Loans a pooled payload to one delivery. The buffer is swapped *out* of
/// the pool slot for the duration of on_packet (handlers may acquire new
/// slots, which can reallocate the pool's slot table, so holding a
/// reference into it would dangle), swapped back in the destructor, and the
/// delivery's reference is dropped — exception-safe, and a refcount-2
/// duplicate sees the identical bytes on its own delivery.
class PayloadGuard {
 public:
  PayloadGuard(BufferPool& pool, PayloadHandle h, Bytes& borrow)
      : pool_(pool), h_(h), borrow_(borrow) {
    borrow_.swap(pool_.at(h_));
  }
  ~PayloadGuard() {
    borrow_.swap(pool_.at(h_));
    pool_.release(h_);
  }
  PayloadGuard(const PayloadGuard&) = delete;
  PayloadGuard& operator=(const PayloadGuard&) = delete;

 private:
  BufferPool& pool_;
  PayloadHandle h_;
  Bytes& borrow_;
};

/// Marks the delivery whose handler is currently running so
/// Simulator::detach_payload can find (and possibly steal) its buffer.
class CurrentDeliveryScope {
 public:
  CurrentDeliveryScope(PayloadHandle& slot, PayloadHandle h) : slot_(slot) {
    slot_ = h;
  }
  ~CurrentDeliveryScope() { slot_ = BufferPool::kInvalid; }
  CurrentDeliveryScope(const CurrentDeliveryScope&) = delete;
  CurrentDeliveryScope& operator=(const CurrentDeliveryScope&) = delete;

 private:
  PayloadHandle& slot_;
};

/// Decorrelates per-shard fault RNG streams while leaving shard 0 (and the
/// home shard) on the plan's own seed (stream = seed + stride * shard).
constexpr std::uint64_t kShardSeedStride = 0x9E3779B97F4A7C15ull;
/// Mailbox bound: big enough that barrier-rate draining never backpressures
/// in practice, small enough to bound memory under a pathological window.
constexpr std::size_t kMailboxCapacity = 16384;
}  // namespace

/// Delivery record for the wiretaps, built only while one is attached. The
/// home shard hands it to the taps at once; a worker buffers it for the
/// coordinator to replay at the next barrier in (time, shard, buffer-order)
/// order. Flow-ledger ops take the parallel FlowLedger staging path
/// instead (see obs/flow.hpp).
struct Simulator::DeferredOb {
  Time time = 0;
  std::uint64_t link_key = 0;
  std::size_t size = 0;
  std::uint64_t context = 0;
  ProtocolId protocol = 0;
};

struct Simulator::Shard {
  Shard(Simulator* owner, std::uint32_t shard, std::uint32_t shards,
        bool is_worker)
      : id(shard),
        worker(is_worker),
        id_base(is_worker ? static_cast<std::uint64_t>(shard + 1) << 48 : 0),
        sim(owner),
        traffic(shards, 0) {}

  /// Parks `fn` in a recycled slot and returns the slot index.
  std::uint32_t park_callback(std::function<void()> fn) {
    std::uint32_t slot;
    if (!callback_free.empty()) {
      slot = callback_free.back();
      callback_free.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(callbacks.size());
      callbacks.emplace_back();
    }
    callbacks[slot] = std::move(fn);
    return slot;
  }

  /// Moves the callback out of its slot and frees the slot first, so
  /// anything the callback schedules may reuse it.
  std::function<void()> take_callback(std::uint32_t slot) {
    std::function<void()> fn = std::move(callbacks[slot]);
    callbacks[slot] = nullptr;
    callback_free.push_back(slot);
    return fn;
  }

  const std::uint32_t id;
  /// Workers run on their own threads: they buffer the ordered observers
  /// and fold their counters into the home shard when the run ends. The
  /// home shard runs on the calling thread and observes inline.
  const bool worker;
  /// High bits of every context and trace id this shard issues: 0 on the
  /// home shard, (id + 1) << 48 on a worker, so concurrent allocations
  /// never collide and depend only on the shard's own schedule.
  const std::uint64_t id_base;
  Simulator* const sim;

  // pool before the queue and callbacks: parked callbacks may hold
  // PayloadRefs into it.
  BufferPool pool;
  CalendarQueue queue;
  std::vector<std::function<void()>> callbacks;
  std::vector<std::uint32_t> callback_free;
  std::uint64_t event_seq = 0;  // local (time, seq) tiebreaker
  Time now = 0;
  std::uint64_t context_counter = 0;
  std::unique_ptr<XoshiroRng> fault_rng;
  FaultStats stats;
  Packet scratch;  // re-materialized per delivery; capacity is recycled
  /// Handle of the delivery currently inside Node::on_packet (kInvalid
  /// outside one) — what detach_payload() consults to steal or share.
  PayloadHandle current_handle = BufferPool::kInvalid;
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t delivered_bytes = 0;
  std::size_t queue_peak = 0;
  std::uint64_t queue_ops = 0;
  // Tracing plane: trace-id counter, the trace of the delivery currently
  // inside on_packet, and a private recorder lane (allocated on first use)
  // so hop recording never shares cache lines across workers.
  std::uint64_t trace_seq = 0;
  obs::TraceContext cur_trace;
  bool trace_continued = false;
  std::unique_ptr<LatencyLane> lane;

  // ---- worker-only state ----
  obs::LatencyRecorder latency_hist;  // merged into the registry at run end
  // Private caches of the simulator's name tables; keys and pointers refer
  // into the tables' node-stable storage.
  std::unordered_map<std::string_view, AddressId> address_ids;
  std::vector<const Address*> address_names;
  std::unordered_map<std::string_view, ProtocolId> protocol_ids;
  std::vector<const ProtocolInfo*> protocols;
  ShardMailbox inbox{kMailboxCapacity};
  std::vector<ShardEvent> staged;  // drained but not yet enqueued
  std::uint64_t xfer_seq = 0;      // outgoing cross-shard merge key
  std::vector<DeferredOb> deferred;
  // Contention telemetry: wall time split between processing and barrier
  // waits, failed mailbox pushes, and the outgoing traffic row
  // (traffic[dst] = events pushed to shard dst, diagonal = same-shard
  // pushes — deterministic; cross/local send counts derive from it).
  std::uint64_t busy_ns = 0;
  std::uint64_t barrier_ns = 0;
  std::uint64_t mailbox_full_stalls = 0;
  std::vector<std::uint64_t> traffic;
  std::exception_ptr error;
};

Simulator::Simulator()
    : metrics_(&obs::global_registry().scope("sim")),
      home_(std::make_unique<Shard>(this, 0, 1, /*is_worker=*/false)) {
  bind_metrics();
}

// Out of line: Shard is an incomplete type at the class definition.
Simulator::~Simulator() = default;

Simulator::Shard& Simulator::current_shard() const {
  Shard* sh = tls_shard_;
  return sh != nullptr && sh->sim == this ? *sh : *home_;
}

void Simulator::bind_metrics() {
  events_processed_m_ = &metrics_->counter("events_processed");
  packets_m_ = &metrics_->counter("packets_delivered");
  bytes_m_ = &metrics_->counter("bytes_delivered");
  queue_depth_m_ = &metrics_->gauge("queue_depth");
  queue_depth_peak_m_ = &metrics_->gauge("queue_depth_peak");
  pool_live_m_ = &metrics_->gauge("pool_live");
  pool_slots_m_ = &metrics_->gauge("pool_slots");
  delivery_latency_m_ = &metrics_->histogram("delivery_latency_us");
}

void Simulator::bind_fault_metrics() {
  faults_lost_m_ = &metrics_->counter("faults_lost");
  faults_duplicated_m_ = &metrics_->counter("faults_duplicated");
  faults_jittered_m_ = &metrics_->counter("faults_jittered");
  faults_partition_m_ = &metrics_->counter("faults_partition_dropped");
  faults_offline_m_ = &metrics_->counter("faults_offline_dropped");
  faults_breaches_m_ = &metrics_->counter("faults_breaches_fired");
}

void Simulator::set_metrics(obs::Registry& registry) {
  metrics_ = &registry;
  bind_metrics();
  if (fault_plan_) bind_fault_metrics();
}

void Simulator::add_node(Node& node) {
  const AddressId id = interner_.intern(node.address());
  if (id >= nodes_.size()) nodes_.resize(id + 1, nullptr);
  if (nodes_[id] != nullptr) {
    throw std::invalid_argument("Simulator: duplicate address " +
                                node.address());
  }
  nodes_[id] = &node;
}

Simulator::LinkState& Simulator::ensure_link(AddressId a, AddressId b) {
  auto [it, inserted] = links_.try_emplace(pack_link(a, b));
  if (inserted && fault_plan_) {
    // A pair first seen after plan install still gets its per-link
    // impairment override; the string lookup happens once per pair.
    const auto& per_link = fault_plan_->per_link();
    auto imp = per_link.find({interner_.name(a), interner_.name(b)});
    if (imp != per_link.end()) it->second.impairment = &imp->second;
  }
  return it->second;
}

void Simulator::connect(const Address& a, const Address& b, Time latency_us) {
  const AddressId ia = interner_.intern(a);
  const AddressId ib = interner_.intern(b);
  for (LinkState* ls : {&ensure_link(ia, ib), &ensure_link(ib, ia)}) {
    ls->latency = latency_us;
    ls->has_latency = true;
  }
}

bool Simulator::has_link(const Address& a, const Address& b) const {
  return link_latency(a, b).has_value();
}

std::optional<Time> Simulator::link_latency(const Address& a,
                                            const Address& b) const {
  // links_ only changes outside a run or at a window barrier, and every
  // linked address was interned by connect(), so the answer is the same
  // whatever other workers intern meanwhile.
  const auto ia = lookup(a);
  const auto ib = lookup(b);
  if (!ia || !ib) return std::nullopt;
  auto it = links_.find(pack_link(*ia, *ib));
  if (it == links_.end() || !it->second.has_latency) return std::nullopt;
  return it->second.latency;
}

void Simulator::set_bandwidth(const Address& a, const Address& b,
                              std::uint64_t bytes_per_ms) {
  const AddressId ia = interner_.intern(a);
  const AddressId ib = interner_.intern(b);
  ensure_link(ia, ib).bandwidth = bytes_per_ms;
  ensure_link(ib, ia).bandwidth = bytes_per_ms;
}

bool Simulator::partitioned_at(std::uint64_t link_key, Time t) const {
  auto it = partitions_m_.find(link_key);
  if (it == partitions_m_.end()) return false;
  for (const Window& w : *it->second) {
    if (w.contains(t)) return true;
  }
  return false;
}

bool Simulator::offline_at_id(AddressId id, Time t) const {
  auto it = offline_m_.find(id);
  if (it == offline_m_.end()) return false;
  for (const Window& w : *it->second) {
    if (w.contains(t)) return true;
  }
  return false;
}

namespace {

/// Name -> id through a worker's private cache; `intern` (called under
/// `mu`) resolves a miss in the shared table.
template <typename Id, typename Intern>
[[gnu::noinline]] Id cached_id(std::unordered_map<std::string_view, Id>& cache,
             const std::string& name, std::mutex& mu, Intern intern) {
  if (auto it = cache.find(name); it != cache.end()) return it->second;
  std::lock_guard<std::mutex> lk(mu);
  const auto [id, stable] = intern(name);
  cache.emplace(*stable, id);
  return id;
}

/// Id -> entry through a worker's private cache; `read` (called under
/// `mu`) resolves a miss in the shared table.
template <typename T, typename Read>
[[gnu::noinline]] const T& cached_entry(std::vector<const T*>& cache, std::uint32_t id,
                      std::mutex& mu, Read read) {
  if (id < cache.size() && cache[id] != nullptr) return *cache[id];
  const T* entry;
  {
    std::lock_guard<std::mutex> lk(mu);
    entry = &read(id);
  }
  if (id >= cache.size()) cache.resize(id + 1, nullptr);
  cache[id] = entry;
  return *entry;
}

}  // namespace

AddressId Simulator::intern(Shard& sh, const Address& name) {
  if (!sh.worker) return interner_.intern(name);
  return cached_id(sh.address_ids, name, names_mu_, [this](const Address& n) {
    const AddressId id = interner_.intern(n);
    return std::pair{id, &interner_.name(id)};
  });
}

const Address& Simulator::name_of(Shard& sh, AddressId id) {
  if (!sh.worker) return interner_.name(id);
  return cached_entry(sh.address_names, id, names_mu_,
                      [this](AddressId i) -> const Address& {
                        return interner_.name(i);
                      });
}

ProtocolId Simulator::intern_protocol(const std::string& name) {
  auto it = protocol_ids_.find(name);
  if (it != protocol_ids_.end()) return it->second;
  const ProtocolId id = static_cast<ProtocolId>(protocols_.size());
  protocols_.push_back(
      std::make_unique<ProtocolInfo>(ProtocolInfo{name, "deliver:" + name}));
  protocol_ids_.emplace(name, id);
  return id;
}

ProtocolId Simulator::intern_protocol(Shard& sh, const std::string& name) {
  if (!sh.worker) return intern_protocol(name);
  return cached_id(sh.protocol_ids, name, names_mu_,
                   [this](const std::string& n) {
                     const ProtocolId id = intern_protocol(n);
                     return std::pair{id, &protocols_[id]->name};
                   });
}

std::optional<AddressId> Simulator::lookup(const Address& name) const {
  // A worker's cache miss may be inserting into the interner right now.
  std::lock_guard<std::mutex> lk(names_mu_);
  return interner_.lookup(name);
}

const Simulator::ProtocolInfo& Simulator::protocol_info(Shard& sh,
                                                        ProtocolId id) {
  if (!sh.worker) return *protocols_[id];
  return cached_entry(sh.protocols, id, names_mu_,
                      [this](ProtocolId i) -> const ProtocolInfo& {
                        return *protocols_[i];
                      });
}

void Simulator::note_queue_op(Shard& sh) {
  if ((++sh.queue_ops & kQueueSampleMask) == 0) {
    queue_depth_m_->set(static_cast<double>(sh.queue.size()));
    pool_live_m_->set(static_cast<double>(sh.pool.live()));
    pool_slots_m_->set(static_cast<double>(sh.pool.slots()));
  }
}

void Simulator::enqueue(Shard& sh, EngineEvent& ev) {
  ev.seq = ++sh.event_seq;
  sh.queue.push(ev);
  const std::size_t depth = sh.queue.size();
  if (depth > sh.queue_peak) sh.queue_peak = depth;
  if (!sh.worker) note_queue_op(sh);
}

void Simulator::push_delivery(Shard& sh, Time deliver_at,
                              std::uint64_t link_key, PayloadHandle h,
                              std::uint64_t context, ProtocolId protocol,
                              const obs::TraceContext& tc) {
  EngineEvent ev;
  ev.time = deliver_at;
  ev.link_key = link_key;
  ev.context = context;
  // The latency sample is computed now but recorded only at delivery time:
  // a packet later dropped by a crash window must not contribute to the
  // delivery-latency histogram.
  ev.latency_sample = deliver_at - sh.now;
  ev.trace_id = tc.trace_id;
  ev.trace_origin = tc.origin_us;
  ev.trace_hop = tc.hop;
  ev.handle = h;
  ev.protocol = protocol;
  ev.kind = EngineEvent::kDelivery;
  ++sh.traffic[sh.id];  // diagonal: same-shard sends
  enqueue(sh, ev);
}

void Simulator::push_callback(Shard& sh, Time t, std::function<void()> fn,
                              std::uint64_t tag) {
  if (t < sh.now) throw std::invalid_argument("Simulator::at: time in the past");
  EngineEvent ev;
  ev.time = t;
  // Callback events never read context on dispatch; at_node() stashes its
  // affinity there as id + 1 (0 = untagged) for redistribute_initial_events
  // to route on.
  ev.context = tag;
  ev.handle = sh.park_callback(std::move(fn));
  ev.kind = EngineEvent::kCallback;
  enqueue(sh, ev);
}

void Simulator::push_remote(Shard& sh, std::uint32_t dst_shard,
                            ShardEvent ev) {
  ++sh.traffic[dst_shard];
  ShardMailbox& box = workers_[dst_shard]->inbox;
  while (!box.try_push(std::move(ev))) {
    if (abort_.load(std::memory_order_relaxed)) {
      return;  // another shard failed; the run is unwinding — drop
    }
    // Full: make progress instead of spinning a potential producer cycle —
    // drain our *own* inbox into the staging buffer (freeing space someone
    // may be blocked on) and yield to the mailbox owner. Staged events are
    // enqueued only at the barrier, so drain timing can't affect the merge
    // order.
    ++sh.mailbox_full_stalls;
    sh.inbox.drain(sh.staged);
    std::this_thread::yield();
  }
}

LatencyLane& Simulator::lane(Shard& sh) {
  if (!sh.lane) sh.lane = std::make_unique<LatencyLane>();
  return *sh.lane;
}

void Simulator::merge_lane(Shard& sh) {
  if (!sh.lane) return;
  if (latency_ != nullptr) latency_->merge_lane(*sh.lane);
  sh.lane.reset();
}

obs::TraceContext Simulator::next_trace(Shard& sh) {
  if (latency_ == nullptr) return {};
  if (sh.cur_trace.active()) {
    // A send issued while a delivery is in flight continues that packet's
    // trace one hop further (the relay/forward idiom).
    sh.trace_continued = true;
    obs::TraceContext tc = sh.cur_trace;
    ++tc.hop;
    return tc;
  }
  // Fresh trace, namespaced like new_context(): ids depend only on the
  // shard's own deterministic schedule, never the wall clock or thread
  // interleaving.
  obs::TraceContext tc;
  const std::uint64_t seq = ++sh.trace_seq;
  tc.trace_id = sh.id_base | seq;
  if (latency_->waterfall_trace(seq)) tc.trace_id |= obs::kTraceWaterfallBit;
  tc.origin_us = sh.now;
  tc.hop = 0;
  return tc;
}

void Simulator::count_fault(Shard& sh, std::uint64_t FaultStats::*field,
                            obs::Counter* counter) {
  ++(sh.stats.*field);
  // Workers fold their counts into the registry when the run ends.
  if (!sh.worker) counter->inc();
}

void Simulator::fault_span(const Shard& sh, const char* name,
                           const Address& src, const Address& dst) {
  // The tracer is not thread-safe: only the home shard emits spans.
  if (sh.worker || !obs::global_tracer().enabled()) return;
  obs::Span span(name, "net");
  span.arg("src", src);
  span.arg("dst", dst);
}

Simulator::SendPlan Simulator::plan_send(Shard& sh, AddressId src_id,
                                         std::uint64_t link_key,
                                         const Address& src,
                                         const Address& dst,
                                         std::size_t payload_size,
                                         Time extra_delay) {
  // One flat lookup resolves latency, bandwidth, and per-link impairment.
  // Pairs that were never connect()ed / impaired have no entry at all and
  // fall through to the defaults.
  const LinkState* link = nullptr;
  if (auto it = links_.find(link_key); it != links_.end()) {
    link = &it->second;
  }

  // Fault rolls happen in send order from the shard's seeded RNG, so a
  // fixed (workload, plan) pair replays the exact same fault sequence. A
  // lost packet consumes exactly one roll; a surviving one consumes the
  // duplicate roll, the jitter roll, and (only when duplicated) the
  // duplicate's own jitter roll.
  SendPlan plan;
  Time fault_delay = 0;
  Time dup_delay = 0;
  if (fault_plan_) {
    if (partitioned_at(link_key, sh.now)) {
      count_fault(sh, &FaultStats::partition_dropped, faults_partition_m_);
      fault_span(sh, "fault.partition", src, dst);
      plan.dropped = true;
      return plan;
    }
    if (offline_at_id(src_id, sh.now)) {
      count_fault(sh, &FaultStats::offline_dropped, faults_offline_m_);
      plan.dropped = true;
      return plan;
    }
    const Impairment& imp = link && link->impairment
                                ? *link->impairment
                                : fault_plan_->global_impairment();
    if (imp.active()) {
      XoshiroRng& rng = *sh.fault_rng;
      if (imp.loss > 0 && rng.unit() < imp.loss) {
        count_fault(sh, &FaultStats::lost, faults_lost_m_);
        fault_span(sh, "fault.loss", src, dst);
        plan.dropped = true;
        return plan;
      }
      if (imp.duplicate > 0 && rng.unit() < imp.duplicate) {
        plan.duplicated = true;
      }
      if (imp.jitter > 0 && rng.unit() < imp.jitter) {
        fault_delay = imp.jitter_max_us ? rng.below(imp.jitter_max_us + 1) : 0;
        count_fault(sh, &FaultStats::jittered, faults_jittered_m_);
      }
      if (plan.duplicated && imp.jitter > 0 && rng.unit() < imp.jitter) {
        dup_delay = imp.jitter_max_us ? rng.below(imp.jitter_max_us + 1) : 0;
      }
    }
  }

  Time serialization = 0;
  if (link && link->bandwidth > 0) {
    serialization = payload_size * 1000 / link->bandwidth;  // us
  }
  const Time latency =
      link && link->has_latency ? link->latency : default_latency_;
  const Time base = sh.now + latency + serialization + extra_delay;
  plan.deliver_at = base + fault_delay;
  if (plan.duplicated) {
    count_fault(sh, &FaultStats::duplicated, faults_duplicated_m_);
    fault_span(sh, "fault.duplicate", src, dst);
    plan.dup_at = base + dup_delay;
  }
  if (latency_ != nullptr) {
    // Per-hop stage attribution, stamped once per surviving send (the
    // fault-duplicate shares the primary's stages): the link flight time,
    // and everything else the hop waited on (serialization + caller delay
    // + jitter) — fired − scheduled minus the link component.
    LatencyLane& l = lane(sh);
    l.link.record(latency);
    l.queue_wait.record(serialization + extra_delay + fault_delay);
  }
  return plan;
}

std::uint32_t Simulator::route(const Shard& sh, AddressId dst_id) const {
  return sh.worker ? shard_of_id(dst_id) : sh.id;
}

void Simulator::send(Packet packet, Time extra_delay) {
  Shard& sh = current_shard();
  const AddressId src_id = intern(sh, packet.src);
  const AddressId dst_id = intern(sh, packet.dst);
  if (dst_id >= nodes_.size() || nodes_[dst_id] == nullptr) {
    throw std::out_of_range("Simulator: unknown destination " + packet.dst);
  }
  const std::uint64_t link_key = pack_link(src_id, dst_id);
  const SendPlan plan = plan_send(sh, src_id, link_key, packet.src,
                                  packet.dst, packet.payload.size(),
                                  extra_delay);
  if (plan.dropped) return;
  const ProtocolId proto = intern_protocol(sh, packet.protocol);
  const obs::TraceContext tc = next_trace(sh);
  const std::uint64_t context = packet.context;
  const std::uint32_t dst_shard = route(sh, dst_id);
  if (dst_shard == sh.id) {
    const PayloadHandle h = sh.pool.acquire(std::move(packet.payload));
    if (plan.duplicated) {
      // The duplicate shares the original's buffer and is pushed first, so
      // it takes the lower sequence number — exactly the seed engine's
      // order.
      sh.pool.add_ref(h);
      push_delivery(sh, plan.dup_at, link_key, h, context, proto, tc);
    }
    push_delivery(sh, plan.deliver_at, link_key, h, context, proto, tc);
    return;
  }
  ShardEvent xev;
  xev.src_shard = sh.id;
  xev.link_key = link_key;
  xev.context = context;
  xev.trace_id = tc.trace_id;
  xev.trace_origin = tc.origin_us;
  xev.trace_hop = tc.hop;
  xev.protocol = proto;
  if (plan.duplicated) {
    ShardEvent dup = xev;
    dup.time = plan.dup_at;
    dup.latency_sample = plan.dup_at - sh.now;
    dup.src_seq = ++sh.xfer_seq;   // lower merge key: duplicate first
    dup.payload = packet.payload;  // shares degrade to a copy across shards
    push_remote(sh, dst_shard, std::move(dup));
  }
  xev.time = plan.deliver_at;
  xev.latency_sample = plan.deliver_at - sh.now;
  xev.src_seq = ++sh.xfer_seq;
  xev.payload = std::move(packet.payload);
  push_remote(sh, dst_shard, std::move(xev));
}

PayloadRef Simulator::make_payload(Bytes bytes) {
  Shard& sh = current_shard();
  return PayloadRef(&sh.pool, sh.pool.acquire(std::move(bytes)));
}

void Simulator::send_shared(const Address& src, const Address& dst,
                            const PayloadRef& payload, std::uint64_t context,
                            const std::string& protocol, Time extra_delay) {
  Shard& sh = current_shard();
  if (!payload ||
      (payload.pool() != &sh.pool && payload.pool() != &home_->pool)) {
    throw std::invalid_argument(
        "Simulator::send_shared: payload not from this simulator's pool");
  }
  const AddressId src_id = intern(sh, src);
  const AddressId dst_id = intern(sh, dst);
  if (payload.pool() != &sh.pool || route(sh, dst_id) != sh.id) {
    // Crossing a shard boundary (or a worker sharing a frozen home-pool
    // buffer): ownership must change pools, so the share degrades to one
    // copy.
    send(Packet{src, dst, payload.bytes(), context, protocol}, extra_delay);
    return;
  }
  if (dst_id >= nodes_.size() || nodes_[dst_id] == nullptr) {
    throw std::out_of_range("Simulator: unknown destination " + dst);
  }
  const std::uint64_t link_key = pack_link(src_id, dst_id);
  const SendPlan plan = plan_send(sh, src_id, link_key, src, dst,
                                  payload.bytes().size(), extra_delay);
  if (plan.dropped) return;
  const ProtocolId proto = intern_protocol(sh, protocol);
  const obs::TraceContext tc = next_trace(sh);
  const PayloadHandle h = payload.handle();
  if (plan.duplicated) {
    sh.pool.add_ref(h);
    push_delivery(sh, plan.dup_at, link_key, h, context, proto, tc);
  }
  sh.pool.add_ref(h);
  push_delivery(sh, plan.deliver_at, link_key, h, context, proto, tc);
}

Bytes Simulator::detach_payload(std::size_t prefix_len) {
  Shard& sh = current_shard();
  const PayloadHandle h = sh.current_handle;
  if (h == BufferPool::kInvalid) {
    throw std::logic_error(
        "Simulator::detach_payload: no delivery in progress");
  }
  Bytes& borrowed = sh.scratch.payload;
  const std::size_t size = std::min(prefix_len, borrowed.size());
  Bytes bytes;
  if (sh.pool.refs(h) == 1) {
    // Sole reference: the slot dies when this delivery ends, so the buffer
    // can leave the pool by move. The guard swaps an empty Bytes back.
    bytes = std::move(borrowed);
    bytes.resize(size);
  } else {
    // A pending fault-duplicate still needs these bytes: copy the prefix.
    bytes.assign(borrowed.begin(),
                 borrowed.begin() + static_cast<std::ptrdiff_t>(size));
  }
  return bytes;
}

void Simulator::forward(const Address& src, const Address& dst,
                        std::uint64_t context, const std::string& protocol,
                        Time extra_delay, std::size_t prefix_len) {
  Packet fwd;
  fwd.payload = detach_payload(prefix_len);
  fwd.src = src;
  fwd.dst = dst;
  fwd.context = context;
  fwd.protocol = protocol;
  send(std::move(fwd), extra_delay);
}

void Simulator::at(Time t, std::function<void()> fn) {
  push_callback(current_shard(), t, std::move(fn), 0);
}

void Simulator::at_node(const Address& affine, Time t,
                        std::function<void()> fn) {
  Shard& sh = current_shard();
  // Only the home queue is spread over shards (at the start of an n-shard
  // run); a worker's callbacks stay on the worker, exactly like at().
  const std::uint64_t tag =
      sh.worker ? 0 : static_cast<std::uint64_t>(intern(sh, affine)) + 1;
  push_callback(sh, t, std::move(fn), tag);
}

Time Simulator::now() const { return current_shard().now; }

std::uint64_t Simulator::new_context() {
  Shard& sh = current_shard();
  return sh.id_base | ++sh.context_counter;
}

void Simulator::observe_delivery(const DeferredOb& ob) {
  const TraceEntry entry{ob.time,
                         interner_.name(link_src(ob.link_key)),
                         interner_.name(link_dst(ob.link_key)),
                         ob.size,
                         ob.context,
                         protocols_[ob.protocol]->name};
  for (auto& tap : wiretaps_) tap(entry);
}

void Simulator::deliver(Shard& sh, const EngineEvent& ev) {
  const AddressId dst_id = link_dst(ev.link_key);
  if (fault_plan_ && offline_at_id(dst_id, sh.now)) {
    count_fault(sh, &FaultStats::offline_dropped, faults_offline_m_);
    sh.pool.release(ev.handle);
    return;
  }
  (sh.worker ? sh.latency_hist : *delivery_latency_m_)
      .record(ev.latency_sample);
  const ProtocolInfo& proto = protocol_info(sh, ev.protocol);
  const Address& src = name_of(sh, link_src(ev.link_key));
  const Address& dst = name_of(sh, dst_id);
  std::optional<obs::Span> span;
  if (!sh.worker && obs::global_tracer().enabled()) {
    span.emplace(proto.deliver_label, "net");
    span->arg("src", src);
    span->arg("dst", dst);
  }
  // Re-materialize the packet into the recycled scratch struct (string
  // capacity survives across deliveries) and borrow the pooled bytes for
  // the duration of the handler.
  PayloadGuard payload(sh.pool, ev.handle, sh.scratch.payload);
  sh.scratch.src = src;
  sh.scratch.dst = dst;
  sh.scratch.context = ev.context;
  sh.scratch.protocol = proto.name;
  const std::size_t size = sh.scratch.payload.size();
  ++sh.deliveries;
  sh.delivered_bytes += size;
  if (!sh.worker) {
    packets_m_->inc();
    bytes_m_->inc(size);
  }
  // On a worker the delivery scope is staged on the shard's ledger lane,
  // so exposures the handler records land inside it when the batch
  // commits.
  FlowDeliveryScope flow_scope(flow_, ev.context, proto.name);
  if (!wiretaps_.empty()) {
    const DeferredOb ob{sh.now, ev.link_key, size, ev.context, ev.protocol};
    if (sh.worker) {
      sh.deferred.push_back(ob);
    } else {
      observe_delivery(ob);
    }
  }
  CurrentDeliveryScope current(sh.current_handle, ev.handle);
  sh.cur_trace.trace_id = ev.trace_id;
  sh.cur_trace.origin_us = ev.trace_origin;
  sh.cur_trace.hop = ev.trace_hop;
  sh.trace_continued = false;
  nodes_[dst_id]->on_packet(sh.scratch, *this);
  if (latency_ != nullptr && ev.trace_id != 0) {
    if (!sh.trace_continued) {
      // Terminal hop: nothing inside the handler carried the trace on, so
      // the request ends here — stamp its end-to-end virtual latency under
      // the terminal protocol.
      lane(sh).e2e[std::min<ProtocolId>(ev.protocol,
                                        LatencyTracer::kMaxProtocols - 1)]
          .record(sh.now - ev.trace_origin);
    }
    if ((ev.trace_id & obs::kTraceWaterfallBit) != 0) {
      // Rare (sampled traces only), so the tracer's span mutex is fine.
      latency_->add_span({ev.trace_id, ev.trace_hop, ev.protocol,
                          ev.time - ev.latency_sample, ev.time});
    }
  }
  sh.cur_trace.trace_id = 0;
}

void Simulator::dispatch(Shard& sh, const EngineEvent& ev) {
  if (ev.kind == EngineEvent::kDelivery) {
    deliver(sh, ev);
  } else {
    sh.take_callback(ev.handle)();
  }
}

void Simulator::process_window(Shard& sh, Time window_end) {
  while (!sh.queue.empty() && !abort_.load(std::memory_order_relaxed)) {
    if (window_end != CalendarQueue::kNever &&
        sh.queue.next_time() >= window_end) {
      return;
    }
    const EngineEvent ev = sh.queue.pop();
    sh.now = ev.time;
    ++sh.events;
    if (sh.worker) {
      dispatch(sh, ev);
      continue;
    }
    // The home shard runs on the calling thread, so it alone feeds the
    // live per-event telemetry: queue gauges, the event counter, the
    // sampler, and the profiler.
    note_queue_op(sh);
    events_processed_m_->inc();
    if (sh.now >= sampler_next_) {
      // Sample *before* dispatching: the probes see the state the event
      // is about to act on, timestamped at its virtual time.
      sampler_->sample_now(sh.now);
      sampler_next_ = sampler_->next_due();
    }
    if (profiler_ != nullptr) {
      const bool sampled = profiler_->arm();
      dispatch(sh, ev);
      profiler_->account(ev.kind, ev.protocol, sampled);
    } else {
      dispatch(sh, ev);
    }
  }
}

void Simulator::publish_drained(std::size_t peak, std::size_t pool_live,
                                std::size_t pool_slots) {
  // The exact high-watermark goes on its own gauge: samplers polling
  // queue_depth at run end never observe a phantom peak-then-zero spike.
  queue_depth_peak_m_->set(static_cast<double>(peak));
  queue_depth_m_->set(0.0);
  pool_live_m_->set(static_cast<double>(pool_live));
  pool_slots_m_->set(static_cast<double>(pool_slots));
  // One final sample at drain so the series always covers the run's end.
  if (sampler_ != nullptr) {
    sampler_->sample_now(home_->now);
    sampler_next_ = sampler_->next_due();
  }
}

Time Simulator::run() {
  if (shards_ > 1) return run_sharded();
  Shard& sh = *home_;
  // Attach this simulator's virtual clock so any span opened while an event
  // handler runs carries simulated time alongside wall time.
  obs::Tracer& tracer = obs::global_tracer();
  tracer.set_virtual_clock([&sh] { return sh.now; });
  {
    obs::Span run_span(tracer, "sim.run", "sim");
    process_window(sh, CalendarQueue::kNever);
    publish_drained(sh.queue_peak, sh.pool.live(), sh.pool.slots());
  }
  merge_lane(sh);
  tracer.clear_virtual_clock();
  return sh.now;
}

void Simulator::add_wiretap(std::function<void(const TraceEntry&)> tap) {
  wiretaps_.push_back(std::move(tap));
}

std::size_t Simulator::packets_delivered() const { return home_->deliveries; }

std::uint64_t Simulator::bytes_delivered() const {
  return home_->delivered_bytes;
}

const BufferPool& Simulator::payload_pool() const { return home_->pool; }

const FaultStats& Simulator::fault_stats() const { return home_->stats; }

void Simulator::rebuild_fault_tables() {
  for (auto& [key, ls] : links_) ls.impairment = nullptr;
  partitions_m_.clear();
  offline_m_.clear();
  if (!fault_plan_) return;
  // Intern every address the plan mentions once, here, so per-send checks
  // are flat id-keyed lookups. The pointed-to data lives in fault_plan_.
  for (const auto& [pair, imp] : fault_plan_->per_link()) {
    ensure_link(interner_.intern(pair.first), interner_.intern(pair.second))
        .impairment = &imp;
  }
  for (const auto& [pair, windows] : fault_plan_->partitions()) {
    partitions_m_[pack_link(interner_.intern(pair.first),
                            interner_.intern(pair.second))] = &windows;
  }
  for (const auto& [party, windows] : fault_plan_->offline_windows()) {
    offline_m_[interner_.intern(party)] = &windows;
  }
}

void Simulator::reseed_faults(Shard& sh) {
  sh.fault_rng = std::make_unique<XoshiroRng>(fault_plan_->seed() +
                                              kShardSeedStride * sh.id);
  sh.stats = FaultStats{};
}

void Simulator::schedule_breaches(Shard& sh, Time floor) {
  // Parties are interned and the table filled here, at install, so a run
  // never writes it. A party's first breach is its earliest, ties going to
  // plan order, which is the order the callbacks below fire in.
  const std::uint64_t plan = ++breach_plan_;
  const std::vector<BreachEvent>& breaches = fault_plan_->breaches();
  std::vector<std::pair<AddressId, Time>> due;
  for (const BreachEvent& ev : breaches) {
    due.emplace_back(interner_.intern(ev.party), std::max(ev.time, floor));
  }
  breached_.assign(interner_.size(), kNotBreached);
  for (const auto& [id, t] : due) breached_[id] = std::min(breached_[id], t);
  std::vector<bool> claimed(breached_.size(), false);
  for (std::size_t i = 0; i < breaches.size(); ++i) {
    const auto [id, t] = due[i];
    // A later breach of a party keeps its event slot but does nothing.
    const bool first = t == breached_[id] && !claimed[id];
    if (first) claimed[id] = true;
    push_callback(
        sh, t,
        [this, ev = breaches[i], plan, first] {
          if (first && plan == breach_plan_) fire_breach(ev);
        },
        0);
  }
}

void Simulator::fire_breach(const BreachEvent& ev) {
  Shard& sh = current_shard();
  count_fault(sh, &FaultStats::breaches_fired, faults_breaches_m_);
  std::optional<obs::Span> span;
  if (!sh.worker) {
    span.emplace("fault.breach", "net");
    span->arg("party", ev.party);
  }
  // Record the implant before the handler runs: everything the handler
  // marks (and everything the implant subsequently sees) is causally
  // downstream of this event. The ledger dedups per party, so the
  // handler's mark_compromised flowing back through an ObservationSink
  // is a no-op. On a worker the ledger stages the record on the shard's
  // lane and commits it at the barrier in (time, shard, seq) order.
  if (flow_) flow_->record_compromise(ev.party, obs::FlowCause::kBreachImplant);
  if (breach_handler_) breach_handler_(ev);
}

void Simulator::set_fault_plan(FaultPlan plan) {
  if (sharded_running_) {
    // Mid-run plan swap from a worker thread: stash it; the coordinator
    // applies it at the next window barrier (a deterministic point), when
    // every worker is parked and per-shard fault tables/RNG streams can be
    // rebuilt race-free.
    std::lock_guard<std::mutex> lk(pending_mu_);
    pending_plan_ = std::move(plan);
    return;
  }
  fault_plan_ = std::move(plan);
  reseed_faults(*home_);
  bind_fault_metrics();
  rebuild_fault_tables();
  // A plan installed mid-run may carry an already-elapsed breach time;
  // clamp it so the breach fires immediately instead of at() throwing.
  Shard& sh = current_shard();
  schedule_breaches(sh, sh.now);
}

void Simulator::set_flow(obs::FlowLedger* ledger) {
  flow_ = ledger;
  // now(): on a worker thread this is the shard's clock, which is the
  // delivering event's exact virtual time.
  if (flow_) flow_->set_clock([this] { return now(); });
}

void Simulator::set_sampler(obs::TimeSeriesSampler* sampler) {
  sampler_ = sampler;
  sampler_next_ = sampler_ != nullptr ? sampler_->next_due() : ~Time{0};
}

std::vector<std::string> Simulator::protocol_names() const {
  std::vector<std::string> names;
  names.reserve(protocols_.size());
  for (const auto& p : protocols_) names.push_back(p->name);
  return names;
}

std::size_t Simulator::queue_depth() const {
  std::size_t total = home_->queue.size();
  if (sharded_running_) {
    for (const auto& sh : workers_) total += sh->queue.size();
  }
  return total;
}

void Simulator::set_shards(std::uint32_t n) {
  if (n == 0) {
    throw std::invalid_argument("Simulator::set_shards: n must be >= 1");
  }
  if (sharded_running_) {
    throw std::logic_error("Simulator::set_shards: run in progress");
  }
  shards_ = n;
}

void Simulator::set_shard_affinity(const Address& address,
                                   std::uint32_t shard) {
  shard_pin_[interner_.intern(address)] = shard;
}

std::uint32_t Simulator::shard_of_id(AddressId id) const {
  if (auto it = shard_pin_.find(id); it != shard_pin_.end()) {
    return it->second % shards_;
  }
  if (id < auto_shard_.size() && auto_shard_[id] != kUnassignedShard) {
    return auto_shard_[id] % shards_;
  }
  return id % shards_;
}

void Simulator::add_affinity_hint(const Address& a, const Address& b,
                                  std::uint64_t weight) {
  if (weight == 0 || a == b) return;
  affinity_hints_.push_back({interner_.intern(a), interner_.intern(b), weight});
}

// ---------------------------------------------------------------------------
// n-shard runs.
//
// Conservative synchronization: every worker advances its shard's calendar
// queue through the window [T_min, T_min + L) where T_min is the global
// minimum pending event time and L is the lookahead — the minimum latency
// any cross-shard delivery can possibly take. Any send issued inside the
// window lands at >= T_min + L, i.e. never inside the window, so workers
// can process their windows with no mid-window communication; cross-shard
// deliveries accumulate in bounded mailboxes and are folded into the
// owner's queue at the barrier in (time, src_shard, src_seq) order.
// Determinism argument (DESIGN.md §13): the window schedule is a pure
// function of event content, the per-window mailbox batch *set* is
// interleaving-independent (every send for the window happens before
// barrier 1), and the merge key is a total order — so a fixed shard count
// replays bit-for-bit no matter how threads interleave. Every event runs
// through the same process_window/dispatch/deliver/send path as a 1-shard
// run; only routing, id namespaces and observer timing differ.

void Simulator::compute_auto_affinity() {
  auto_shard_.clear();
  if (affinity_policy_ != AffinityPolicy::kMinCut || shards_ <= 1) return;
  ShardPartitioner::Options opts;
  opts.shards = shards_;
  ShardPartitioner part(opts);
  // Optional traffic seeding: up-weight an edge by how hot the recorded
  // run's shard pair was, approximating the previous placement by
  // id-modulo over the recorded matrix dimension. Only OFF-diagonal cells
  // scale: they measure where the recorded placement bled cross-shard
  // sends, which is what the partitioner can still fix. Diagonal (local)
  // traffic is usually the largest cell, and boosting same-class edges by
  // it would just drag the cut back toward the recorded placement. The
  // structural edges do the partitioning; the seed steers ties toward
  // measured hot pairs.
  const std::size_t prev = affinity_traffic_.size();
  std::uint64_t t_max = 0;
  for (std::size_t i = 0; i < prev; ++i) {
    for (std::size_t j = 0; j < affinity_traffic_[i].size(); ++j) {
      if (i != j) t_max = std::max(t_max, affinity_traffic_[i][j]);
    }
  }
  // Weights are integers, so "steering ties" needs headroom: structural
  // weights are scaled x16 and the traffic bump tops out at 7, strictly
  // below one structural unit. The seed can therefore reorder edges of
  // equal structural weight but never outvote the topology or a hint.
  const auto scaled = [&](AddressId a, AddressId b, std::uint64_t w) {
    if (prev == 0 || t_max == 0) return w;
    const std::size_t sa = a % prev, sb = b % prev;
    if (sa == sb) return w * 16;
    const std::uint64_t t =
        affinity_traffic_[sa][sb] + affinity_traffic_[sb][sa];
    return w * 16 + 7 * t / t_max;
  };
  // Vertices: every address that can receive a delivery. Edge weights are
  // accumulated commutatively, so unordered link-table iteration cannot
  // perturb the (canonicalized) partition.
  for (AddressId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id] != nullptr) part.add_vertex(id);
  }
  for (const auto& [key, ls] : links_) {
    if (!ls.has_latency) continue;
    const AddressId a = link_src(key), b = link_dst(key);
    part.add_edge(a, b, scaled(a, b, 1));
  }
  for (const AffinityHint& h : affinity_hints_) {
    part.add_edge(h.a, h.b, scaled(h.a, h.b, h.weight));
  }
  for (const auto& [id, shard] : shard_pin_) part.pin(id, shard % shards_);
  auto_shard_ = part.partition().assignment;
}

std::vector<std::vector<Time>> Simulator::compute_lookahead_matrix() const {
  // L[src][dst] = the minimum latency any src-shard -> dst-shard delivery
  // can take. Unconnected pairs fall back to the default latency, so it
  // always bounds every cell; explicit cross-shard links only tighten
  // their own cell. Jitter, bandwidth serialization, and extra_delay only
  // add. Shard pairs without a tight link keep the (wider) default, which
  // is exactly what lets them advance in wider windows than the old global
  // minimum allowed.
  std::vector<std::vector<Time>> m(shards_,
                                   std::vector<Time>(shards_,
                                                     default_latency_));
  for (const auto& [key, ls] : links_) {
    if (!ls.has_latency) continue;
    const std::uint32_t s = shard_of_id(link_src(key));
    const std::uint32_t d = shard_of_id(link_dst(key));
    if (s == d) continue;
    m[s][d] = std::min(m[s][d], ls.latency);
  }
  // Per-pair windows must bound *every* chain an event can ride, not just
  // the direct hop: an event leaving shard k can be relayed through any
  // other shard (even one whose queue is empty right now) and reach i via
  // a path cheaper than the direct k->i cell. Close the matrix to
  // all-pairs shortest paths (Floyd–Warshall; shards_ is small), with the
  // diagonal holding the minimum *cycle* through each shard — the earliest
  // a shard's own pending work can boomerang back into its inbox.
  std::vector<std::vector<Time>> d(shards_,
                                   std::vector<Time>(shards_,
                                                     CalendarQueue::kNever));
  for (std::uint32_t i = 0; i < shards_; ++i) {
    for (std::uint32_t j = 0; j < shards_; ++j) {
      if (i != j) d[i][j] = m[i][j];
    }
  }
  for (std::uint32_t k = 0; k < shards_; ++k) {
    for (std::uint32_t i = 0; i < shards_; ++i) {
      if (d[i][k] == CalendarQueue::kNever) continue;
      for (std::uint32_t j = 0; j < shards_; ++j) {
        if (d[k][j] == CalendarQueue::kNever) continue;
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

void Simulator::build_shards() {
  workers_.clear();
  workers_.reserve(shards_);
  for (std::uint32_t i = 0; i < shards_; ++i) {
    workers_.push_back(
        std::make_unique<Shard>(this, i, shards_, /*is_worker=*/true));
    if (fault_plan_) reseed_faults(*workers_.back());
  }
}

void Simulator::redistribute_initial_events() {
  // Drain the home queue in its exact (time, seq) order and re-home each
  // event on its owning shard with a fresh shard-local seq — relative order
  // within a shard is preserved, so the partition is deterministic.
  Shard& home = *home_;
  while (!home.queue.empty()) {
    EngineEvent ev = home.queue.pop();
    if (ev.kind == EngineEvent::kCallback) {
      // at_node() callbacks carry their owning address (context = id + 1)
      // and run on that address's shard — a workload kickoff originates on
      // the client's own shard instead of turning into a cross-shard push.
      // Untagged at() callbacks stay on shard 0 (workload scaffolding —
      // plan installs, global staging — not per-node hot work).
      const std::uint32_t target =
          ev.context != 0
              ? shard_of_id(static_cast<AddressId>(ev.context - 1))
              : 0;
      push_callback(*workers_[target], ev.time,
                    home.take_callback(ev.handle), 0);
      continue;
    }
    Shard& sh = *workers_[shard_of_id(link_dst(ev.link_key))];
    ev.handle = sh.pool.acquire(home.pool.take(ev.handle));
    enqueue(sh, ev);
  }
}

void Simulator::drain_inbox_into_queue(Shard& sh) {
  sh.inbox.drain(sh.staged);
  if (sh.staged.empty()) return;
  // The deterministic merge: sort the complete window batch by
  // (time, src_shard, src_seq) — a total order independent of arrival
  // interleaving — then enqueue with fresh local seqs. Local events pushed
  // during the window already hold lower seqs, so at equal times local
  // fires before incoming: a fixed, interleaving-free rule.
  std::sort(sh.staged.begin(), sh.staged.end(),
            [](const ShardEvent& a, const ShardEvent& b) {
              return merges_before(a, b);
            });
  for (ShardEvent& xev : sh.staged) {
    EngineEvent ev;
    ev.time = xev.time;
    ev.link_key = xev.link_key;
    ev.context = xev.context;
    ev.latency_sample = xev.latency_sample;
    ev.trace_id = xev.trace_id;
    ev.trace_origin = xev.trace_origin;
    ev.trace_hop = xev.trace_hop;
    ev.handle = sh.pool.acquire(std::move(xev.payload));
    ev.protocol = xev.protocol;
    ev.kind = EngineEvent::kDelivery;
    enqueue(sh, ev);
  }
  sh.staged.clear();
}

void Simulator::replay_deferred(Time cutoff) {
  // K-way merge of the per-shard buffers by (time, shard, buffer order),
  // stopping at `cutoff`. Each buffer is already time-sorted (shards
  // process nondecreasing times), so a linear index per shard suffices —
  // and every record left behind carries time >= cutoff, so successive
  // prefix replays concatenate into the same global order one end-of-run
  // merge would produce. Incremental barrier work is O(newly safe records).
  std::vector<std::size_t> idx(workers_.size(), 0);
  for (;;) {
    std::size_t best = workers_.size();
    Time best_time = 0;
    for (std::size_t s = 0; s < workers_.size(); ++s) {
      const auto& dq = workers_[s]->deferred;
      if (idx[s] >= dq.size()) continue;
      const Time t = dq[idx[s]].time;
      if (t >= cutoff) continue;
      if (best == workers_.size() || t < best_time) {
        best = s;
        best_time = t;
      }
    }
    if (best == workers_.size()) break;
    const DeferredOb& ob = workers_[best]->deferred[idx[best]++];
    home_->now = ob.time;  // taps reading the main clock see the event's time
    observe_delivery(ob);
  }
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    auto& dq = workers_[s]->deferred;
    dq.erase(dq.begin(), dq.begin() + static_cast<std::ptrdiff_t>(idx[s]));
  }
}

void Simulator::apply_pending_plan(Time window_start) {
  {
    std::lock_guard<std::mutex> lk(pending_mu_);
    fault_plan_ = std::move(*pending_plan_);
    pending_plan_.reset();
  }
  reseed_faults(*home_);
  bind_fault_metrics();
  rebuild_fault_tables();
  for (auto& shp : workers_) reseed_faults(*shp);
  // Breach implants run on shard 0 (like every addressless callback). The
  // floor keeps the calendar's monotonic-push contract: shard 0 may have
  // processed past the next window's start.
  Shard& sh0 = *workers_[0];
  schedule_breaches(sh0, std::max(window_start, sh0.now));
}

void Simulator::finish_sharded_run(std::uint64_t windows) {
  replay_deferred(~Time{0});  // full drain; covers an abandoned final window
  shard_stats_.windows = windows;
  Shard& home = *home_;
  std::uint64_t events = 0, packets = 0, bytes = 0;
  FaultStats faults;
  std::size_t peak = 0;
  std::size_t pool_live = home.pool.live();
  std::size_t pool_slots = home.pool.slots();
  merge_lane(home);
  for (const auto& shp : workers_) {
    Shard& sh = *shp;
    home.now = std::max(home.now, sh.now);
    events += sh.events;
    packets += sh.deliveries;
    bytes += sh.delivered_bytes;
    peak += sh.queue_peak;
    pool_live += sh.pool.live();
    pool_slots += sh.pool.slots();
    faults.lost += sh.stats.lost;
    faults.duplicated += sh.stats.duplicated;
    faults.jittered += sh.stats.jittered;
    faults.partition_dropped += sh.stats.partition_dropped;
    faults.offline_dropped += sh.stats.offline_dropped;
    faults.breaches_fired += sh.stats.breaches_fired;
    delivery_latency_m_->merge(sh.latency_hist);
    merge_lane(sh);
    shard_stats_.events[sh.id] = sh.events;
    shard_stats_.deliveries[sh.id] = sh.deliveries;
    // The send split derives from the traffic matrix — row sum minus
    // diagonal and the diagonal itself — so the three views can never
    // disagree (what report_check --require-shards asserts structurally).
    std::uint64_t cross = 0;
    for (std::uint32_t d = 0; d < shards_; ++d) {
      if (d != sh.id) cross += sh.traffic[d];
    }
    shard_stats_.cross_sends[sh.id] = cross;
    shard_stats_.local_sends[sh.id] = sh.traffic[sh.id];
    shard_stats_.busy_ns[sh.id] = sh.busy_ns;
    shard_stats_.barrier_wait_ns[sh.id] = sh.barrier_ns;
    shard_stats_.mailbox_full_stalls[sh.id] = sh.mailbox_full_stalls;
    shard_stats_.traffic[sh.id] = sh.traffic;
  }
  home.deliveries += packets;
  home.delivered_bytes += bytes;
  events_processed_m_->inc(events);
  packets_m_->inc(packets);
  bytes_m_->inc(bytes);
  home.stats.lost += faults.lost;
  home.stats.duplicated += faults.duplicated;
  home.stats.jittered += faults.jittered;
  home.stats.partition_dropped += faults.partition_dropped;
  home.stats.offline_dropped += faults.offline_dropped;
  home.stats.breaches_fired += faults.breaches_fired;
  if (fault_plan_) {
    faults_lost_m_->inc(faults.lost);
    faults_duplicated_m_->inc(faults.duplicated);
    faults_jittered_m_->inc(faults.jittered);
    faults_partition_m_->inc(faults.partition_dropped);
    faults_offline_m_->inc(faults.offline_dropped);
    faults_breaches_m_->inc(faults.breaches_fired);
  }
  // Peak queue depth is the sum of per-shard peaks — an upper bound on the
  // true global instantaneous peak, deterministic and shard-attributable.
  publish_drained(peak, pool_live, pool_slots);
}

Time Simulator::run_sharded() {
  if (sharded_running_) {
    throw std::logic_error("Simulator::run: sharded run already in progress");
  }
  // Placement before lookahead: the pairwise matrix and the initial event
  // redistribution both depend on shard_of_id, which the kMinCut policy
  // rewires here (deterministically — same topology, same placement).
  compute_auto_affinity();
  const std::vector<std::vector<Time>> lookahead = compute_lookahead_matrix();
  Time min_lookahead = default_latency_;
  for (std::uint32_t i = 0; i < shards_; ++i) {
    for (std::uint32_t j = 0; j < shards_; ++j) {
      if (i != j) min_lookahead = std::min(min_lookahead, lookahead[i][j]);
    }
  }
  if (min_lookahead == 0) {
    throw std::invalid_argument(
        "Simulator: sharded run requires a positive minimum cross-shard "
        "link latency (the lookahead window would be empty)");
  }
  build_shards();
  redistribute_initial_events();
  // One lane per shard plus a dedicated coordinator lane: wiretap taps that
  // record flow ops during the barrier replay must not interleave into a
  // worker's (time-monotone) lane, or the incremental prefix commit would
  // see a non-monotone lane and commit out of order.
  if (flow_ != nullptr) flow_->begin_staging(shards_ + 1);

  shard_stats_ = ShardRunStats{};
  shard_stats_.shards = shards_;
  shard_stats_.lookahead_us = min_lookahead;
  shard_stats_.policy = affinity_policy_;
  shard_stats_.events.assign(shards_, 0);
  shard_stats_.deliveries.assign(shards_, 0);
  shard_stats_.cross_sends.assign(shards_, 0);
  shard_stats_.local_sends.assign(shards_, 0);
  shard_stats_.busy_ns.assign(shards_, 0);
  shard_stats_.barrier_wait_ns.assign(shards_, 0);
  shard_stats_.mailbox_full_stalls.assign(shards_, 0);
  shard_stats_.traffic.assign(shards_,
                              std::vector<std::uint64_t>(shards_, 0));

  // Window state: written by the main thread here and by the barrier
  // completion function (all workers parked), read by workers only after a
  // barrier release — which synchronizes-with the completing write.
  // Per-pair windows: shard i may advance to the earliest instant any
  // pending work anywhere could still reach it — end_i = min over shards j
  // with a nonempty queue of (t_j + D[j][i]), where D is the shortest-path
  // closure of the latency matrix (D[i][i] = min cycle, bounding i's own
  // work boomeranging back). Every future cross-shard arrival at i descends
  // from some event pending now at a nonempty shard j with time >= t_j, and
  // every relay chain j -> ... -> i (empty intermediates included) costs at
  // least D[j][i], so it lands at >= t_j + D[j][i] >= end_i: nothing a
  // shard processes this round can be preceded by a later merge, and shard
  // pairs with slack advance in wider windows than the old global minimum.
  std::vector<Time> window_end(shards_, 0);
  std::vector<Time> next(shards_, CalendarQueue::kNever);
  bool done = false;
  std::uint64_t windows = 0;
  std::exception_ptr coordinator_error;

  auto refresh_next = [&]() {
    Time t_min = CalendarQueue::kNever;
    for (std::uint32_t i = 0; i < shards_; ++i) {
      next[i] = workers_[i]->queue.next_time();
      t_min = std::min(t_min, next[i]);
    }
    return t_min;
  };
  auto open_windows = [&]() {
    for (std::uint32_t i = 0; i < shards_; ++i) {
      Time end = CalendarQueue::kNever;
      for (std::uint32_t j = 0; j < shards_; ++j) {
        if (next[j] == CalendarQueue::kNever ||
            lookahead[j][i] == CalendarQueue::kNever) {
          continue;
        }
        end = std::min(end, next[j] + lookahead[j][i]);
      }
      window_end[i] = end;  // kNever: nothing can reach i — run to empty
    }
  };

  if (refresh_next() == CalendarQueue::kNever) {
    done = true;
  } else {
    open_windows();
  }

  sharded_running_ = true;
  obs::Tracer& tracer = obs::global_tracer();
  tracer.set_virtual_clock([this] { return home_->now; });

  auto on_window_complete = [&]() noexcept {
    // Runs with every worker parked: exclusive access to all state. The
    // hosting thread is whichever worker arrived last — blank its TLS (and
    // park its ledger lane on the coordinator lane) so now()/send routing
    // and staged flow ops behave as on the main thread (deterministically),
    // whatever thread won the race.
    Shard* const tls_saved = tls_shard_;
    tls_shard_ = nullptr;
    const std::uint32_t lane_saved = obs::FlowLedger::lane();
    obs::FlowLedger::set_lane(shards_);
    try {
      ++windows;
      // Incremental commit: everything strictly before the next round's
      // first event is safe — no future event (including a pending-plan
      // breach, floored at t_min) can produce an earlier record. Records
      // at exactly t_min stay buffered so they merge with that event's
      // own output next round.
      Time t_min = refresh_next();
      replay_deferred(t_min);
      if (flow_ != nullptr) flow_->commit_staged_before(t_min);
      bool pending = false;
      {
        std::lock_guard<std::mutex> lk(pending_mu_);
        pending = pending_plan_.has_value();
      }
      if (pending) {
        apply_pending_plan(t_min == CalendarQueue::kNever ? home_->now
                                                          : t_min);
        t_min = refresh_next();
      }
      if (abort_.load(std::memory_order_relaxed) ||
          t_min == CalendarQueue::kNever) {
        done = true;
      } else {
        home_->now = t_min;
        if (sampler_ != nullptr && t_min >= sampler_next_) {
          // Window-granular sampling: probes see barrier-consistent state
          // stamped at the window's opening virtual time.
          sampler_->sample_now(t_min);
          sampler_next_ = sampler_->next_due();
        }
        open_windows();
      }
    } catch (...) {
      coordinator_error = std::current_exception();
      done = true;
    }
    obs::FlowLedger::set_lane(lane_saved);
    tls_shard_ = tls_saved;
  };

  std::barrier sends_done(static_cast<std::ptrdiff_t>(shards_));
  std::barrier window_done(static_cast<std::ptrdiff_t>(shards_),
                           on_window_complete);

  auto worker = [&](std::uint32_t idx) {
    Shard& sh = *workers_[idx];
    tls_shard_ = &sh;
    obs::FlowLedger::set_lane(idx);
    // Contention attribution: split each round's wall time between doing
    // work (process + drain) and waiting on the two barriers. The updates
    // land after the barriers release, so coordinator-side probe reads
    // (which run with all workers parked) never race — they just lag one
    // barrier segment.
    using wall = std::chrono::steady_clock;
    const auto ns_between = [](wall::time_point a, wall::time_point b) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
    };
    while (!done) {
      const auto t0 = wall::now();
      if (!abort_.load(std::memory_order_relaxed)) {
        try {
          process_window(sh, window_end[idx]);
        } catch (...) {
          sh.error = std::current_exception();
          abort_.store(true, std::memory_order_relaxed);
        }
      }
      const auto t1 = wall::now();
      // Barrier 1: all sends for this window have landed — every inbox
      // holds its complete batch.
      sends_done.arrive_and_wait();
      const auto t2 = wall::now();
      drain_inbox_into_queue(sh);
      const auto t3 = wall::now();
      // Barrier 2: the completion function replays observability, applies
      // any pending fault plan, and opens the next window.
      window_done.arrive_and_wait();
      const auto t4 = wall::now();
      sh.busy_ns += ns_between(t0, t1) + ns_between(t2, t3);
      sh.barrier_ns += ns_between(t1, t2) + ns_between(t3, t4);
    }
    tls_shard_ = nullptr;
  };

  if (!done) {
    std::vector<std::thread> threads;
    threads.reserve(shards_);
    for (std::uint32_t i = 0; i < shards_; ++i) {
      threads.emplace_back(worker, i);
    }
    for (std::thread& t : threads) t.join();
  }

  tracer.clear_virtual_clock();
  sharded_running_ = false;
  abort_.store(false, std::memory_order_relaxed);
  // Leave the ledger usable (and flush any last staged ops) even when the
  // run is about to rethrow a worker error.
  if (flow_ != nullptr) flow_->end_staging();

  if (coordinator_error) std::rethrow_exception(coordinator_error);
  for (const auto& sh : workers_) {
    if (sh->error) std::rethrow_exception(sh->error);
  }
  finish_sharded_run(windows);
  return home_->now;
}

std::uint64_t Simulator::worker_busy_ns() const {
  std::uint64_t total = 0;
  for (const auto& sh : workers_) total += sh->busy_ns;
  return total;
}

std::uint64_t Simulator::barrier_wait_ns() const {
  std::uint64_t total = 0;
  for (const auto& sh : workers_) total += sh->barrier_ns;
  return total;
}

std::uint64_t Simulator::mailbox_backpressure() const {
  std::uint64_t total = 0;
  for (const auto& sh : workers_) total += sh->mailbox_full_stalls;
  return total;
}

bool Simulator::is_breached(const Address& party) const {
  return breached_at(party).has_value();
}

std::optional<Time> Simulator::breached_at(const Address& party) const {
  const auto id = lookup(party);
  // kNotBreached is later than any clock.
  if (!id || *id >= breached_.size() || breached_[*id] > now()) {
    return std::nullopt;
  }
  return breached_[*id];
}

}  // namespace dcpl::net
