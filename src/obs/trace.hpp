// Span tracing: RAII spans carrying both wall-clock time and the network
// simulator's virtual time, exported in the Chrome trace-event JSON format
// (load the file at https://ui.perfetto.dev or chrome://tracing).
//
// Tracks: pid 1 carries the wall-clock timeline; pid 2 mirrors every span
// onto the virtual-time axis when a virtual clock is attached (the
// simulator attaches one while it runs), so a trace shows where host CPU
// goes *and* where simulated time goes in the same file.
//
// Tracing is off by default: a disabled tracer makes Span construction a
// single branch, so instrumentation can stay in hot paths unconditionally.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace dcpl::obs {

/// One completed span ("ph":"X" in the trace-event format).
struct TraceEvent {
  std::string name;
  std::string category;
  std::uint64_t ts_us = 0;    // wall time since tracer epoch
  std::uint64_t dur_us = 0;   // wall duration
  bool has_virtual = false;
  std::uint64_t vts_us = 0;   // simulator virtual time at span open
  std::uint64_t vdur_us = 0;  // virtual time elapsed inside the span
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  Tracer();

  void enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Attached by the simulator; spans sample it at open and close.
  void set_virtual_clock(std::function<std::uint64_t()> clock) {
    virtual_clock_ = std::move(clock);
  }
  void clear_virtual_clock() { virtual_clock_ = nullptr; }
  bool has_virtual_clock() const { return static_cast<bool>(virtual_clock_); }
  std::uint64_t virtual_now() const {
    return virtual_clock_ ? virtual_clock_() : 0;
  }

  std::uint64_t wall_now_us() const;

  void record(TraceEvent event) { events_.push_back(std::move(event)); }
  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// The recorded spans as a chrome_trace() document.
  std::string to_chrome_json() const;

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::function<std::uint64_t()> virtual_clock_;
  std::vector<TraceEvent> events_;
};

/// The one Chrome trace-event envelope every trace artifact uses (spans,
/// request waterfalls, sampler counters): {"traceEvents":[...],
/// "displayTimeUnit":"ms"}, the document Perfetto and chrome://tracing
/// load. `events` appends the array's elements.
std::string chrome_trace(const std::function<void(JsonWriter&)>& events);

/// One "ph":"M" metadata event naming the track of process `pid`.
void write_process_name(JsonWriter& w, int pid, const char* name);

/// Process-wide tracer: the default sink, so protocol modules can open
/// spans without plumbing a handle through every constructor.
Tracer& global_tracer();

/// RAII span. Records one TraceEvent on destruction when the tracer is
/// enabled; near-free otherwise.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string category = "proto")
      : tracer_(tracer), active_(tracer.enabled()) {
    if (!active_) return;
    event_.name = std::move(name);
    event_.category = std::move(category);
    event_.ts_us = tracer_.wall_now_us();
    if (tracer_.has_virtual_clock()) {
      event_.has_virtual = true;
      event_.vts_us = tracer_.virtual_now();
    }
  }

  /// Span on the global tracer.
  explicit Span(std::string name, std::string category = "proto")
      : Span(global_tracer(), std::move(name), std::move(category)) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(std::string key, std::string value) {
    if (active_) event_.args.emplace_back(std::move(key), std::move(value));
  }

  ~Span() {
    if (!active_) return;
    event_.dur_us = tracer_.wall_now_us() - event_.ts_us;
    if (event_.has_virtual && tracer_.has_virtual_clock()) {
      event_.vdur_us = tracer_.virtual_now() - event_.vts_us;
    }
    tracer_.record(std::move(event_));
  }

 private:
  Tracer& tracer_;
  bool active_;
  TraceEvent event_;
};

}  // namespace dcpl::obs
