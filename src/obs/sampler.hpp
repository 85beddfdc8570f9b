// Virtual-time time-series sampling for the telemetry plane.
//
// A TimeSeriesSampler snapshots a set of registered probes (counters,
// gauges, or arbitrary double-valued callbacks) on a fixed *virtual-time*
// cadence, so a million-user run yields the same number of points per
// simulated second regardless of host speed — the series answer "when
// during the run does the queue blow up", not "when on the wall clock".
//
// Memory is bounded: points live in a ring of fixed capacity, and when the
// ring fills the sampler decimates it (drops every other point) and doubles
// its cadence, so an arbitrarily long run always keeps `capacity` points
// spanning the whole run at the coarsest-necessary resolution. Probes are
// instantaneous snapshots, so decimation never invents values — every
// retained point is a real observation.
//
// The hot-path contract is one comparison per event: callers poll
// next_due() (or cache it) and only pay the probe walk when virtual time
// crosses the deadline. Exports: a "timeseries" JSON section for
// dcpl-bench-report/2, Chrome trace counter events ("ph":"C") loadable next
// to the span trace, and last-value publication into a metrics Registry for
// Prometheus exposition.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace dcpl::obs {

class TimeSeriesSampler {
 public:
  /// Samples every `interval_us` of virtual time; keeps at most `capacity`
  /// points per series (capacity is clamped to >= 2 and rounded up to even
  /// so decimation halves it exactly).
  explicit TimeSeriesSampler(std::uint64_t interval_us,
                             std::size_t capacity = 512);

  /// Registers a probe evaluated at every sample instant. Probes must stay
  /// valid for the sampler's lifetime and must not mutate the simulation.
  void add_probe(std::string name, std::function<double()> probe);

  /// Convenience registrations for the common metric types.
  void add_counter(std::string name, const Counter& c);
  void add_gauge(std::string name, const Gauge& g);

  /// Virtual time at/after which the next sample is due.
  std::uint64_t next_due() const { return next_due_; }

  /// Current cadence (doubles every time the ring decimates).
  std::uint64_t interval_us() const { return interval_us_; }

  /// Samples iff `t_virtual_us` has reached the deadline; returns whether a
  /// sample was taken. One compare when it has not.
  bool maybe_sample(std::uint64_t t_virtual_us) {
    if (t_virtual_us < next_due_) return false;
    sample_now(t_virtual_us);
    return true;
  }

  /// Unconditionally records one sample instant at virtual time `t` and
  /// advances the deadline past `t`.
  void sample_now(std::uint64_t t);

  std::size_t probe_count() const { return probes_.size(); }
  std::size_t samples_taken() const { return samples_taken_; }
  std::size_t size() const { return times_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t decimations() const { return decimations_; }

  /// Sample instants (virtual us), oldest first.
  const std::vector<std::uint64_t>& times() const { return times_; }

  /// Points for probe `i` (registration order), parallel to times().
  const std::vector<double>& points(std::size_t i) const {
    return probes_[i].points;
  }
  const std::string& name(std::size_t i) const { return probes_[i].name; }

  /// Most recent sample of the named series (0 before the first sample or
  /// for an unknown name).
  double last(const std::string& probe_name) const;

  /// The "timeseries" object of dcpl-bench-report/2:
  ///   { "interval_us": current cadence, "samples_taken": total instants,
  ///     "retained": points kept, "decimations": ring halvings,
  ///     "series": { "<name>": [[t_us, value], ...], ... } }
  void write_json(JsonWriter& w) const;

  /// Publishes each series' last value as a gauge named after the series in
  /// the "ts" scope of `registry`, so metrics_to_prometheus() exposes the
  /// sampler's current state as dcpl_ts_<name> gauges.
  void publish_last_values(Registry& registry) const;

  /// Chrome trace counter events ("ph":"C", pid 3) in the obs::chrome_trace
  /// envelope — load next to the span trace to see the series on the
  /// virtual timeline in Perfetto.
  std::string to_chrome_json() const;

 private:
  struct Probe {
    std::string name;
    std::function<double()> fn;
    std::vector<double> points;
  };

  /// Drops every other point and doubles the cadence.
  void decimate();

  std::uint64_t interval_us_;
  std::uint64_t next_due_ = 0;
  std::size_t capacity_;
  std::size_t samples_taken_ = 0;
  std::size_t decimations_ = 0;
  std::vector<std::uint64_t> times_;
  std::vector<Probe> probes_;
};

}  // namespace dcpl::obs
