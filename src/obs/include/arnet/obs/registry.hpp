#pragma once

#include <map>
#include <string>
#include <type_traits>
#include <utility>

#include "arnet/obs/metrics.hpp"
#include "arnet/obs/recorder.hpp"

namespace arnet::obs {

/// Per-entity metrics hub: counters, gauges, log-bucketed histograms, and a
/// time-series recorder, all keyed by (metric name, entity). Subsystems are
/// handed a registry pointer and publish into it; exporters (JSONL/CSV) and
/// figure harnesses consume it. Instruments are created on first touch, so
/// publishing code never needs registration ceremony.
///
/// Lookup by (name, entity) copies both strings and walks a string-keyed
/// map, so it is for setup and finish code. A per-event record site binds
/// its instrument once through a Slot (below) and records through the
/// cached reference. Map nodes never move, so a bound reference stays valid
/// for as long as the registry itself is neither moved nor reassigned; a
/// registry must stay put while any of its instruments is bound.
///
/// Ordered maps keep iteration (export, merge) deterministic — a hard
/// requirement for this repo's trace-fingerprint harness.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& entity) {
    return counters_[MetricId{name, entity}];
  }
  Gauge& gauge(const std::string& name, const std::string& entity) {
    return gauges_[MetricId{name, entity}];
  }
  Histogram& histogram(const std::string& name, const std::string& entity) {
    return histograms_[MetricId{name, entity}];
  }
  TimeSeriesRecorder& recorder() { return recorder_; }
  const TimeSeriesRecorder& recorder() const { return recorder_; }

  const std::map<MetricId, Counter>& counters() const { return counters_; }
  const std::map<MetricId, Gauge>& gauges() const { return gauges_; }
  const std::map<MetricId, Histogram>& histograms() const { return histograms_; }

  /// Lookup without creation; nullptr when the instrument does not exist.
  const Counter* find_counter(const std::string& name, const std::string& entity) const {
    auto it = counters_.find(MetricId{name, entity});
    return it == counters_.end() ? nullptr : &it->second;
  }
  const Gauge* find_gauge(const std::string& name, const std::string& entity) const {
    auto it = gauges_.find(MetricId{name, entity});
    return it == gauges_.end() ? nullptr : &it->second;
  }
  const Histogram* find_histogram(const std::string& name, const std::string& entity) const {
    auto it = histograms_.find(MetricId{name, entity});
    return it == histograms_.end() ? nullptr : &it->second;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() && recorder_.empty();
  }

  /// Aggregate another registry into this one: counters add, histograms
  /// merge bucket-wise, gauges latest-wins, series append. Used to combine
  /// per-shard or per-run registries into one report.
  void merge_from(const MetricsRegistry& o) {
    for (const auto& [id, c] : o.counters_) counters_[id].merge(c);
    for (const auto& [id, g] : o.gauges_) gauges_[id].merge(g);
    for (const auto& [id, h] : o.histograms_) histograms_[id].merge(h);
    recorder_.merge_from(o.recorder_);
  }

 private:
  std::map<MetricId, Counter> counters_;
  std::map<MetricId, Gauge> gauges_;
  std::map<MetricId, Histogram> histograms_;
  TimeSeriesRecorder recorder_;
};

/// One instrument of a registry, resolved on first use and then held by
/// reference: the binding for per-event record sites. Dereferencing calls
/// `counter/gauge/histogram(name, entity)` once and caches the result, so
/// the instrument is still created on first touch (an instrument that is
/// never recorded never appears in an export) and the registry's contents
/// are exactly what the equivalent lookups would have produced.
///
/// A default-constructed or null-registry slot must not be dereferenced.
/// The registry must outlive the slot and stay put (see MetricsRegistry).
template <class Instrument>
class Slot {
  static_assert(std::is_same_v<Instrument, Counter> || std::is_same_v<Instrument, Gauge> ||
                    std::is_same_v<Instrument, Histogram>,
                "a Slot holds a Counter, Gauge or Histogram");

 public:
  Slot() = default;
  Slot(MetricsRegistry* registry, std::string name, std::string entity)
      : registry_(registry), id_{std::move(name), std::move(entity)} {}

  Instrument& operator*() {
    if (!instrument_) instrument_ = &resolve();
    return *instrument_;
  }
  Instrument* operator->() { return &**this; }

 private:
  Instrument& resolve() {
    if constexpr (std::is_same_v<Instrument, Counter>) {
      return registry_->counter(id_.name, id_.entity);
    } else if constexpr (std::is_same_v<Instrument, Gauge>) {
      return registry_->gauge(id_.name, id_.entity);
    } else {
      return registry_->histogram(id_.name, id_.entity);
    }
  }

  MetricsRegistry* registry_ = nullptr;
  MetricId id_;
  Instrument* instrument_ = nullptr;
};

using CounterSlot = Slot<Counter>;
using GaugeSlot = Slot<Gauge>;
using HistogramSlot = Slot<Histogram>;

}  // namespace arnet::obs
