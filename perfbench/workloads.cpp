#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arnet/core/shootout.hpp"
#include "arnet/fleet/balancer.hpp"
#include "arnet/fleet/scenario.hpp"
#include "arnet/fluid/city.hpp"
#include "arnet/fluid/fluid.hpp"
#include "arnet/obs/export.hpp"
#include "arnet/obs/registry.hpp"
#include "arnet/runner/experiment.hpp"
#include "arnet/sim/rng.hpp"
#include "arnet/slo/slo.hpp"
#include "arnet/trace/sampler.hpp"
#include "arnet/trace/trace.hpp"
#include "arnet/vision/pipeline.hpp"
#include "arnet/vision/synth.hpp"
#include "checks.hpp"

namespace perfbench {

namespace {

using namespace arnet;

double ms_since(std::int64_t t0) { return static_cast<double>(wall_ns() - t0) * 1e-6; }

void tally(PassScore& s, bool ok, const std::string& why) {
  ++s.attempted;
  if (!ok) {
    ++s.failed;
    s.failures.push_back(why);
  }
}

std::string export_jsonl(const obs::MetricsRegistry& reg) {
  std::ostringstream os;
  obs::write_jsonl(reg, os);
  return os.str();
}

std::string export_slo(const std::vector<const slo::SloTracker*>& trackers) {
  std::ostringstream os;
  slo::write_slo_jsonl(trackers, os);
  return os.str();
}

// ------------------------------------------------------------- city_day

void digest_fluid(Digest& d, const fluid::FluidResult& r) {
  d.str(r.name);
  d.u64(r.arrivals);
  d.u64(r.admitted);
  d.u64(r.downgraded);
  d.u64(r.rejected);
  d.i64(r.frames);
  d.i64(r.misses);
  for (double v : {r.mean_ms, r.min_ms, r.max_ms, r.p50_ms, r.p90_ms, r.p99_ms,
                   r.miss_rate, r.served_fps, r.peak_sessions, r.knee_sessions,
                   r.backlog_end, r.sim_seconds}) {
    d.f64(v);
  }
  d.i64(r.first_breach);
  d.i64(r.ticks);
  d.u64(r.occupancy.size());
  for (double v : r.occupancy) d.f64(v);
}

/// A day of city cells stepped through FluidCell, with the telemetry
/// scale_city attaches (one registry and one SLO tracker per cell), then the
/// registry merge and the JSONL/SLO exports. Runs fluid, the embedded
/// AdmissionController, slo and obs, and no simulator events.
class CityDay final : public Workload {
 public:
  CityDay(std::uint64_t seed, bool tiny) {
    city_.seed = seed;
    if (tiny) {
      // scale_city's smoke day: same archetypes and code paths, 1/48 the ticks.
      city_.day = sim::seconds(1800);
      city_.tick = sim::milliseconds(250);
      city_.mean_lifetime_s = 120.0;
    }
    pick_cells(tiny ? 5 : kCells);
  }

  void release() override {
    cells_.clear();
    slos_.clear();
    regs_.clear();
    results_.clear();
    merged_ = obs::MetricsRegistry{};
    metrics_jsonl_.clear();
    slo_jsonl_.clear();
  }

  void setup(SpanRecorder* rec) override {
    const std::size_t n = indices_.size();
    regs_ = std::vector<obs::MetricsRegistry>(n);
    slos_.resize(n);
    admit_.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      const auto cell = static_cast<std::int32_t>(i);
      ScopedSpan span(rec, "fluid.setup", cell);
      fluid::FluidConfig f = fluid::make_city_cell(
          city_, indices_[i], runner::derive_seed(city_.seed, indices_[i]));
      {
        ScopedSpan s(rec, "slo.setup", cell);
        slos_[i] = std::make_unique<slo::SloTracker>(fluid::city_slo_config(city_, f.entity));
      }
      f.metrics = &regs_[i];
      f.slo = slos_[i].get();
      admit_[i] = f.admission.enabled;
      cells_.push_back(std::make_unique<fluid::FluidCell>(std::move(f)));
    }
  }

  void run(SpanRecorder* rec) override {
    const std::size_t n = cells_.size();
    results_.assign(n, fluid::FluidResult{});
    cell_ms_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t t0 = wall_ns();
      const auto cell = static_cast<std::int32_t>(i);
      fluid::FluidCell& fc = *cells_[i];
      const fluid::FluidConfig& cfg = fc.config();
      // Same horizon as FluidCell::run(); blocks of ticks keep the span clock
      // cheap next to a ~220 ns step.
      const std::int64_t total =
          std::max<std::int64_t>(1, (cfg.duration + cfg.tick - 1) / cfg.tick);
      const char* step_span = admit_[i] ? "fluid.step.admit" : "fluid.step.open";
      for (std::int64_t done = 0; done < total;) {
        const std::int64_t block = std::min(kStepBlock, total - done);
        ScopedSpan span(rec, step_span, cell);
        for (std::int64_t k = 0; k < block; ++k) fc.step();
        done += block;
      }
      {
        ScopedSpan span(rec, "fluid.finish", cell);
        results_[i] = fc.finish();
      }
      {
        ScopedSpan span(rec, "obs.publish", cell);
        publish(i);
      }
      // Like run_city_cell, a cell's state lives only through its own day.
      cells_[i].reset();
      cell_ms_[i] = ms_since(t0);
    }
    {
      ScopedSpan span(rec, "obs.merge");
      for (const obs::MetricsRegistry& r : regs_) merged_.merge_from(r);
    }
    {
      ScopedSpan span(rec, "obs.export");
      metrics_jsonl_ = export_jsonl(merged_);
    }
    {
      ScopedSpan span(rec, "slo.export");
      std::vector<const slo::SloTracker*> trackers;
      for (const auto& t : slos_) trackers.push_back(t.get());
      slo_jsonl_ = export_slo(trackers);
    }
  }

  PassScore score() const override {
    PassScore s;
    Digest outcome;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const fluid::FluidResult& r = results_[i];
      digest_fluid(outcome, r);
      std::string why;
      tally(s, fluid_cell_ok(r, &why), why);
      s.frames += r.frames;
      s.frame_ms.push_back(cell_ms_[i] / static_cast<double>(std::max<std::int64_t>(1, r.frames)));
    }
    Digest artifacts;
    artifacts.str(metrics_jsonl_);
    artifacts.str(slo_jsonl_);
    s.outcome = outcome.value();
    s.artifacts = artifacts.value();
    return s;
  }

  void layers(const std::vector<Span>& spans, std::size_t begin, std::size_t end,
              Metrics& out) const override {
    double admit_ticks = 0.0, open_ticks = 0.0;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      (admit_[i] ? admit_ticks : open_ticks) += static_cast<double>(results_[i].ticks);
    }
    const double admit_ms = span_ms(spans, begin, end, "fluid.step.admit");
    const double open_ms = span_ms(spans, begin, end, "fluid.step.open");
    out["fluid.step_ns"] = (admit_ms + open_ms) * 1e6 / std::max(1.0, admit_ticks + open_ticks);
    out["fluid.step_ns.admit"] = admit_ms * 1e6 / std::max(1.0, admit_ticks);
    out["fluid.step_ns.open"] = open_ms * 1e6 / std::max(1.0, open_ticks);
    out["fluid.ticks"] = admit_ticks + open_ticks;
    out["fluid.setup_ms"] = layer_times(spans, begin, end)["fluid.setup"].self_ms;
    out["fluid.finish_ms"] = span_ms(spans, begin, end, "fluid.finish");
    out["obs.merge_ms"] = span_ms(spans, begin, end, "obs.merge");
    out["obs.export_ms"] = span_ms(spans, begin, end, "obs.export");
    out["obs.export_bytes"] = static_cast<double>(metrics_jsonl_.size());
    out["slo.export_ms"] = span_ms(spans, begin, end, "slo.export");
  }

 private:
  // 24 of the 400 cells of the default 20x20 city, a day each: about one
  // host second per pass on a 2020s x86 core.
  static constexpr std::size_t kCells = 24;
  static constexpr std::int64_t kStepBlock = 1024;

  /// `count` cells with the archetypes in their whole-city proportions
  /// (largest remainder); the seed picks which cells of each archetype.
  /// Cells of one archetype differ only in diurnal phase and stream, so the
  /// pass's work hardly depends on the pick.
  void pick_cells(std::size_t count) {
    const std::vector<fluid::CityArchetype> archetypes = fluid::default_city_archetypes();
    std::vector<std::vector<std::size_t>> by_arch(archetypes.size());
    for (std::size_t i = 0; i < city_.cells(); ++i) {
      const int cx = static_cast<int>(i) % city_.grid_x;
      const int cy = static_cast<int>(i) / city_.grid_x;
      by_arch[fluid::archetype_index(city_, cx, cy)].push_back(i);
    }
    std::vector<std::size_t> quota(by_arch.size(), 0);
    std::vector<std::pair<double, std::size_t>> remainders;
    std::size_t assigned = 0;
    for (std::size_t a = 0; a < by_arch.size(); ++a) {
      const double exact = static_cast<double>(count * by_arch[a].size()) /
                           static_cast<double>(city_.cells());
      // Every archetype keeps at least one cell so all five code paths run.
      quota[a] = std::max<std::size_t>(1, static_cast<std::size_t>(exact));
      assigned += quota[a];
      remainders.emplace_back(exact - static_cast<double>(quota[a]), a);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& x, const auto& y) {
                return x.first != y.first ? x.first > y.first : x.second < y.second;
              });
    for (std::size_t k = 0; assigned < count && k < remainders.size(); ++k, ++assigned) {
      ++quota[remainders[k].second];
    }
    sim::Rng pick(runner::derive_seed(city_.seed, kPickStream));
    for (std::size_t a = 0; a < by_arch.size(); ++a) {
      std::vector<std::size_t>& pool = by_arch[a];
      for (std::size_t k = 0; k < quota[a] && k < pool.size(); ++k) {
        const auto j = static_cast<std::size_t>(
            pick.uniform_int(static_cast<std::int64_t>(k),
                             static_cast<std::int64_t>(pool.size()) - 1));
        std::swap(pool[k], pool[j]);
        indices_.push_back(pool[k]);
      }
    }
    std::sort(indices_.begin(), indices_.end());
  }

  /// The per-cell gauges run_city_cell publishes after a cell's day.
  void publish(std::size_t i) {
    const fluid::FluidResult& r = results_[i];
    obs::MetricsRegistry& m = regs_[i];
    const std::string& entity = r.name;
    slos_[i]->publish(m);
    m.gauge("city.peak_sessions", entity).set(r.peak_sessions);
    m.gauge("city.knee_sessions", entity).set(r.knee_sessions);
    m.gauge("city.p50_ms", entity).set(r.p50_ms);
    m.gauge("city.p99_ms", entity).set(r.p99_ms);
    m.gauge("city.miss_rate", entity).set(r.miss_rate);
    m.gauge("city.served_fps", entity).set(r.served_fps);
    m.gauge("city.rejected", entity).set(static_cast<double>(r.rejected));
    m.gauge("city.first_breach_s", entity)
        .set(r.first_breach < 0 ? -1.0 : sim::to_seconds(r.first_breach));
  }

  // Past any cell index of the grid, so the pick stream never collides
  // with a cell's derive_seed(seed, index) stream.
  static constexpr std::uint64_t kPickStream = 1u << 20;

  fluid::CityConfig city_;
  std::vector<std::size_t> indices_;
  std::vector<bool> admit_;
  std::vector<obs::MetricsRegistry> regs_;
  std::vector<std::unique_ptr<slo::SloTracker>> slos_;
  std::vector<std::unique_ptr<fluid::FluidCell>> cells_;
  std::vector<fluid::FluidResult> results_;
  std::vector<double> cell_ms_;
  obs::MetricsRegistry merged_;
  std::string metrics_jsonl_;
  std::string slo_jsonl_;
};

// ---------------------------------------------------------- fleet_sweep

void digest_cell(Digest& d, const fleet::CellResult& r) {
  d.str(r.name);
  d.u64(r.arrivals);
  d.u64(r.admitted);
  d.u64(r.downgraded);
  d.u64(r.rejected);
  d.i64(r.frames);
  d.i64(r.results);
  d.i64(r.misses);
  for (double v : {r.mean_ms, r.min_ms, r.max_ms, r.p50_ms, r.p90_ms, r.p99_ms,
                   r.miss_rate, r.served_fps, r.sim_seconds}) {
    d.f64(v);
  }
  d.u64(r.servers_final);
  d.i64(r.sim_events);
}

struct FleetMode {
  const char* name;
  const char* span;
  bool batched, autoscale, admit;
};

constexpr std::array<FleetMode, 4> kFleetModes = {{
    {"batched", "fleet.cell.batched", true, false, false},
    {"unbatched", "fleet.cell.unbatched", false, false, false},
    {"autoscale", "fleet.cell.autoscale", true, true, false},
    {"admission", "fleet.cell.admission", true, false, true},
}};

/// One capacity cell of scale_fleet's grid, with its run index there (the
/// index its seed is derived from) and its serving mode in kFleetModes.
struct FleetCell {
  fleet::CellConfig cfg;
  std::uint64_t run_index = 0;
  std::size_t mode = 0;
};

/// scale_fleet's build_cells, in its order and with its cell names: the three
/// balancer policies batched and least-outstanding unbatched, each over eight
/// user levels, then autoscale and admission at the overload levels. The
/// smoke grid is scale_fleet's --smoke cells (10 s each); selftest.py checks
/// that it exports byte for byte what scale_fleet --smoke does.
std::vector<FleetCell> scale_fleet_grid(bool smoke, sim::Time duration) {
  using P = fleet::BalancerPolicy;
  std::vector<FleetCell> grid;
  auto add = [&](double users, P policy, std::size_t mode) {
    const FleetMode& m = kFleetModes[mode];
    FleetCell c;
    std::ostringstream name;
    name << "u" << std::setw(3) << std::setfill('0') << static_cast<int>(users) << "/"
         << fleet::to_string(policy) << "/batch=" << (m.batched ? "on" : "off")
         << "/as=" << (m.autoscale ? "on" : "off") << "/adm=" << (m.admit ? "on" : "off");
    c.cfg.name = name.str();
    c.cfg.offered_users = users;
    c.cfg.policy = policy;
    c.cfg.batched = m.batched;
    c.cfg.autoscale = m.autoscale;
    c.cfg.admit = m.admit;
    c.cfg.duration = duration;
    c.run_index = grid.size();
    c.mode = mode;
    grid.push_back(std::move(c));
  };
  if (smoke) {
    add(50, P::kLeastOutstanding, 0);
    for (std::size_t mode = 0; mode < kFleetModes.size(); ++mode) {
      add(200, P::kLeastOutstanding, mode);
    }
    return grid;
  }
  const std::array<double, 8> levels = {25, 50, 75, 100, 125, 150, 175, 200};
  for (P policy : {P::kRoundRobin, P::kLeastOutstanding, P::kLatencyEwma}) {
    for (double u : levels) add(u, policy, 0);
  }
  for (double u : levels) add(u, P::kLeastOutstanding, 1);
  for (double u : {100.0, 150.0, 200.0}) add(u, P::kLeastOutstanding, 2);
  for (double u : {100.0, 150.0, 200.0}) add(u, P::kLeastOutstanding, 3);
  return grid;
}

/// 20 of scale_fleet's 38 cells, each group in its grid share (largest
/// remainder of 20 x 8/38 and 20 x 3/38). Each of the four curves keeps every
/// other user level, the odd levels (25/75/125/175) on round-robin and
/// latency-EWMA and the even ones (50/100/150/200) on least-outstanding and
/// unbatched, so every level of 25-200 appears as often as in scale_fleet.
/// Autoscale and admission keep 100 and 200, the ends of their overload range.
std::vector<FleetCell> fleet_sweep_cells(bool tiny) {
  if (tiny) return scale_fleet_grid(true, sim::seconds(10));
  std::vector<FleetCell> cells;
  for (FleetCell& c : scale_fleet_grid(false, sim::seconds(30))) {
    const auto users = static_cast<int>(c.cfg.offered_users);
    bool keep = false;
    if (c.mode >= 2) {
      keep = users != 150;
    } else {
      const bool even_curve = c.cfg.policy == fleet::BalancerPolicy::kLeastOutstanding;
      keep = (users % 50 == 0) == even_curve;
    }
    if (keep) cells.push_back(std::move(c));
  }
  return cells;
}

/// The attachments scale_fleet --slo yes gives each cell; either half can be
/// left off for the detach ablations.
struct FleetTelemetry {
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<trace::TailSampler> sampler;
  std::unique_ptr<slo::SloTracker> slo;

  FleetTelemetry(const fleet::CellConfig& cell, std::uint64_t cell_seed, bool registry,
                 bool tracing) {
    if (registry) metrics = std::make_unique<obs::MetricsRegistry>();
    if (!tracing) return;
    tracer = std::make_unique<trace::Tracer>();
    tracer->set_sink_only(true);
    trace::SamplerConfig sc;
    sc.seed = runner::derive_seed(cell_seed, 0x5A3917);
    sampler = std::make_unique<trace::TailSampler>(sc);
    slo::SloConfig lc;
    lc.entity = cell.name;
    slo = std::make_unique<slo::SloTracker>(lc);
  }

  fleet::CellTelemetry view() const {
    fleet::CellTelemetry t;
    t.metrics = metrics.get();
    t.tracer = tracer.get();
    t.sampler = sampler.get();
    t.slo = slo.get();
    return t;
  }
};

/// A proportional subset of scale_fleet's capacity cells (25-200 users, three
/// balancer policies, four serving modes) with its full telemetry set, then
/// the registry merge and the JSONL/SLO/sample exports. Discrete-event load
/// at frame granularity on sim and fleet with the obs/trace record path hot,
/// and no net or transport.
class FleetSweep final : public Workload {
 public:
  FleetSweep(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void release() override {
    cells_.clear();
    seeds_.clear();
    modes_.clear();
    tele_.clear();
    results_.clear();
    merged_ = obs::MetricsRegistry{};
    metrics_jsonl_.clear();
    slo_jsonl_.clear();
    samples_jsonl_.clear();
  }

  void setup(SpanRecorder* /*rec*/) override {
    for (FleetCell& c : fleet_sweep_cells(tiny_)) {
      // The stream scale_fleet gives this cell under root seed `seed_`.
      seeds_.push_back(runner::derive_seed(seed_, c.run_index));
      modes_.push_back(c.mode);
      tele_.push_back(std::make_unique<FleetTelemetry>(c.cfg, seeds_.back(), true, true));
      cells_.push_back(std::move(c.cfg));
    }
  }

  void run(SpanRecorder* rec) override {
    const std::size_t n = cells_.size();
    results_.assign(n, fleet::CellResult{});
    cell_ms_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t t0 = wall_ns();
      {
        ScopedSpan span(rec, kFleetModes[modes_[i]].span, static_cast<std::int32_t>(i));
        results_[i] = fleet::run_capacity_cell(cells_[i], seeds_[i], tele_[i]->view());
      }
      cell_ms_[i] = ms_since(t0);
    }
    {
      ScopedSpan span(rec, "obs.merge");
      for (const auto& t : tele_) merged_.merge_from(*t->metrics);
    }
    {
      ScopedSpan span(rec, "obs.export");
      metrics_jsonl_ = export_jsonl(merged_);
    }
    {
      ScopedSpan span(rec, "slo.export");
      std::vector<const slo::SloTracker*> trackers;
      for (const auto& t : tele_) trackers.push_back(t->slo.get());
      slo_jsonl_ = export_slo(trackers);
    }
    {
      ScopedSpan span(rec, "trace.export");
      std::ostringstream os;
      trace::write_samples_header(os);
      for (std::size_t i = 0; i < n; ++i) {
        trace::append_samples_run(*tele_[i]->sampler, *tele_[i]->tracer, cells_[i].name, os);
      }
      trace::write_samples_end(os, n);
      samples_jsonl_ = os.str();
    }
  }

  PassScore score() const override {
    PassScore s;
    Digest outcome;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const fleet::CellResult& r = results_[i];
      digest_cell(outcome, r);
      std::string why;
      tally(s, fleet_cell_ok(r, &why), why);
      s.frames += r.results;
      s.frame_ms.push_back(cell_ms_[i] / static_cast<double>(std::max<std::int64_t>(1, r.results)));
    }
    Digest exported;
    exported.str(metrics_jsonl_);
    exported.str(slo_jsonl_);
    exported.str(samples_jsonl_);
    s.outcome = outcome.value();
    s.artifacts = exported.value();
    return s;
  }

  std::vector<std::pair<std::string, std::string>> artifacts() const override {
    return {{"scale_fleet_metrics.jsonl", metrics_jsonl_},
            {"scale_fleet_slo.jsonl", slo_jsonl_},
            {"scale_fleet_samples.jsonl", samples_jsonl_}};
  }

  void layers(const std::vector<Span>& spans, std::size_t begin, std::size_t end,
              Metrics& out) const override {
    double cells_ms = 0.0;
    for (const FleetMode& m : kFleetModes) {
      const double ms = span_ms(spans, begin, end, m.span);
      out[std::string("fleet.cell_ms.") + m.name] = ms;
      cells_ms += ms;
    }
    double results = 0.0, events = 0.0;
    for (const fleet::CellResult& r : results_) {
      results += static_cast<double>(r.results);
      events += static_cast<double>(r.sim_events);
    }
    double requests = 0.0, batches = 0.0;
    for (const auto& [id, c] : merged_.counters()) {
      if (id.name == "fleet.requests") requests += static_cast<double>(c.value());
      if (id.name == "fleet.batches") batches += static_cast<double>(c.value());
    }
    double seen = 0.0, retained = 0.0;
    for (const auto& t : tele_) {
      seen += static_cast<double>(t->sampler->stats().frames_seen);
      retained += static_cast<double>(t->sampler->retained_count());
    }
    out["fleet.frames"] = results;
    out["fleet.batch_fill"] = requests / std::max(1.0, batches);
    out["sim.events"] = events;
    out["sim.ns_per_event"] = cells_ms * 1e6 / std::max(1.0, events);
    out["obs.merge_ms"] = span_ms(spans, begin, end, "obs.merge");
    out["obs.export_ms"] = span_ms(spans, begin, end, "obs.export");
    out["obs.export_bytes"] = static_cast<double>(metrics_jsonl_.size());
    out["slo.export_ms"] = span_ms(spans, begin, end, "slo.export");
    out["trace.export_ms"] = span_ms(spans, begin, end, "trace.export");
    out["trace.retained_frac"] = retained / std::max(1.0, seen);
  }

  /// Each cell three times, in rotating order: full telemetry, no registry,
  /// and registry only (no tracer, sampler or SLO tracker). The shares are
  /// the cell time that goes away with each detach; the cell outcome must
  /// not change, since telemetry only observes.
  void ablate(Metrics& out, PassScore& score) override {
    std::array<double, 3> total_ms{};
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      Digest want;
      digest_cell(want, results_[i]);
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t variant = (i + k) % 3;
        FleetTelemetry t(cells_[i], seeds_[i], variant != 1, variant != 2);
        const std::int64_t t0 = wall_ns();
        const fleet::CellResult r = fleet::run_capacity_cell(cells_[i], seeds_[i], t.view());
        total_ms[variant] += ms_since(t0);
        Digest got;
        digest_cell(got, r);
        tally(score, got.value() == want.value(),
              cells_[i].name + ": outcome changed when telemetry was detached");
      }
    }
    out["obs.record_share"] = 1.0 - total_ms[1] / total_ms[0];
    out["trace.share"] = 1.0 - total_ms[2] / total_ms[0];
  }

 private:
  std::uint64_t seed_;
  bool tiny_;
  std::vector<fleet::CellConfig> cells_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::size_t> modes_;
  std::vector<std::unique_ptr<FleetTelemetry>> tele_;
  std::vector<fleet::CellResult> results_;
  std::vector<double> cell_ms_;
  obs::MetricsRegistry merged_;
  std::string metrics_jsonl_;
  std::string slo_jsonl_;
  std::string samples_jsonl_;
};

// --------------------------------------------------- transport_shootout

void digest_shootout(Digest& d, const core::ShootoutCellResult& r) {
  d.str(r.name);
  d.i64(r.frames_sent);
  d.i64(r.frames_on_time);
  d.i64(r.frames_late);
  d.i64(r.frames_incomplete);
  for (double v : {r.hit_ratio, r.mean_ms, r.p50_ms, r.p90_ms, r.p99_ms, r.min_ms,
                   r.max_ms, r.goodput_mbps, r.sim_seconds}) {
    d.f64(v);
  }
  d.i64(r.sim_events);
}

constexpr std::array<core::ShootoutNetwork, 3> kNetworks = {
    core::ShootoutNetwork::kWifi, core::ShootoutNetwork::kLte, core::ShootoutNetwork::kNr5g};
constexpr std::array<const char*, 3> kNetworkNames = {"wifi", "lte", "nr"};
constexpr std::array<core::ShootoutTransport, 5> kTransports = {
    core::ShootoutTransport::kArtp, core::ShootoutTransport::kReno,
    core::ShootoutTransport::kCubic, core::ShootoutTransport::kBbr,
    core::ShootoutTransport::kQuicLite};
constexpr std::array<const char*, 5> kTransportNames = {"artp", "reno", "cubic", "bbr",
                                                        "quic"};
constexpr std::array<std::array<const char*, 5>, 3> kShootoutSpans = {{
    {"shootout.wifi.artp", "shootout.wifi.reno", "shootout.wifi.cubic",
     "shootout.wifi.bbr", "shootout.wifi.quic"},
    {"shootout.lte.artp", "shootout.lte.reno", "shootout.lte.cubic", "shootout.lte.bbr",
     "shootout.lte.quic"},
    {"shootout.nr.artp", "shootout.nr.reno", "shootout.nr.cubic", "shootout.nr.bbr",
     "shootout.nr.quic"},
}};

/// sec_transport_shootout's 5-transport x 3-network grid, repeated over
/// several root seeds so a pass is long enough to be steady. No telemetry.
/// Per-packet load on sim, net::Link, transport and wireless.
class TransportShootout final : public Workload {
 public:
  TransportShootout(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void release() override {
    cells_.clear();
    results_.clear();
  }

  void setup(SpanRecorder* /*rec*/) override {
    const std::size_t roots = tiny_ ? 1 : kRoots;
    for (std::size_t r = 0; r < roots; ++r) {
      const std::uint64_t root = runner::derive_seed(seed_, r);
      std::uint64_t index = 0;
      for (std::size_t n = 0; n < kNetworks.size(); ++n) {
        for (std::size_t t = 0; t < kTransports.size(); ++t) {
          Cell c;
          c.cfg.network = kNetworks[n];
          c.cfg.transport = kTransports[t];
          c.cfg.duration = tiny_ ? sim::seconds(2) : sim::seconds(20);
          c.seed = runner::derive_seed(root, index++);
          c.net = n;
          c.transport = t;
          cells_.push_back(c);
        }
      }
    }
  }

  void run(SpanRecorder* rec) override {
    const std::size_t n = cells_.size();
    results_.assign(n, core::ShootoutCellResult{});
    cell_ms_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const Cell& c = cells_[i];
      const std::int64_t t0 = wall_ns();
      {
        ScopedSpan span(rec, kShootoutSpans[c.net][c.transport], static_cast<std::int32_t>(i));
        results_[i] = core::run_shootout_cell(c.cfg, c.seed);
      }
      cell_ms_[i] = ms_since(t0);
    }
  }

  PassScore score() const override {
    PassScore s;
    Digest outcome;
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const core::ShootoutCellResult& r = results_[i];
      digest_shootout(outcome, r);
      std::string why;
      tally(s, shootout_cell_ok(r, &why), why);
      s.frames += r.frames_sent;
      s.frame_ms.push_back(cell_ms_[i] /
                           static_cast<double>(std::max<std::int64_t>(1, r.frames_sent)));
    }
    s.outcome = outcome.value();
    return s;
  }

  void layers(const std::vector<Span>& spans, std::size_t begin, std::size_t end,
              Metrics& out) const override {
    std::array<double, 3> by_net{};
    std::array<double, 5> by_transport{};
    for (std::size_t n = 0; n < kNetworks.size(); ++n) {
      for (std::size_t t = 0; t < kTransports.size(); ++t) {
        const double ms = span_ms(spans, begin, end, kShootoutSpans[n][t]);
        by_net[n] += ms;
        by_transport[t] += ms;
      }
    }
    for (std::size_t n = 0; n < kNetworks.size(); ++n) {
      out[std::string("wireless.cell_ms.") + kNetworkNames[n]] = by_net[n];
    }
    for (std::size_t t = 0; t < kTransports.size(); ++t) {
      out[std::string("transport.cell_ms.") + kTransportNames[t]] = by_transport[t];
    }
    double events = 0.0;
    for (const core::ShootoutCellResult& r : results_) events += static_cast<double>(r.sim_events);
    out["sim.events"] = events;
    out["sim.ns_per_event"] =
        (by_net[0] + by_net[1] + by_net[2]) * 1e6 / std::max(1.0, events);
  }

 private:
  static constexpr std::size_t kRoots = 4;

  struct Cell {
    core::ShootoutCellConfig cfg;
    std::uint64_t seed = 0;
    std::size_t net = 0;
    std::size_t transport = 0;
  };

  std::uint64_t seed_;
  bool tiny_;
  std::vector<Cell> cells_;
  std::vector<core::ShootoutCellResult> results_;
  std::vector<double> cell_ms_;
};

// ----------------------------------------------------------- recognition

/// One caller in a closed loop: each synthetic camera frame, warped from a
/// known reference scene, goes through extract and then recognize against
/// the object database before the next frame starts. The only workload
/// that runs vision.
class Recognition final : public Workload {
 public:
  Recognition(std::uint64_t seed, bool tiny)
      : objects_(tiny ? 3 : kObjects),
        frames_(tiny ? 24 : kFrames),
        frame_seed_(runner::derive_seed(seed, 2)),
        ransac_seed_(runner::derive_seed(seed, 3)) {}

  void release() override {
    db_ = vision::ObjectDatabase{};
    images_.clear();
    truth_.clear();
    results_.clear();
  }

  void setup(SpanRecorder* rec) override {
    std::vector<vision::Image> refs;
    for (std::size_t o = 0; o < objects_; ++o) {
      const auto cell = static_cast<std::int32_t>(o);
      {
        ScopedSpan span(rec, "vision.synth", cell);
        sim::Rng rng(runner::derive_seed(kCatalogueSeed, o));
        refs.push_back(vision::render_scene(rng, vision::SceneParams{}));
      }
      ScopedSpan span(rec, "vision.db_build", cell);
      db_.add_object("object-" + std::to_string(o), refs.back());
    }
    for (std::size_t f = 0; f < std::min(frames_, kDistinctFrames); ++f) {
      ScopedSpan span(rec, "vision.synth", static_cast<std::int32_t>(f));
      sim::Rng rng(runner::derive_seed(frame_seed_, f));
      const auto truth = static_cast<int>(f % objects_);
      const vision::Mat3 motion = vision::random_camera_motion(rng, kMotion);
      vision::Image img = vision::warp_image(refs[static_cast<std::size_t>(truth)], motion);
      images_.push_back(std::move(img));
      truth_.push_back(truth);
    }
  }

  void run(SpanRecorder* rec) override {
    const std::size_t n = frames_;
    results_.assign(n, std::nullopt);
    features_.assign(n, 0);
    frame_ms_.assign(n, 0.0);
    for (std::size_t f = 0; f < n; ++f) {
      const auto cell = static_cast<std::int32_t>(f);
      const std::int64_t t0 = wall_ns();
      vision::DescribedFeatures feats;
      {
        ScopedSpan span(rec, "vision.extract", cell);
        feats = pipe_.extract(images_[f % images_.size()]);
      }
      {
        ScopedSpan span(rec, "vision.recognize", cell);
        sim::Rng rng(runner::derive_seed(ransac_seed_, f));
        results_[f] = pipe_.recognize(feats, db_, rng);
      }
      frame_ms_[f] = ms_since(t0);
      features_[f] = static_cast<std::int64_t>(feats.features.size());
    }
  }

  PassScore score() const override {
    PassScore s;
    Digest outcome;
    for (std::size_t f = 0; f < results_.size(); ++f) {
      const std::optional<vision::RecognitionResult>& r = results_[f];
      outcome.i64(features_[f]);
      outcome.u64(r.has_value() ? 1 : 0);
      if (r) {
        outcome.i64(r->object_id);
        outcome.str(r->object_name);
        outcome.i64(r->matches);
        outcome.i64(r->inliers);
        for (double v : r->pose.m) outcome.f64(v);
        outcome.i64(r->frame_features);
        outcome.i64(r->feature_upload_bytes);
      }
      std::string why;
      const bool ok = recognition_ok(r, truth_[f % truth_.size()], &why);
      tally(s, ok, "frame " + std::to_string(f) + ": " + why);
      if (ok) ++s.frames;
    }
    s.frame_ms = frame_ms_;
    s.outcome = outcome.value();
    return s;
  }

  void layers(const std::vector<Span>& spans, std::size_t begin, std::size_t end,
              Metrics& out) const override {
    std::vector<double> extract, recognize;
    for (std::size_t i = begin; i < end; ++i) {
      const std::string name = spans[i].name;
      if (name == "vision.extract") extract.push_back(spans[i].ms());
      if (name == "vision.recognize") recognize.push_back(spans[i].ms());
    }
    out["vision.extract_ms.p50"] = quantile(extract, 0.50);
    out["vision.extract_ms.p99"] = quantile(extract, 0.99);
    out["vision.recognize_ms.p50"] = quantile(recognize, 0.50);
    out["vision.recognize_ms.p99"] = quantile(recognize, 0.99);
    double features = 0.0, inliers = 0.0;
    for (std::size_t f = 0; f < results_.size(); ++f) {
      features += static_cast<double>(features_[f]);
      if (results_[f]) inliers += results_[f]->inliers;
    }
    out["vision.features"] = features;
    out["vision.inliers"] = inliers;
    out["vision.db_build_ms"] = span_ms(spans, begin, end, "vision.db_build");
  }

 private:
  // 8 database objects; 1000 frames per pass so the frame p99 of one pass
  // has ten samples beyond it. The frames cycle through 100 distinct warps
  // (each recognized with its own RANSAC stream), which keeps synthesis,
  // about 2 ms a frame, from outweighing the pass in setup.
  static constexpr std::size_t kObjects = 8;
  static constexpr std::size_t kFrames = 1000;
  static constexpr std::size_t kDistinctFrames = 100;
  static constexpr double kMotion = 1.0;
  // The database is a fixed catalogue, the same for every seed, and each
  // object gets the same share of frames: per-frame cost depends on the
  // scenes, and the seed should vary the camera motion, not the workload's
  // size. The seed draws the motions and the RANSAC streams.
  static constexpr std::uint64_t kCatalogueSeed = 1;

  std::size_t objects_;
  std::size_t frames_;
  std::uint64_t frame_seed_;
  std::uint64_t ransac_seed_;
  vision::RecognitionPipeline pipe_;
  vision::ObjectDatabase db_;
  std::vector<vision::Image> images_;
  std::vector<int> truth_;
  std::vector<std::optional<vision::RecognitionResult>> results_;
  std::vector<std::int64_t> features_;
  std::vector<double> frame_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool tiny) {
  if (name == "city_day") return std::make_unique<CityDay>(seed, tiny);
  if (name == "fleet_sweep") return std::make_unique<FleetSweep>(seed, tiny);
  if (name == "transport_shootout") return std::make_unique<TransportShootout>(seed, tiny);
  if (name == "recognition") return std::make_unique<Recognition>(seed, tiny);
  return nullptr;
}

}  // namespace perfbench
