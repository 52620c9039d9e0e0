// arnet host benchmark: one workload per invocation, serial, one thread.
//
//   arnet_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--size full|tiny] [--spans-out <file>] [--artifacts-out <dir>]
//   arnet_perfbench --selftest
//
// A run makes one untimed warm-up pass, then repeats passes (each with its
// own setup) until --seconds have passed and at least three were made.
// --trace 0 reports the end-to-end host metrics; --trace 1 interleaves
// untraced and traced passes (plus, on fleet_sweep, the telemetry detach
// ablations) and reports the per-layer metrics from the traced ones. Every
// pass's outcome digest must equal the first pass's, traced or not.
// --artifacts-out writes the files the last pass exported. The last line of
// stdout is one JSON object; see perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},           {"cpu_s", "s"},         {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},    {"frames_per_s", "1/s"}, {"frame_p50_ms", "ms"},
    {"frame_p99_ms", "ms"},
};

const std::vector<MetricDef> kPerLayer = {
    {"fluid.step_ns", "ns"},
    {"fluid.step_ns.admit", "ns"},
    {"fluid.step_ns.open", "ns"},
    {"fluid.ticks", "count"},
    {"fluid.setup_ms", "ms"},
    {"fluid.finish_ms", "ms"},
    {"obs.merge_ms", "ms"},
    {"obs.export_ms", "ms"},
    {"obs.export_bytes", "bytes"},
    {"slo.export_ms", "ms"},
    {"obs.record_share", "ratio"},
    {"trace.share", "ratio"},
    {"trace.retained_frac", "ratio"},
    {"trace.export_ms", "ms"},
    {"fleet.cell_ms.batched", "ms"},
    {"fleet.cell_ms.unbatched", "ms"},
    {"fleet.cell_ms.autoscale", "ms"},
    {"fleet.cell_ms.admission", "ms"},
    {"fleet.frames", "count"},
    {"fleet.batch_fill", "ratio"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"wireless.cell_ms.wifi", "ms"},
    {"wireless.cell_ms.lte", "ms"},
    {"wireless.cell_ms.nr", "ms"},
    {"transport.cell_ms.artp", "ms"},
    {"transport.cell_ms.reno", "ms"},
    {"transport.cell_ms.cubic", "ms"},
    {"transport.cell_ms.bbr", "ms"},
    {"transport.cell_ms.quic", "ms"},
    {"vision.extract_ms.p50", "ms"},
    {"vision.extract_ms.p99", "ms"},
    {"vision.recognize_ms.p50", "ms"},
    {"vision.recognize_ms.p99", "ms"},
    {"vision.features", "count"},
    {"vision.inliers", "count"},
    {"vision.db_build_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.span_coverage", "ratio"},
};

constexpr int kMinPasses = 3;
// Setup is repeated until this much of it has been timed, so a cheap setup
// still yields a steady median.
constexpr std::int64_t kMinSetupNs = 5'000'000;
constexpr int kMaxSetupReps = 1000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
  std::string artifacts_out;
  bool selftest = false;
};

struct PassSample {
  std::vector<double> setup_s;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  PassScore score;
  Metrics layers;
};

/// Failures and digest agreement across every pass of the run.
class RunTally {
 public:
  void add(const PassScore& s, const char* kind) {
    attempted_ += s.attempted;
    failed_ += s.failed;
    for (const std::string& f : s.failures) note(f);
    ++attempted_;
    if (!first_) {
      first_ = std::make_pair(s.outcome, s.artifacts);
    } else if (first_->first != s.outcome || first_->second != s.artifacts) {
      ++failed_;
      note(std::string(kind) + " pass digest " + digest_of(s) + " != first pass " +
           hex64(first_->first) + "-" + hex64(first_->second));
    }
  }
  /// Outcome-only failures from an ablation (no digest of its own).
  void add_checks(const PassScore& s) {
    attempted_ += s.attempted;
    failed_ += s.failed;
    for (const std::string& f : s.failures) note(f);
  }

  static std::string digest_of(const PassScore& s) {
    return hex64(s.outcome) + "-" + hex64(s.artifacts);
  }
  std::string digest() const {
    return first_ ? hex64(first_->first) + "-" + hex64(first_->second) : "none";
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  void note(const std::string& what) {
    if (notes_++ < 10) std::cerr << "failure: " << what << "\n";
  }

  std::optional<std::pair<std::uint64_t, std::uint64_t>> first_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  int notes_ = 0;
};

PassSample one_pass(Workload& w, SpanRecorder* rec, std::int32_t pass_no) {
  PassSample out;
  const std::size_t begin = rec ? rec->size() : 0;
  if (rec) rec->set_pass(pass_no);
  // Traced passes set up once, so their setup spans describe one setup.
  std::int64_t setup_ns = 0;
  for (int rep = 0; rep < (rec ? 1 : kMaxSetupReps) && (rep == 0 || setup_ns < kMinSetupNs);
       ++rep) {
    w.release();
    const std::int64_t t0 = wall_ns();
    {
      ScopedSpan span(rec, "setup");
      w.setup(rec);
    }
    const std::int64_t dt = wall_ns() - t0;
    setup_ns += dt;
    out.setup_s.push_back(static_cast<double>(dt) * 1e-9);
  }
  const std::int64_t c0 = cpu_ns();
  const std::int64_t t0 = wall_ns();
  {
    ScopedSpan span(rec, "pass");
    w.run(rec);
  }
  out.wall_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  out.cpu_s = static_cast<double>(cpu_ns() - c0) * 1e-9;
  out.score = w.score();
  if (rec) {
    const std::size_t end = rec->size();
    w.layers(rec->spans(), begin, end, out.layers);
    const LayerTime pass = layer_times(rec->spans(), begin, end, "pass")["pass"];
    out.layers["bench.span_coverage"] =
        pass.total_ms > 0.0 ? 1.0 - pass.self_ms / pass.total_ms : 0.0;
  }
  return out;
}

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<MetricDef>& defs, const Metrics& values) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::cout << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": " << num(v)
              << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

void print_metrics(const std::vector<MetricDef>& defs, const Metrics& values) {
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    if (it == values.end()) continue;
    std::cout << "  " << std::left << std::setw(26) << d.name << std::right
              << std::setw(20) << num(it->second) << " " << d.unit << "\n";
  }
}

/// Self-time table of the traced passes: per span name under the "pass"
/// root, with its share of traced pass wall time.
void print_layer_table(const SpanRecorder& rec) {
  const auto times = layer_times(rec.spans(), 0, rec.size(), "pass");
  const auto pass = times.find("pass");
  const double wall_ms = pass == times.end() ? 0.0 : pass->second.total_ms;
  std::vector<std::pair<std::string, LayerTime>> rows(times.begin(), times.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms != b.second.self_ms ? a.second.self_ms > b.second.self_ms
                                                : a.first < b.first;
  });
  std::cout << "layer self time over traced passes (" << num(wall_ms) << " ms):\n"
            << "  " << std::left << std::setw(26) << "span" << std::right << std::setw(10)
            << "count" << std::setw(14) << "total ms" << std::setw(14) << "self ms"
            << std::setw(9) << "share\n";
  for (const auto& [name, t] : rows) {
    std::cout << "  " << std::left << std::setw(26) << name << std::right << std::setw(10)
              << t.count << std::setw(14) << std::fixed << std::setprecision(3)
              << t.total_ms << std::setw(14) << t.self_ms << std::setw(8)
              << std::setprecision(2) << (wall_ms > 0 ? 100.0 * t.self_ms / wall_ms : 0.0)
              << "%\n"
              << std::defaultfloat << std::setprecision(6);
  }
}

bool write_artifacts(const Workload& w, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const auto& [name, bytes] : w.artifacts()) {
    std::ofstream os(dir + "/" + name, std::ios::binary);
    os << bytes;
    if (!os) {
      std::cerr << "cannot write " << dir << "/" << name << "\n";
      return false;
    }
  }
  return true;
}

int run(const Options& opt) {
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed, opt.tiny);
  if (!w) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  RunTally tally;
  SpanRecorder rec;
  std::int32_t pass_no = 0;

  // Warm-up: caches fill and lazy set-up finishes; outputs still checked.
  tally.add(one_pass(*w, nullptr, pass_no++).score, "warm-up");

  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::vector<PassSample> timed, traced;
  int rounds = 0;
  while (rounds < kMinPasses || wall_ns() < deadline) {
    timed.push_back(one_pass(*w, nullptr, pass_no++));
    tally.add(timed.back().score, "untraced");
    if (opt.trace) {
      traced.push_back(one_pass(*w, &rec, pass_no++));
      tally.add(traced.back().score, "traced");
      PassScore ablation;
      w->ablate(traced.back().layers, ablation);
      tally.add_checks(ablation);
    }
    ++rounds;
  }

  if (!opt.artifacts_out.empty() && !write_artifacts(*w, opt.artifacts_out)) return 1;

  // Every pass runs the same frames (or cells) in the same order, so each
  // one's host time is first taken as its median over passes, like every
  // time here: one noisy stretch of the host moves one pass, not the
  // quantile.
  std::vector<double> wall, cpu, setup, fps;
  for (const PassSample& p : timed) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
    fps.push_back(static_cast<double>(p.score.frames) / p.wall_s);
  }
  const std::size_t frame_samples = timed.front().score.frame_ms.size();
  std::vector<double> frame_ms;
  for (std::size_t i = 0; i < frame_samples; ++i) {
    std::vector<double> over_passes;
    for (const PassSample& p : timed) {
      // A pass with other samples already failed its digest check.
      if (i < p.score.frame_ms.size()) over_passes.push_back(p.score.frame_ms[i]);
    }
    frame_ms.push_back(median(over_passes));
  }
  Metrics e2e;
  e2e["wall_s"] = median(wall);
  e2e["cpu_s"] = median(cpu);
  e2e["setup_s"] = median(setup);
  e2e["peak_rss_mb"] = peak_rss_mb();
  e2e["frames_per_s"] = median(fps);
  e2e["frame_p50_ms"] = quantile(frame_ms, 0.50);
  e2e["frame_p99_ms"] = quantile(frame_ms, 0.99);

  const double error_rate =
      static_cast<double>(tally.failed()) / static_cast<double>(tally.attempted());
  std::cout << "workload " << opt.workload << "  seed " << opt.seed << "  size "
            << (opt.tiny ? "tiny" : "full") << "  trace " << (opt.trace ? 1 : 0) << "\n"
            << "passes " << timed.size() << " untraced" << (opt.trace ? ", " : "")
            << (opt.trace ? std::to_string(traced.size()) + " traced" : "")
            << " (+1 warm-up); setups timed " << setup.size() << "; frame samples "
            << frame_samples << " a pass\n"
            << "pass wall ms";
  for (double v : wall) std::cout << " " << std::fixed << std::setprecision(1) << v * 1e3;
  std::cout << std::defaultfloat << std::setprecision(6) << "\n"
            << "digest " << tally.digest() << "\n"
            << "error_rate " << num(error_rate) << " (" << tally.failed() << "/"
            << tally.attempted() << ")\n"
            << "end-to-end (untraced passes):\n";
  print_metrics(kEndToEnd, e2e);

  const bool correct = tally.failed() == 0;
  if (!opt.trace) {
    print_json(correct, tally.attempted(), tally.failed(), kEndToEnd, e2e);
    return 0;
  }

  std::map<std::string, std::vector<double>> per_layer;
  std::vector<double> traced_wall;
  for (const PassSample& p : traced) {
    traced_wall.push_back(p.wall_s);
    for (const auto& [name, v] : p.layers) per_layer[name].push_back(v);
  }
  Metrics layers;
  for (const auto& [name, vs] : per_layer) layers[name] = median(vs);
  layers["bench.trace_overhead"] = median(traced_wall) / median(wall) - 1.0;
  print_layer_table(rec);
  std::cout << "per-layer (median of traced passes; 0 = layer not run by this workload):\n";
  print_metrics(kPerLayer, layers);

  if (!opt.spans_out.empty()) {
    std::ofstream os(opt.spans_out);
    rec.write_tsv(os);
    if (!os) {
      std::cerr << "cannot write spans to " << opt.spans_out << "\n";
      return 1;
    }
    std::cout << "spans " << rec.size() << " written to " << opt.spans_out << "\n";
  }
  print_json(correct, tally.attempted(), tally.failed(), kPerLayer, layers);
  return 0;
}

/// The benchmark's own checks on fabricated outcomes: every invariant must
/// reject a broken result and accept a sound one.
int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };

  arnet::fleet::CellResult cell;
  cell.name = "fabricated";
  cell.arrivals = 10;
  cell.admitted = 6;
  cell.downgraded = 2;
  cell.rejected = 2;
  cell.frames = 100;
  cell.results = 90;
  cell.misses = 5;
  cell.min_ms = 10;
  cell.p50_ms = 20;
  cell.p90_ms = 30;
  cell.p99_ms = 40;
  cell.max_ms = 50;
  expect(fleet_cell_ok(cell, nullptr), "sound fleet cell passes");
  arnet::fleet::CellResult bad = cell;
  bad.rejected = 3;
  expect(!fleet_cell_ok(bad, nullptr), "fleet arrivals != admitted+downgraded+rejected fails");
  bad = cell;
  bad.results = 101;
  expect(!fleet_cell_ok(bad, nullptr), "fleet results > frames fails");
  bad = cell;
  bad.misses = 91;
  expect(!fleet_cell_ok(bad, nullptr), "fleet misses > results fails");
  bad = cell;
  bad.p99_ms = 60;
  expect(!fleet_cell_ok(bad, nullptr), "fleet p99 > max fails");

  arnet::fluid::FluidResult fl;
  fl.name = "fabricated";
  fl.arrivals = 1000;
  fl.admitted = 700;
  fl.downgraded = 200;
  fl.rejected = 101;  // rounding of flow mass
  fl.frames = 500;
  fl.misses = 20;
  expect(fluid_cell_ok(fl, nullptr), "fluid cell off by rounding passes");
  fl.rejected = 150;
  expect(!fluid_cell_ok(fl, nullptr), "fluid arrivals != routed mass fails");
  fl.rejected = 100;
  fl.misses = 501;
  expect(!fluid_cell_ok(fl, nullptr), "fluid misses > frames fails");

  arnet::core::ShootoutCellResult sh;
  sh.name = "fabricated";
  sh.frames_sent = 600;
  sh.frames_on_time = 500;
  sh.frames_late = 60;
  sh.frames_incomplete = 40;
  expect(shootout_cell_ok(sh, nullptr), "sound shootout cell passes");
  sh.frames_incomplete = 39;
  expect(!shootout_cell_ok(sh, nullptr), "shootout on_time+late+incomplete != sent fails");
  sh.frames_incomplete = 40;
  sh.p50_ms = 5;
  sh.min_ms = 6;
  expect(!shootout_cell_ok(sh, nullptr), "shootout min > p50 fails");

  arnet::vision::RecognitionResult rr;
  rr.object_id = 3;
  expect(recognition_ok(rr, 3, nullptr), "frame labelled with its object passes");
  expect(!recognition_ok(rr, 2, nullptr), "frame labelled with the wrong object fails");
  expect(!recognition_ok(std::nullopt, 2, nullptr), "unrecognized frame fails");

  Digest a, b;
  a.f64(1.0);
  b.f64(std::nextafter(1.0, 2.0));
  expect(a.value() != b.value(), "digest sees a one-ulp change");

  std::vector<Span> spans(3);
  spans[0] = {"pass", 0, 1000000, -1, -1, 0};
  spans[1] = {"a", 100000, 600000, 0, 0, 0};
  spans[2] = {"b", 200000, 300000, 1, 0, 0};
  auto t = layer_times(spans, 0, 3, "pass");
  expect(std::abs(t["pass"].self_ms - 0.5) < 1e-9 && std::abs(t["a"].self_ms - 0.4) < 1e-9 &&
             std::abs(t["b"].self_ms - 0.1) < 1e-9,
         "self time subtracts child spans");

  expect(std::abs(quantile({4, 1, 3, 2}, 0.5) - 2.5) < 1e-12, "median interpolates");

  std::cout << (failures == 0 ? "selftest ok\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0 && opt.seconds <= 120.0)) return false;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") return false;
      opt.tiny = v == "tiny";
    } else if (a == "--spans-out") {
      opt.spans_out = v;
    } else if (a == "--artifacts-out") {
      opt.artifacts_out = v;
    } else {
      return false;
    }
  }
  return opt.selftest || !opt.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, opt)) {
    std::cerr << "usage: arnet_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--size full|tiny] [--spans-out <file>]\n"
                 "                       [--artifacts-out <dir>]\n"
                 "       arnet_perfbench --selftest\n";
    return 2;
  }
  if (opt.selftest) return perfbench::selftest();
  return perfbench::run(opt);
}
