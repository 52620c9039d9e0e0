#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace perfbench {

namespace {

bool fail(std::string* why, const std::string& what) {
  if (why) *why = what;
  return false;
}

bool le(double a, double b) {
  return a <= b + 1e-12 * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

bool quantiles_ordered(double min, double p50, double p90, double p99, double max) {
  return le(min, p50) && le(p50, p90) && le(p90, p99) && le(p99, max);
}

bool fleet_cell_ok(const arnet::fleet::CellResult& r, std::string* why) {
  if (r.arrivals != r.admitted + r.downgraded + r.rejected) {
    return fail(why, r.name + ": arrivals != admitted + downgraded + rejected");
  }
  if (r.results > r.frames) return fail(why, r.name + ": results > frames");
  if (r.misses > r.results) return fail(why, r.name + ": misses > results");
  if (!quantiles_ordered(r.min_ms, r.p50_ms, r.p90_ms, r.p99_ms, r.max_ms)) {
    return fail(why, r.name + ": latency quantiles out of order");
  }
  return true;
}

bool fluid_cell_ok(const arnet::fluid::FluidResult& r, std::string* why) {
  const double routed = static_cast<double>(r.admitted) +
                        static_cast<double>(r.downgraded) +
                        static_cast<double>(r.rejected);
  if (std::abs(static_cast<double>(r.arrivals) - routed) > 2.0) {
    return fail(why, r.name + ": arrivals != admitted + downgraded + rejected");
  }
  if (r.misses > r.frames) return fail(why, r.name + ": misses > frames");
  if (!quantiles_ordered(r.min_ms, r.p50_ms, r.p90_ms, r.p99_ms, r.max_ms)) {
    return fail(why, r.name + ": latency quantiles out of order");
  }
  return true;
}

bool shootout_cell_ok(const arnet::core::ShootoutCellResult& r, std::string* why) {
  if (r.frames_on_time + r.frames_late + r.frames_incomplete != r.frames_sent) {
    return fail(why, r.name + ": on_time + late + incomplete != sent");
  }
  if (!quantiles_ordered(r.min_ms, r.p50_ms, r.p90_ms, r.p99_ms, r.max_ms)) {
    return fail(why, r.name + ": latency quantiles out of order");
  }
  return true;
}

bool recognition_ok(const std::optional<arnet::vision::RecognitionResult>& r,
                    int truth_id, std::string* why) {
  if (!r) return fail(why, "frame of object " + std::to_string(truth_id) + " not recognized");
  if (r->object_id != truth_id) {
    return fail(why, "frame of object " + std::to_string(truth_id) +
                         " recognized as " + std::to_string(r->object_id));
  }
  return true;
}

}  // namespace perfbench
