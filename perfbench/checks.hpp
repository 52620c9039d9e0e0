#pragma once

// Outcome invariants the benchmark checks on every cell and frame it runs.
// A false return is one failed operation in the run's error rate.

#include <optional>
#include <string>

#include "arnet/core/shootout.hpp"
#include "arnet/fleet/scenario.hpp"
#include "arnet/fluid/fluid.hpp"
#include "arnet/vision/pipeline.hpp"

namespace perfbench {

/// min <= p50 <= p90 <= p99 <= max, allowing one part in 1e12 of rounding.
bool quantiles_ordered(double min, double p50, double p90, double p99, double max);

/// arrivals = admitted + downgraded + rejected, results <= frames,
/// misses <= results, and ordered quantiles.
bool fleet_cell_ok(const arnet::fleet::CellResult& r, std::string* why);

/// The fluid counterpart: counts are rounded flow mass, so arrivals may miss
/// the sum of the three routes by the rounding of four values (< 2 frames).
bool fluid_cell_ok(const arnet::fluid::FluidResult& r, std::string* why);

/// on_time + late + incomplete = sent, and ordered quantiles.
bool shootout_cell_ok(const arnet::core::ShootoutCellResult& r, std::string* why);

/// The frame was recognized, as the object it was rendered from.
bool recognition_ok(const std::optional<arnet::vision::RecognitionResult>& r,
                    int truth_id, std::string* why);

}  // namespace perfbench
