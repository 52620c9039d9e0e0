#pragma once

// The benchmark's four workloads. Each calls the same public entry points the
// repository's benches call, builds its inputs from the benchmark seed only,
// and wraps every call into a layer in a span when a recorder is given.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// What one pass produced, digested and checked outside the timed region.
struct PassScore {
  std::int64_t frames = 0;       ///< AR frames handled (see README: per workload)
  /// Host ms per frame, in the same order every pass: one sample per
  /// recognition frame, or per cell (its host time over its frames).
  std::vector<double> frame_ms;
  std::uint64_t outcome = 0;     ///< digest of every simulated / recognition result
  std::uint64_t artifacts = 0;   ///< digest of every exported byte
  std::int64_t attempted = 0;    ///< cells or frames checked
  std::int64_t failed = 0;       ///< of those, the ones breaking an invariant
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Drop the last pass's inputs and outputs. Called untimed before every
  /// setup, so setup time never includes freeing the previous pass.
  virtual void release() = 0;
  /// Build one pass's inputs (after release()).
  virtual void setup(SpanRecorder* rec) = 0;
  /// The timed pass over the inputs the last setup() built.
  virtual void run(SpanRecorder* rec) = 0;
  /// Digest and check the last pass's outcomes.
  virtual PassScore score() const = 0;
  /// The files the last pass exported, by the name the repository's bench
  /// gives them, for comparison with that bench's own output.
  virtual std::vector<std::pair<std::string, std::string>> artifacts() const { return {}; }
  /// Per-layer metrics of a traced pass whose spans are [begin, end).
  virtual void layers(const std::vector<Span>& spans, std::size_t begin,
                      std::size_t end, Metrics& out) const = 0;
  /// Traced run only: rerun the pass with telemetry detached, adding the
  /// resulting shares to `out` and any outcome mismatch to `score`.
  virtual void ablate(Metrics& /*out*/, PassScore& /*score*/) {}
};

/// nullptr for an unknown name. `tiny` shrinks every workload to a size
/// the benchmark's own tests run in seconds.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool tiny);

}  // namespace perfbench
