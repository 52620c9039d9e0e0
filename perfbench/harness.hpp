#pragma once

// Host-side measurement for the arnet benchmark: clocks, the in-memory span
// recorder the traced run uses, the outcome digest, and small statistics.
// Nothing here is linked into the simulator; the spans sit in the
// benchmark's own code around each call into a layer.

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic host time in nanoseconds (steady_clock).
std::int64_t wall_ns();
/// Process CPU time (user + system) in nanoseconds.
std::int64_t cpu_ns();
/// Maximum resident set size of this process so far, in MiB.
double peak_rss_mb();

/// FNV-1a over the exact bytes of every field fed to it. Doubles are hashed
/// by bit pattern, strings with their length, so two digests agree only
/// when the outcomes are byte-identical.
class Digest {
 public:
  void bytes(const void* p, std::size_t n);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::string hex64(std::uint64_t v);

/// One timed interval around a call into a layer. `parent` indexes the
/// enclosing span (-1 for a root); `cell` is the workload's cell or frame
/// index (-1 when the span covers the whole pass).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int32_t cell = -1;
  std::int32_t pass = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Spans kept in memory for the whole run and written out at the end.
/// Serial use only: the open-span stack is the parent chain.
class SpanRecorder {
 public:
  std::int32_t open(const char* name, std::int32_t cell);
  void close(std::int32_t id);

  void set_pass(std::int32_t pass) { pass_ = pass; }
  std::size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Tab-separated dump: index, parent, pass, cell, name, start, end (ns).
  void write_tsv(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int32_t pass_ = 0;
};

/// RAII span; a null recorder (the untraced run) records nothing and reads
/// no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::int32_t cell = -1)
      : rec_(rec), id_(rec ? rec->open(name, cell) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t id_;
};

/// Per-name totals over spans [begin, end): count, summed duration, and
/// self time (duration minus the part its child spans cover). With `root`,
/// only spans whose outermost ancestor (or themselves) bears that name.
struct LayerTime {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans,
                                             std::size_t begin, std::size_t end,
                                             const char* root = nullptr);

/// Summed duration (ms) of spans in [begin, end) whose name equals `name`.
double span_ms(const std::vector<Span>& spans, std::size_t begin, std::size_t end,
               const std::string& name);

double median(std::vector<double> v);
/// Linear-interpolated quantile (p in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double p);

}  // namespace perfbench
