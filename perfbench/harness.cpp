#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>

namespace perfbench {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::u64(std::uint64_t v) { bytes(&v, sizeof v); }

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Digest::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return s;
}

std::int32_t SpanRecorder::open(const char* name, std::int32_t cell) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.cell = cell;
  s.pass = pass_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  spans_.back().start_ns = wall_ns();
  return id;
}

void SpanRecorder::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = wall_ns();
  stack_.pop_back();
}

void SpanRecorder::write_tsv(std::ostream& os) const {
  os << "id\tparent\tpass\tcell\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << i << '\t' << s.parent << '\t' << s.pass << '\t' << s.cell << '\t' << s.name
       << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans,
                                             std::size_t begin, std::size_t end,
                                             const char* root) {
  // Parents precede their children, so one forward sweep resolves roots.
  std::vector<double> child_ms(end - begin, 0.0);
  std::vector<std::size_t> top(end - begin, 0);
  for (std::size_t i = begin; i < end; ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) >= begin) {
      const std::size_t pi = static_cast<std::size_t>(p) - begin;
      child_ms[pi] += spans[i].ms();
      top[i - begin] = top[pi];
    } else {
      top[i - begin] = i;
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = begin; i < end; ++i) {
    if (root && std::string(spans[top[i - begin]].name) != root) continue;
    LayerTime& t = out[spans[i].name];
    ++t.count;
    t.total_ms += spans[i].ms();
    t.self_ms += spans[i].ms() - child_ms[i - begin];
  }
  return out;
}

double span_ms(const std::vector<Span>& spans, std::size_t begin, std::size_t end,
               const std::string& name) {
  double ms = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    if (name == spans[i].name) ms += spans[i].ms();
  }
  return ms;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
