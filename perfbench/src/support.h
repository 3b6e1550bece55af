// Measurement plumbing for the wmesh end-to-end benchmark: clocks, CPU and
// RSS readings, exact sample statistics, the operation tally and the
// in-memory span recorder.
//
// Everything here lives outside the library on purpose: the benchmark
// drives each layer's public functions from the outside and records its
// own spans around those calls.  Quantiles are computed exactly from the
// raw samples (linear interpolation between order statistics, the same
// rule as Python's statistics.quantiles(method="inclusive")), never read
// off histogram buckets.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock, seconds.
double now_s();

// User + system CPU of the whole process, seconds.
double cpu_s();

// Peak resident set size of the process so far, MiB.
double peak_rss_mb();

// Exact q-quantile (q in [0, 1]) of the samples; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// How many of n samples lie strictly beyond the q-quantile position.  A
// percentile is reported only when at least ten do.
std::size_t samples_beyond(std::size_t n, double q);

// 64-bit FNV-1a over a byte string.
std::uint64_t fnv1a(const std::string& bytes);

// Reads a whole file; false when it cannot be read.
bool read_file(const std::string& path, std::string* out);

// One named metric with its unit, as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // how the value was formed, e.g. "median of 8"
};
using Metrics = std::map<std::string, Metric>;

// Operations attempted and failed over a run.  A failed correctness check
// is a failed operation; the first few failures are echoed to stderr.
class Tally {
 public:
  // Counts one operation; returns `ok` so checks read as conditions.
  bool op(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

// In-memory span recorder.  A span has a name ("<layer>.<what>"), start and
// end times, the id of the span that was open on the same thread when it
// began (0 at top level), and a request id shared by every span of one
// client request (inherited from the parent when not given).  Disabled by
// default; when disabled, Span costs one relaxed atomic load.
struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_request() { return ++last_request_; }

  // Closed spans so far, in closing order.
  std::vector<SpanRecord> spans() const;
  std::size_t span_count() const;

  // Self time per layer (the span-name prefix before the first '.') of the
  // spans closed from index `from` on: each span's duration minus the part
  // of it covered by its child spans, summed per layer, in milliseconds.
  std::map<std::string, double> self_ms_by_layer(std::size_t from) const;

  // Writes every closed span as a JSON array; false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  friend class Span;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> last_id_{0};
  std::atomic<std::uint64_t> last_request_{0};
  std::atomic<std::uint32_t> last_thread_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> closed_;  // guarded by mu_
};

// RAII span; records into Tracer::instance() when tracing is enabled.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord rec_;
};

}  // namespace perfbench
