// Process-global metrics registry: counters, gauges, fixed-bucket
// histograms and span aggregates, registered by name.
//
// Every analysis stage (generation, trace I/O, ETX/ExOR, look-up tables,
// hidden triples, mobility, DSDV) reports counters through the WMESH_*
// macros below.  The macros cache the registry lookup in a function-local
// static, so the steady-state cost of an increment is one relaxed atomic
// add; compiling with -DWMESH_OBS_DISABLED turns every macro into a no-op
// so the library can be built with zero observability overhead.
//
// `Registry::instance().snapshot()` returns a deterministic (name-sorted)
// view that renders to a util::text_table, to CSV and to JSON -- the same
// snapshot backs the tools' `--metrics[=path]` flag, the `--report` run
// reports (obs/report.h) and the bench report footers.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight.h"

namespace wmesh::obs {

class Counter;

// Thread-local write buffer for counters: while a CounterBatch is active on
// a thread, every Counter::add on that thread accumulates into the batch
// and the shared atomics are touched exactly once, at flush (or scope
// exit).  The wmesh::par pool installs one batch per shard, so analysis
// code inside parallel regions never contends on counter cache lines.
// Batches nest (the inner one wins until it flushes).
//
// Active batches register themselves in a process-global list, and pending
// deltas are stored as relaxed atomics, so
// `Registry::snapshot(SnapshotFlush::kActiveBatches)` can drain every
// in-flight batch from any thread: a snapshot taken mid-region (a run
// report, a concurrent --metrics dump) never under-counts.  The owning
// thread's fast path is unchanged -- an uncontended relaxed fetch_add on a
// thread-local cache line; the batch mutex is only taken when a *new*
// counter is first buffered or when a remote flusher walks the entries.
class CounterBatch {
 public:
  CounterBatch() noexcept;
  ~CounterBatch();

  CounterBatch(const CounterBatch&) = delete;
  CounterBatch& operator=(const CounterBatch&) = delete;

  // Adds every pending delta to its counter and zeroes the buffer.  Safe
  // to call from any thread; deltas are counted exactly once.
  void flush() noexcept;

  // Buffers one increment for `c`; on allocation failure falls back to a
  // direct atomic add.  Called by Counter::add when a batch is active.
  void buffer(Counter* c, std::uint64_t n) noexcept;

  // The innermost batch active on this thread, or nullptr.
  static CounterBatch* active() noexcept;

  // Flushes every batch currently active on any thread (snapshot
  // kActiveBatches path).  Batches stay active; only pending deltas move.
  static void flush_all_active() noexcept;

 private:
  struct Entry {
    Counter* counter;
    std::atomic<std::uint64_t> pending;
    explicit Entry(Counter* c, std::uint64_t n) : counter(c), pending(n) {}
  };

  CounterBatch* prev_;
  // Appends and remote walks take mu_; the owner's scan-and-add path does
  // not (only the owner appends, and a deque never moves its elements).
  std::mutex mu_;
  // Few distinct counters per shard: a scanned deque beats a hash map.
  std::deque<Entry> pending_;
};

// Monotonic event count.  Thread-safe; increments are relaxed atomics,
// routed through the thread's CounterBatch when one is active.  Registry-
// owned counters know their name (bind_name) so the flight recorder can
// attribute direct increments and batch flushes.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (CounterBatch* batch = CounterBatch::active()) {
      batch->buffer(this, n);
      return;
    }
    value_.fetch_add(n, std::memory_order_relaxed);
    if (flight::enabled() && name_ != nullptr) {
      flight::record(flight::EventKind::kCounter, name_, n, 0);
    }
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  // Registry internal: points at the registry's stable map-key c_str().
  void bind_name(const char* name) noexcept { name_ = name; }
  const char* bound_name() const noexcept { return name_; }

 private:
  friend class CounterBatch;  // flush adds pending deltas directly
  std::atomic<std::uint64_t> value_{0};
  const char* name_ = nullptr;
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram.  `bounds` are ascending inclusive upper bounds;
// one implicit overflow bucket catches everything above the last bound.
// Thread-safe: bucket counts, count and sum are relaxed atomics.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Upper bound of the bucket holding the q-quantile (q in [0, 1]); 0 when
  // empty.  Values in the overflow bucket report the last finite bound.  A
  // bound can lie outside the observed range; in snapshots a span's
  // quantiles (its span row and its span.<name> histogram row) are clamped
  // to the aggregate's exact min/max.
  double quantile(double q) const noexcept;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Per-span-name aggregate: exact count/total plus true min/max and self-
// time (duration exclusive of direct children) on top of the fixed-bucket
// latency histogram (which supplies p50/p90/p99).  Every WMESH_SPAN records
// here; the histogram member is also registered under "span.<name>" so the
// classic histogram renderings keep working.  The aggregate also counts
// which span names parented this one (a small lock-free slot array), so
// snapshots carry the causal structure, not just the flat timings.
// Thread-safe: everything is relaxed atomics (min/max via CAS loops, parent
// slots via CAS-claimed keys), so spans closing concurrently on wmesh::par
// workers never lock.  Counts are exact and -- because shard boundaries and
// span ids depend only on the work size -- deterministic across thread
// counts; durations of course are not.
class SpanAggregate {
 public:
  // Distinct parent names tracked per span; the surplus lands in "(other)".
  static constexpr std::size_t kMaxParents = 8;

  explicit SpanAggregate(Histogram& hist) noexcept : hist_(hist) {}

  // `parent_name` is the name of the enclosing span, or nullptr for a
  // root; it must outlive the aggregate (span names are literals).
  void record(double us, double self_us, const char* parent_name) noexcept;
  // Leaf convenience (tests, ad-hoc timings): self == total, root parent.
  void record(double us) noexcept { record(us, us, nullptr); }

  std::uint64_t count() const noexcept { return hist_.count(); }
  double total() const noexcept { return hist_.sum(); }
  double self_total() const noexcept {
    return self_total_.load(std::memory_order_relaxed);
  }
  // 0 when empty, so an unused span renders as zeros rather than +/-inf.
  double min() const noexcept;
  double max() const noexcept;
  const Histogram& histogram() const noexcept { return hist_; }

  // Name-sorted (parent name, spans recorded under it) pairs; roots appear
  // as "(root)", overflow past the slot capacity as "(other)".
  std::vector<std::pair<std::string, std::uint64_t>> parent_counts() const;

  void reset() noexcept;

 private:
  void record_parent(const char* name) noexcept;

  struct ParentSlot {
    std::atomic<const char*> key{nullptr};
    std::atomic<std::uint64_t> count{0};
  };

  Histogram& hist_;  // the registry-owned "span.<name>" histogram
  std::atomic<double> min_{kUnset};
  std::atomic<double> max_{-kUnset};
  std::atomic<double> self_total_{0.0};
  ParentSlot parents_[kMaxParents];
  std::atomic<std::uint64_t> parent_other_{0};
  static constexpr double kUnset = 1e300;
};

// Default bounds for span wall-time histograms: exponential microsecond
// buckets from 1 us to ~17 s.
std::vector<double> span_time_bounds_us();

// Bounds for query/request latency histograms: a 1-2-5 ladder through the
// sub-millisecond range (where most cached serve queries land -- the
// doubling ladder above has only 10 buckets below 1 ms) and doubling
// buckets from 2 ms to ~16 s above it.
std::vector<double> query_time_bounds_us();

// Deterministic, name-sorted view of the registry at one instant.
struct Snapshot {
  struct CounterRow {
    std::string name;
    std::uint64_t value;
  };
  struct GaugeRow {
    std::string name;
    double value;
  };
  struct HistogramRow {
    std::string name;
    std::uint64_t count;
    double sum;
    double p50;
    double p90;
    double p99;
    // Bucket detail for the OpenMetrics exposition: ascending inclusive
    // upper bounds and *cumulative* counts per bound (the implicit +Inf
    // bucket is `count`).  Not rendered by table/CSV/JSON.
    std::vector<double> bounds;
    std::vector<std::uint64_t> cumulative;
  };
  struct SpanRow {
    std::string name;  // bare span name ("etx.dijkstra", "par.shard")
    std::uint64_t count;
    double total_us;
    double self_us;  // exclusive of direct children (clamped at 0)
    double min_us;
    double max_us;
    double p50_us;
    double p90_us;
    double p99_us;
    // Parent-name attribution, e.g. {("etx.gains", 64), ("(root)", 1)}.
    std::vector<std::pair<std::string, std::uint64_t>> parents;
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;
  std::vector<SpanRow> spans;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           spans.empty();
  }

  // Human-readable rendition via util::text_table.
  std::string render_table() const;
  // Long-form CSV: kind,name,value,count,sum,p50,p90,p99,min,max,self,
  // parents (one header row; span rows fill min/max/self/parents, the
  // other kinds leave them empty).  Name and parents fields are RFC-4180
  // quoted when they contain commas, quotes or newlines, so the document
  // round-trips through util::parse_csv_text.
  std::string to_csv() const;
  // {"counters": {...}, "gauges": {...}, "histograms": {...},
  //  "spans": {...}} with name-sorted stable key order.
  std::string to_json() const;
};

// Whether Registry::snapshot first drains in-flight CounterBatches.  The
// tools' --metrics and --report paths use kActiveBatches so a snapshot can
// never under-count work still buffered on other threads.
enum class SnapshotFlush { kNone, kActiveBatches };

// The process-global registry.  Metric objects are created on first use and
// live for the process lifetime; returned references stay valid forever
// (reset_for_test zeroes values but never removes registrations, so the
// references cached by the macros below cannot dangle).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // `bounds` is used only when the histogram does not exist yet.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);
  // Histogram named "span.<name>" with span_time_bounds_us().
  Histogram& span_histogram(std::string_view name);
  // Aggregate keyed by the bare span name, wrapping span_histogram(name).
  SpanAggregate& span_aggregate(std::string_view name);

  Snapshot snapshot(SnapshotFlush flush = SnapshotFlush::kNone) const;
  // Zeroes every registered metric (registrations remain).
  void reset_for_test();

  // Emits the flight recorder's merged ring to WMESH_FLIGHT_OUT (see
  // obs/flight.h).  False when the recorder is disarmed or unwritable.
  bool dump_flight();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, SpanAggregate, std::less<>> spans_;
};

}  // namespace wmesh::obs

#if defined(WMESH_OBS_DISABLED)

#define WMESH_COUNTER_ADD(name, n) \
  do {                             \
    (void)sizeof(n);               \
  } while (0)
#define WMESH_COUNTER_INC(name) static_cast<void>(0)
#define WMESH_GAUGE_SET(name, v) \
  do {                           \
    (void)sizeof(v);             \
  } while (0)
#define WMESH_HISTOGRAM_RECORD(name, v) \
  do {                                  \
    (void)sizeof(v);                    \
  } while (0)
#define WMESH_HISTOGRAM_RECORD_BOUNDS(name, v, bounds) \
  do {                                                 \
    (void)sizeof(v);                                   \
  } while (0)

#else

// `name` must be a string literal (one registry lookup per call site).
#define WMESH_COUNTER_ADD(name, n)                          \
  do {                                                      \
    static ::wmesh::obs::Counter& wmesh_obs_counter_ =      \
        ::wmesh::obs::Registry::instance().counter(name);   \
    wmesh_obs_counter_.add(static_cast<std::uint64_t>(n));  \
  } while (0)
#define WMESH_COUNTER_INC(name) WMESH_COUNTER_ADD(name, 1)
#define WMESH_GAUGE_SET(name, v)                        \
  do {                                                  \
    static ::wmesh::obs::Gauge& wmesh_obs_gauge_ =      \
        ::wmesh::obs::Registry::instance().gauge(name); \
    wmesh_obs_gauge_.set(static_cast<double>(v));       \
  } while (0)
// Records into a histogram with span-time bounds under the literal name.
#define WMESH_HISTOGRAM_RECORD(name, v)                       \
  do {                                                        \
    static ::wmesh::obs::Histogram& wmesh_obs_hist_ =         \
        ::wmesh::obs::Registry::instance().histogram(         \
            name, ::wmesh::obs::span_time_bounds_us());       \
    wmesh_obs_hist_.record(static_cast<double>(v));           \
  } while (0)
// As above with an explicit bounds expression (evaluated once, on first
// registration), e.g. WMESH_HISTOGRAM_RECORD_BOUNDS("serve.query_us", us,
// ::wmesh::obs::query_time_bounds_us()).
#define WMESH_HISTOGRAM_RECORD_BOUNDS(name, v, bounds)          \
  do {                                                          \
    static ::wmesh::obs::Histogram& wmesh_obs_hist_ =           \
        ::wmesh::obs::Registry::instance().histogram(name,      \
                                                     (bounds)); \
    wmesh_obs_hist_.record(static_cast<double>(v));             \
  } while (0)

#endif  // WMESH_OBS_DISABLED
