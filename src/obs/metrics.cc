#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/flight.h"
#include "util/csv.h"
#include "util/text_table.h"

namespace wmesh::obs {

namespace {

thread_local CounterBatch* t_counter_batch = nullptr;

// All batches currently alive on any thread, so snapshot(kActiveBatches)
// can drain them.  flush_all_active holds this mutex for the whole walk;
// a batch destructor unregisters under the same mutex, so a batch can
// never be destroyed while a remote flusher is touching it.
std::mutex& batch_list_mu() {
  static std::mutex mu;
  return mu;
}
std::vector<CounterBatch*>& batch_list() {
  static std::vector<CounterBatch*>* l = new std::vector<CounterBatch*>();
  return *l;
}

constexpr std::string_view kSpanHistogramPrefix = "span.";

struct Quantiles {
  double p50, p90, p99;
};

// p50/p90/p99 of `h`.  For a span's histogram (`span` set) they are clamped
// to the aggregate's exact [min, max]: a bucket bound can lie past the
// extremes (one 601 ms span sits in the 1,048,576 us bucket).  A record()
// racing the snapshot may have set min but not yet max; such quantiles stay
// unclamped.
Quantiles quantiles(const Histogram& h, const SpanAggregate* span) {
  Quantiles q{h.quantile(0.50), h.quantile(0.90), h.quantile(0.99)};
  if (span == nullptr) return q;
  const double lo = span->min();
  const double hi = span->max();
  if (lo <= hi) {
    q.p50 = std::clamp(q.p50, lo, hi);
    q.p90 = std::clamp(q.p90, lo, hi);
    q.p99 = std::clamp(q.p99, lo, hi);
  }
  return q;
}

}  // namespace

CounterBatch::CounterBatch() noexcept : prev_(t_counter_batch) {
  t_counter_batch = this;
  try {
    std::lock_guard<std::mutex> lock(batch_list_mu());
    batch_list().push_back(this);
  } catch (...) {
    // Unregistered batch: buffer() still works, only flush_all_active
    // cannot see it.  The destructor's erase is a no-op for this batch.
  }
}

CounterBatch::~CounterBatch() {
  {
    std::lock_guard<std::mutex> lock(batch_list_mu());
    auto& l = batch_list();
    l.erase(std::remove(l.begin(), l.end(), this), l.end());
  }
  flush();
  t_counter_batch = prev_;
}

void CounterBatch::flush() noexcept {
  // Entries are only appended, never removed, and a deque never relocates
  // its elements; holding mu_ pins the entry count against a concurrent
  // append by the owning thread.
  std::lock_guard<std::mutex> lock(mu_);
  const bool flight = flight::enabled();
  for (Entry& e : pending_) {
    const std::uint64_t n = e.pending.exchange(0, std::memory_order_relaxed);
    if (n != 0) {
      e.counter->value_.fetch_add(n, std::memory_order_relaxed);
      if (flight && e.counter->bound_name() != nullptr) {
        flight::record(flight::EventKind::kCounter, e.counter->bound_name(),
                       n, 0);
      }
    }
  }
}

void CounterBatch::buffer(Counter* c, std::uint64_t n) noexcept {
  // Owner-only fast path: nobody else appends, so scanning the deque
  // without mu_ is safe, and the per-entry atomic add is uncontended.
  for (Entry& e : pending_) {
    if (e.counter == c) {
      e.pending.fetch_add(n, std::memory_order_relaxed);
      return;
    }
  }
  try {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.emplace_back(c, n);
  } catch (...) {
    c->value_.fetch_add(n, std::memory_order_relaxed);
  }
}

CounterBatch* CounterBatch::active() noexcept { return t_counter_batch; }

void CounterBatch::flush_all_active() noexcept {
  std::lock_guard<std::mutex> lock(batch_list_mu());
  for (CounterBatch* b : batch_list()) b->flush();
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::record(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double target = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t c = bucket(i);
    if (c == 0) continue;
    cum += c;
    if (static_cast<double>(cum) + 1e-9 >= target) {
      // Report the bucket's upper bound; the overflow bucket has none, so
      // fall back to the last finite bound.
      return i < bounds_.size() ? bounds_[i] : bounds_.back();
    }
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

namespace {

// Relaxed CAS loops; fine for min/max because the combining function is
// idempotent and order-independent.
void atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void SpanAggregate::record(double us, double self_us,
                           const char* parent_name) noexcept {
  hist_.record(us);
  atomic_min(min_, us);
  atomic_max(max_, us);
  self_total_.fetch_add(self_us, std::memory_order_relaxed);
  record_parent(parent_name != nullptr ? parent_name : "(root)");
}

void SpanAggregate::record_parent(const char* name) noexcept {
  for (std::size_t i = 0; i < kMaxParents; ++i) {
    const char* key = parents_[i].key.load(std::memory_order_acquire);
    if (key == nullptr) {
      // Claim the empty slot; a lost race leaves `key` pointing at the
      // winner's name, which may still be ours by content.
      if (parents_[i].key.compare_exchange_strong(key, name,
                                                  std::memory_order_acq_rel)) {
        parents_[i].count.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    if (key == name || std::strcmp(key, name) == 0) {
      parents_[i].count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  parent_other_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, std::uint64_t>>
SpanAggregate::parent_counts() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t i = 0; i < kMaxParents; ++i) {
    const char* key = parents_[i].key.load(std::memory_order_acquire);
    if (key == nullptr) continue;
    const std::uint64_t n = parents_[i].count.load(std::memory_order_relaxed);
    if (n != 0) out.emplace_back(key, n);
  }
  const std::uint64_t other =
      parent_other_.load(std::memory_order_relaxed);
  if (other != 0) out.emplace_back("(other)", other);
  std::sort(out.begin(), out.end());
  return out;
}

double SpanAggregate::min() const noexcept {
  const double v = min_.load(std::memory_order_relaxed);
  return v >= kUnset ? 0.0 : v;
}

double SpanAggregate::max() const noexcept {
  const double v = max_.load(std::memory_order_relaxed);
  return v <= -kUnset ? 0.0 : v;
}

void SpanAggregate::reset() noexcept {
  // The wrapped histogram is reset by the registry (it owns it).
  min_.store(kUnset, std::memory_order_relaxed);
  max_.store(-kUnset, std::memory_order_relaxed);
  self_total_.store(0.0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMaxParents; ++i) {
    parents_[i].key.store(nullptr, std::memory_order_relaxed);
    parents_[i].count.store(0, std::memory_order_relaxed);
  }
  parent_other_.store(0, std::memory_order_relaxed);
}

std::vector<double> span_time_bounds_us() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 17e6; b *= 2.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> query_time_bounds_us() {
  // 1-2-5 decades through 1 ms: cached serve queries cluster well under
  // 100 us, where the doubling ladder has almost no resolution.
  std::vector<double> bounds = {1.0,   2.0,   5.0,   10.0,  20.0,
                                50.0,  100.0, 200.0, 500.0, 1000.0};
  for (double b = 2000.0; b <= 17e6; b *= 2.0) bounds.push_back(b);
  return bounds;
}

Registry& Registry::instance() {
  static Registry* r = new Registry();  // leaked: outlives atexit users
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
    // Map keys never move; the bound name feeds flight-recorder events.
    it->second.bind_name(it->first.c_str());
  }
  return it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name), std::move(bounds)).first;
  }
  return it->second;
}

Histogram& Registry::span_histogram(std::string_view name) {
  return histogram(std::string(kSpanHistogramPrefix) + std::string(name),
                   span_time_bounds_us());
}

SpanAggregate& Registry::span_aggregate(std::string_view name) {
  // Take the histogram first: both calls lock mu_, and map references are
  // stable, so the aggregate can hold the reference forever.
  Histogram& hist = span_histogram(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(name);
  if (it == spans_.end()) {
    it = spans_.try_emplace(std::string(name), hist).first;
  }
  return it->second;
}

Snapshot Registry::snapshot(SnapshotFlush flush) const {
  if (flush == SnapshotFlush::kActiveBatches) {
    CounterBatch::flush_all_active();
  }
  Snapshot s;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    s.counters.push_back({name, c.value()});
  }
  for (const auto& [name, g] : gauges_) {
    s.gauges.push_back({name, g.value()});
  }
  for (const auto& [name, h] : histograms_) {
    // A span.<name> histogram reports its aggregate's clamped quantiles, so
    // it agrees with the span row.
    const SpanAggregate* owner = nullptr;
    if (name.starts_with(kSpanHistogramPrefix)) {
      const auto it = spans_.find(
          std::string_view(name).substr(kSpanHistogramPrefix.size()));
      if (it != spans_.end()) owner = &it->second;
    }
    const Quantiles q = quantiles(h, owner);
    Snapshot::HistogramRow row{name,  h.count(), h.sum(),    q.p50,
                               q.p90, q.p99,     h.bounds(), {}};
    row.cumulative.reserve(row.bounds.size());
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < row.bounds.size(); ++i) {
      cum += h.bucket(i);
      // Clamp: a record() racing this snapshot can land in a bucket after
      // count() was read; the exposition must stay cumulative-consistent.
      row.cumulative.push_back(std::min(cum, row.count));
    }
    s.histograms.push_back(std::move(row));
  }
  for (const auto& [name, a] : spans_) {
    const Quantiles q = quantiles(a.histogram(), &a);
    s.spans.push_back({name, a.count(), a.total(), a.self_total(), a.min(),
                       a.max(), q.p50, q.p90, q.p99, a.parent_counts()});
  }
  return s;  // std::map iteration is already name-sorted
}

bool Registry::dump_flight() { return flight::dump_to_env_path(); }

void Registry::reset_for_test() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
  for (auto& [name, a] : spans_) a.reset();
}

std::string Snapshot::render_table() const {
  std::string out;
  if (!counters.empty() || !gauges.empty()) {
    TextTable t;
    t.header({"metric", "value"});
    for (const auto& c : counters) {
      t.add_row({c.name, std::to_string(c.value)});
    }
    for (const auto& g : gauges) t.add_row({g.name, fmt(g.value, 3)});
    out += t.render();
  }
  if (!histograms.empty()) {
    TextTable t;
    t.header({"histogram", "count", "sum", "p50", "p90", "p99"});
    for (const auto& h : histograms) {
      t.add_row({h.name, std::to_string(h.count), fmt(h.sum, 1),
                 fmt(h.p50, 1), fmt(h.p90, 1), fmt(h.p99, 1)});
    }
    if (!out.empty()) out += '\n';
    out += t.render();
  }
  if (!spans.empty()) {
    TextTable t;
    t.header({"span (us)", "count", "total", "self", "min", "max", "p50",
              "p90", "p99"});
    for (const auto& sp : spans) {
      t.add_row({sp.name, std::to_string(sp.count), fmt(sp.total_us, 1),
                 fmt(sp.self_us, 1), fmt(sp.min_us, 1), fmt(sp.max_us, 1),
                 fmt(sp.p50_us, 1), fmt(sp.p90_us, 1), fmt(sp.p99_us, 1)});
    }
    if (!out.empty()) out += '\n';
    out += t.render();
  }
  return out;
}

std::string Snapshot::to_csv() const {
  std::string out = "kind,name,value,count,sum,p50,p90,p99,min,max,self,parents\n";
  for (const auto& c : counters) {
    out += "counter," + csv_escape_field(c.name) + ',' +
           std::to_string(c.value) + ",,,,,,,,,\n";
  }
  for (const auto& g : gauges) {
    out += "gauge," + csv_escape_field(g.name) + ',' + fmt(g.value, 6) +
           ",,,,,,,,,\n";
  }
  for (const auto& h : histograms) {
    out += "histogram," + csv_escape_field(h.name) + ",," +
           std::to_string(h.count) + ',' + fmt(h.sum, 3) + ',' +
           fmt(h.p50, 3) + ',' + fmt(h.p90, 3) + ',' + fmt(h.p99, 3) +
           ",,,,\n";
  }
  for (const auto& sp : spans) {
    std::string parents;
    for (const auto& [pname, pcount] : sp.parents) {
      if (!parents.empty()) parents += ';';
      parents += pname + ':' + std::to_string(pcount);
    }
    out += "span," + csv_escape_field(sp.name) + ",," +
           std::to_string(sp.count) + ',' + fmt(sp.total_us, 3) + ',' +
           fmt(sp.p50_us, 3) + ',' + fmt(sp.p90_us, 3) + ',' +
           fmt(sp.p99_us, 3) + ',' + fmt(sp.min_us, 3) + ',' +
           fmt(sp.max_us, 3) + ',' + fmt(sp.self_us, 3) + ',' +
           csv_escape_field(parents) + '\n';
  }
  return out;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  // Trim trailing zeros for readability.
  std::string s = fmt(v, 6);
  const std::size_t dot = s.find('.');
  if (dot != std::string::npos) {
    std::size_t last = s.find_last_not_of('0');
    if (last == dot) --last;
    s.erase(last + 1);
  }
  return s;
}

}  // namespace

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += (i ? ",\n    \"" : "\n    \"") + counters[i].name +
           "\": " + std::to_string(counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out += (i ? ",\n    \"" : "\n    \"") + gauges[i].name +
           "\": " + json_number(gauges[i].value);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    out += (i ? ",\n    \"" : "\n    \"") + h.name + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + json_number(h.sum) +
           ", \"p50\": " + json_number(h.p50) +
           ", \"p90\": " + json_number(h.p90) +
           ", \"p99\": " + json_number(h.p99) + "}";
  }
  out += histograms.empty() ? "},\n" : "\n  },\n";
  out += "  \"spans\": {";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& sp = spans[i];
    out += (i ? ",\n    \"" : "\n    \"") + sp.name + "\": {\"count\": " +
           std::to_string(sp.count) +
           ", \"total_us\": " + json_number(sp.total_us) +
           ", \"self_us\": " + json_number(sp.self_us) +
           ", \"min_us\": " + json_number(sp.min_us) +
           ", \"max_us\": " + json_number(sp.max_us) +
           ", \"p50_us\": " + json_number(sp.p50_us) +
           ", \"p90_us\": " + json_number(sp.p90_us) +
           ", \"p99_us\": " + json_number(sp.p99_us) + ", \"parents\": {";
    for (std::size_t j = 0; j < sp.parents.size(); ++j) {
      if (j != 0) out += ", ";
      out += '"' + sp.parents[j].first +
             "\": " + std::to_string(sp.parents[j].second);
    }
    out += "}}";
  }
  out += spans.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace wmesh::obs
