#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = (static_cast<double>(v.size()) - 1.0) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double h = (static_cast<double>(n) - 1.0) * q;
  return n - 1 - static_cast<std::size_t>(std::floor(h));
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return !in.bad();
}

bool Tally::op(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (!ok && failed_.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
  }
  return ok;
}

namespace {

struct ThreadState {
  std::vector<std::uint64_t> open_ids;       // innermost last
  std::vector<std::uint64_t> open_requests;  // parallel to open_ids
  std::uint32_t thread = 0;
};

thread_local ThreadState t_state;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_.size();
}

std::map<std::string, double> Tracer::self_ms_by_layer(std::size_t from) const {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.assign(closed_.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(from, closed_.size())),
               closed_.end());
  }
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const auto& s : all) children[s.parent].push_back(&s);

  std::map<std::string, double> out;
  for (const auto& s : all) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> iv;
    for (const SpanRecord* c : children[s.id]) {
      iv.emplace_back(std::max(c->start_s, s.start_s),
                      std::min(c->end_s, s.end_s));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += 1e3 * std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << "[\n";
  char buf[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                  "\"thread\":%u}%s\n",
                  s.name.c_str(), 1e6 * s.start_s, 1e6 * s.end_s,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.thread,
                  i + 1 < all.size() ? "," : "");
    f << buf;
  }
  f << "]\n";
  return static_cast<bool>(f);
}

Span::Span(const char* name, std::uint64_t request) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  active_ = true;
  ThreadState& ts = t_state;
  if (ts.thread == 0) ts.thread = ++t.last_thread_;
  rec_.name = name;
  rec_.id = ++t.last_id_;
  rec_.parent = ts.open_ids.empty() ? 0 : ts.open_ids.back();
  rec_.request =
      request != 0 ? request
                   : (ts.open_requests.empty() ? 0 : ts.open_requests.back());
  rec_.thread = ts.thread;
  ts.open_ids.push_back(rec_.id);
  ts.open_requests.push_back(rec_.request);
  rec_.start_s = now_s();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_s = now_s();
  ThreadState& ts = t_state;
  ts.open_ids.pop_back();
  ts.open_requests.pop_back();
  Tracer& t = Tracer::instance();
  std::lock_guard<std::mutex> lock(t.mu_);
  t.closed_.push_back(std::move(rec_));
}

}  // namespace perfbench
