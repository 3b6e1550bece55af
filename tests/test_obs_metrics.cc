#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/resource.h"
#include "util/csv.h"

namespace wmesh::obs {
namespace {

// Tests use unique metric names: the registry is process-global and other
// suites (generator, etx, ...) populate it too.

TEST(ObsCounter, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsGauge, SetAndValue) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(ObsHistogram, BucketSemantics) {
  Histogram h({1.0, 10.0, 100.0});
  h.record(0.5);    // bucket 0 (<= 1)
  h.record(1.0);    // bucket 0 (inclusive upper bound)
  h.record(5.0);    // bucket 1
  h.record(100.0);  // bucket 2
  h.record(1e6);    // overflow bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  ASSERT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
}

TEST(ObsHistogram, QuantilesMonotone) {
  Histogram h(span_time_bounds_us());
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const double p50 = h.quantile(0.50);
  const double p90 = h.quantile(0.90);
  const double p99 = h.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // p50 of 1..1000 lands in the bucket whose bound covers 500.
  EXPECT_GE(p50, 500.0);
  EXPECT_LE(p50, 1024.0);
}

TEST(ObsHistogram, EmptyQuantileIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(ObsRegistry, SameNameSameObject) {
  Counter& a = Registry::instance().counter("test.registry.same");
  Counter& b = Registry::instance().counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsRegistry, ConcurrentIncrements) {
  Counter& c = Registry::instance().counter("test.registry.concurrent");
  Histogram& h = Registry::instance().histogram(
      "test.registry.concurrent_hist", {10.0, 1000.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        if (i % 1000 == 0) h.record(static_cast<double>(i % 20));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * 100);
}

TEST(ObsRegistry, MacroCountsThroughRegistry) {
  for (int i = 0; i < 5; ++i) {
    WMESH_COUNTER_INC("test.registry.macro");
  }
  WMESH_COUNTER_ADD("test.registry.macro", 10);
#if defined(WMESH_OBS_DISABLED)
  EXPECT_EQ(Registry::instance().counter("test.registry.macro").value(), 0u);
#else
  EXPECT_EQ(Registry::instance().counter("test.registry.macro").value(), 15u);
#endif
}

TEST(ObsSnapshot, DeterministicAndSorted) {
  Registry::instance().counter("test.snap.b").add(2);
  Registry::instance().counter("test.snap.a").add(1);
  Registry::instance().gauge("test.snap.g").set(3.5);
  Registry::instance()
      .histogram("test.snap.h", {1.0, 2.0})
      .record(1.5);

  const Snapshot s1 = Registry::instance().snapshot();
  const Snapshot s2 = Registry::instance().snapshot();

  // Same state -> identical snapshots.
  ASSERT_EQ(s1.counters.size(), s2.counters.size());
  for (std::size_t i = 0; i < s1.counters.size(); ++i) {
    EXPECT_EQ(s1.counters[i].name, s2.counters[i].name);
    EXPECT_EQ(s1.counters[i].value, s2.counters[i].value);
  }

  // Names are sorted.
  for (std::size_t i = 1; i < s1.counters.size(); ++i) {
    EXPECT_LT(s1.counters[i - 1].name, s1.counters[i].name);
  }

  // "test.snap.a" precedes "test.snap.b" and both are present.
  std::size_t ia = s1.counters.size(), ib = s1.counters.size();
  for (std::size_t i = 0; i < s1.counters.size(); ++i) {
    if (s1.counters[i].name == "test.snap.a") ia = i;
    if (s1.counters[i].name == "test.snap.b") ib = i;
  }
  ASSERT_LT(ia, s1.counters.size());
  ASSERT_LT(ib, s1.counters.size());
  EXPECT_LT(ia, ib);
}

TEST(ObsSnapshot, Renderings) {
  Registry::instance().counter("test.render.count").add(7);
  Registry::instance().span_aggregate("test.render.span").record(123.0);
  const Snapshot s = Registry::instance().snapshot();

  const std::string table = s.render_table();
  EXPECT_NE(table.find("test.render.count"), std::string::npos);
  EXPECT_NE(table.find("span.test.render.span"), std::string::npos);

  const std::string csv = s.to_csv();
  EXPECT_EQ(csv.rfind(
                "kind,name,value,count,sum,p50,p90,p99,min,max,self,parents\n",
                0),
            0u);
  EXPECT_NE(csv.find("counter,test.render.count,7"), std::string::npos);
  EXPECT_NE(csv.find("histogram,span.test.render.span"), std::string::npos);
  EXPECT_NE(csv.find("span,test.render.span"), std::string::npos);

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.render.count\": 7"), std::string::npos);
  // Balanced braces/brackets (structural well-formedness).
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObsRegistry, ResetForTestZeroesButKeepsRegistrations) {
  Counter& c = Registry::instance().counter("test.reset.counter");
  c.add(5);
  Registry::instance().reset_for_test();
  EXPECT_EQ(c.value(), 0u);
  // The same object is still registered under the name.
  EXPECT_EQ(&Registry::instance().counter("test.reset.counter"), &c);
}

// ---------------------------------------------------------------------------
// Span aggregates (obs v2)
// ---------------------------------------------------------------------------

TEST(ObsSpanAggregate, TracksCountTotalAndExactMinMax) {
  SpanAggregate& a = Registry::instance().span_aggregate("test.agg.basic");
  a.reset();
  Registry::instance().span_histogram("test.agg.basic").reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);

  a.record(10.0);
  a.record(2.0);
  a.record(300.0);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.total(), 312.0);
  // Exact extremes, not bucket approximations.
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 300.0);

  // The same instance is registered under the name, and records also land
  // in the backwards-compatible "span.<name>" histogram.
  EXPECT_EQ(&Registry::instance().span_aggregate("test.agg.basic"), &a);
  EXPECT_EQ(Registry::instance().span_histogram("test.agg.basic").count(), 3u);
}

TEST(ObsSpanAggregate, SnapshotCarriesSpanRows) {
  SpanAggregate& a = Registry::instance().span_aggregate("test.agg.snap");
  a.reset();
  Registry::instance().span_histogram("test.agg.snap").reset();
  a.record(50.0);
  a.record(150.0);

  const Snapshot s = Registry::instance().snapshot();
  const Snapshot::SpanRow* row = nullptr;
  for (const auto& r : s.spans) {
    if (r.name == "test.agg.snap") row = &r;
  }
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->count, 2u);
  EXPECT_DOUBLE_EQ(row->total_us, 200.0);
  EXPECT_DOUBLE_EQ(row->min_us, 50.0);
  EXPECT_DOUBLE_EQ(row->max_us, 150.0);
  EXPECT_GT(row->p50_us, 0.0);

  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"test.agg.snap\""), std::string::npos);
}

const Snapshot::SpanRow* find_span_row(const Snapshot& s,
                                        const std::string& name) {
  for (const auto& r : s.spans) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

TEST(ObsSpanAggregate, OneSampleSpanReportsItsOwnDuration) {
  // 601 ms lands in the 1,048,576 us bucket; every quantile of one sample
  // is the sample itself.
  SpanAggregate& a = Registry::instance().span_aggregate("test.agg.one");
  a.reset();
  Registry::instance().span_histogram("test.agg.one").reset();
  a.record(601000.0);
  EXPECT_GT(a.histogram().quantile(0.5), 601000.0);  // the raw bucket bound

  const Snapshot s = Registry::instance().snapshot();
  const Snapshot::SpanRow* row = find_span_row(s, "test.agg.one");
  ASSERT_NE(row, nullptr);
  EXPECT_DOUBLE_EQ(row->p50_us, 601000.0);
  EXPECT_DOUBLE_EQ(row->p90_us, 601000.0);
  EXPECT_DOUBLE_EQ(row->p99_us, 601000.0);

  // The span.<name> histogram row mirrors the same aggregate and agrees;
  // its buckets, which the OpenMetrics exposition reads, stay raw.
  const Snapshot::HistogramRow* hist = nullptr;
  for (const auto& h : s.histograms) {
    if (h.name == "span.test.agg.one") hist = &h;
  }
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 1u);
  EXPECT_DOUBLE_EQ(hist->p50, row->p50_us);
  EXPECT_DOUBLE_EQ(hist->p90, row->p90_us);
  EXPECT_DOUBLE_EQ(hist->p99, row->p99_us);
  std::size_t first_hit = 0;
  while (hist->cumulative[first_hit] == 0) ++first_hit;
  EXPECT_GT(hist->bounds[first_hit], 601000.0);
}

TEST(ObsSpanAggregate, SnapshotQuantilesStayWithinMinAndMax) {
  // The top sample sits in the (131072, 262144] bucket, so the raw p99 is
  // the 262,144 us bound, above the observed max.
  SpanAggregate& a = Registry::instance().span_aggregate("test.agg.p99");
  a.reset();
  Registry::instance().span_histogram("test.agg.p99").reset();
  for (int i = 0; i < 9; ++i) a.record(300.0 + i);
  a.record(179197.0);
  EXPECT_GT(a.histogram().quantile(0.99), 179197.0);

  const Snapshot s = Registry::instance().snapshot();
  const Snapshot::SpanRow* row = find_span_row(s, "test.agg.p99");
  ASSERT_NE(row, nullptr);
  EXPECT_DOUBLE_EQ(row->max_us, 179197.0);
  EXPECT_DOUBLE_EQ(row->min_us, 300.0);
  for (const double q : {row->p50_us, row->p90_us, row->p99_us}) {
    EXPECT_GE(q, row->min_us);
    EXPECT_LE(q, row->max_us);
  }
  EXPECT_DOUBLE_EQ(row->p99_us, 179197.0);
  EXPECT_LE(row->p50_us, 512.0);  // in-range quantiles keep their bucket
}

TEST(ObsSpanAggregate, ConcurrentRecordsKeepExactCountAndExtremes) {
  SpanAggregate& a = Registry::instance().span_aggregate("test.agg.mt");
  a.reset();
  Registry::instance().span_histogram("test.agg.mt").reset();
  constexpr int kThreads = 8, kPer = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&a, t] {
      for (int i = 0; i < kPer; ++i) {
        a.record(1.0 + t * kPer + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(a.count(), static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), static_cast<double>(kThreads * kPer));
}

// ---------------------------------------------------------------------------
// CounterBatch snapshot gap (the documented obs-v1 limitation): a snapshot
// taken while another thread holds an active batch must be able to see the
// buffered deltas via SnapshotFlush::kActiveBatches.
// ---------------------------------------------------------------------------

TEST(CounterBatchFlush, SnapshotDrainsActiveBatchesOnOtherThreads) {
  Counter& c = Registry::instance().counter("test.batch.active_flush");
  c.reset();

  std::mutex mu;
  std::condition_variable cv;
  bool buffered = false, release = false;

  std::thread holder([&] {
    CounterBatch batch;
    c.add(41);
    c.add(1);
    {
      std::lock_guard<std::mutex> lk(mu);
      buffered = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
    // batch destructor flushes again on exit (a no-op here: the snapshot
    // below already drained it).
  });

  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return buffered; });
  }

  // Plain snapshot: the deltas still sit in the holder's batch.
  std::uint64_t plain = 0;
  for (const auto& row : Registry::instance().snapshot().counters) {
    if (row.name == "test.batch.active_flush") plain = row.value;
  }
  EXPECT_EQ(plain, 0u);

  // Flushing snapshot: drains the active batch remotely.
  std::uint64_t flushed = 0;
  const Snapshot s =
      Registry::instance().snapshot(SnapshotFlush::kActiveBatches);
  for (const auto& row : s.counters) {
    if (row.name == "test.batch.active_flush") flushed = row.value;
  }
  EXPECT_EQ(flushed, 42u);
  EXPECT_EQ(c.value(), 42u);

  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
  EXPECT_EQ(c.value(), 42u);  // nothing double-counted by the dtor flush
}

TEST(CounterBatchFlush, OwnerKeepsBufferingAfterRemoteFlush) {
  Counter& c = Registry::instance().counter("test.batch.after_remote");
  c.reset();
  CounterBatch batch;
  c.add(3);
  EXPECT_EQ(c.value(), 0u);
  CounterBatch::flush_all_active();  // remote drain from this thread's view
  EXPECT_EQ(c.value(), 3u);
  c.add(4);  // owner fast path keeps working against the drained entry
  EXPECT_EQ(c.value(), 3u);
  batch.flush();
  EXPECT_EQ(c.value(), 7u);
}

// ---------------------------------------------------------------------------
// Self-time and causal parent attribution (obs v3)
// ---------------------------------------------------------------------------

TEST(ObsSpanAggregate, SelfTimeAndParentAttribution) {
  SpanAggregate& a = Registry::instance().span_aggregate("test.agg.parents");
  a.reset();
  Registry::instance().span_histogram("test.agg.parents").reset();

  a.record(100.0, 60.0, "test.agg.caller_a");
  a.record(50.0, 50.0, "test.agg.caller_a");
  a.record(30.0, 10.0, "test.agg.caller_b");
  a.record(20.0, 20.0, nullptr);  // root span

  EXPECT_DOUBLE_EQ(a.total(), 200.0);
  EXPECT_DOUBLE_EQ(a.self_total(), 140.0);

  const auto parents = a.parent_counts();
  std::uint64_t from_a = 0, from_b = 0, from_root = 0;
  for (const auto& [name, count] : parents) {
    if (name == "test.agg.caller_a") from_a = count;
    if (name == "test.agg.caller_b") from_b = count;
    if (name == "(root)") from_root = count;
  }
  EXPECT_EQ(from_a, 2u);
  EXPECT_EQ(from_b, 1u);
  EXPECT_EQ(from_root, 1u);
}

TEST(ObsSpanAggregate, ParentSlotsOverflowIntoOther) {
  SpanAggregate& a = Registry::instance().span_aggregate("test.agg.overflow");
  a.reset();
  Registry::instance().span_histogram("test.agg.overflow").reset();
  // More distinct parents than the fixed slot array holds: the surplus is
  // attributed to the "(other)" sentinel instead of being lost.
  static const char* const kParents[] = {"p0", "p1", "p2", "p3", "p4",
                                         "p5", "p6", "p7", "p8", "p9"};
  for (const char* p : kParents) a.record(1.0, 1.0, p);

  std::uint64_t named = 0, other = 0;
  for (const auto& [name, count] : a.parent_counts()) {
    if (name == "(other)") {
      other += count;
    } else {
      named += count;
    }
  }
  EXPECT_EQ(named, SpanAggregate::kMaxParents);
  EXPECT_EQ(named + other, 10u);
}

// ---------------------------------------------------------------------------
// CSV escaping: --metrics output must survive names and parent lists that
// contain commas or quotes, and parse back cell-exact.
// ---------------------------------------------------------------------------

TEST(ObsSnapshot, CsvEscapesAwkwardNamesAndRoundTrips) {
  Registry::instance().reset_for_test();
  static const char* const kWeird = "test.csv.\"quoted\",comma";
  Registry::instance().counter(kWeird).add(9);
  // A span with two parents: the parents cell itself contains ';' and ':'
  // plus the quoted-comma parent name, so it must be quoted as a whole.
  SpanAggregate& a = Registry::instance().span_aggregate("test.csv.span");
  a.record(10.0, 10.0, kWeird);
  a.record(20.0, 20.0, "test.csv.plain");

  const std::string csv =
      Registry::instance().snapshot(SnapshotFlush::kActiveBatches).to_csv();
  const auto rows = parse_csv_text(csv);
  ASSERT_GE(rows.size(), 3u);
  ASSERT_EQ(rows[0].size(), 12u);
  EXPECT_EQ(rows[0][1], "name");
  EXPECT_EQ(rows[0][10], "self");
  EXPECT_EQ(rows[0][11], "parents");

  const std::vector<std::string>* counter_row = nullptr;
  const std::vector<std::string>* span_row = nullptr;
  for (const auto& row : rows) {
    if (row.size() == 12 && row[0] == "counter" && row[1] == kWeird) {
      counter_row = &row;
    }
    if (row.size() == 12 && row[0] == "span" && row[1] == "test.csv.span") {
      span_row = &row;
    }
  }
  ASSERT_NE(counter_row, nullptr) << csv;
  EXPECT_EQ((*counter_row)[2], "9");  // name round-tripped cell-exact

  ASSERT_NE(span_row, nullptr) << csv;
  EXPECT_EQ((*span_row)[3], "2");  // count
  // The parents cell decodes to the raw name:count list -- including the
  // comma and quotes inside the weird parent name.
  const std::string& parents = (*span_row)[11];
  EXPECT_NE(parents.find(std::string(kWeird) + ":1"), std::string::npos)
      << parents;
  EXPECT_NE(parents.find("test.csv.plain:1"), std::string::npos) << parents;
}

// ---------------------------------------------------------------------------
// Resource sampling degrades gracefully without /proc/self/status.
// ---------------------------------------------------------------------------

TEST(ObsResource, MissingProcStatusZeroesFieldsAndCountsTheError) {
  Counter& errors = Registry::instance().counter("resource.sampler_errors");
  errors.reset();
  ::setenv("WMESH_PROC_STATUS_PATH", "/nonexistent/wmesh/proc_status", 1);
  const ResourceUsage broken = sample_resources();
  ::unsetenv("WMESH_PROC_STATUS_PATH");

  EXPECT_EQ(broken.current_rss_bytes, 0u);
#if !defined(WMESH_OBS_DISABLED)
  EXPECT_EQ(errors.value(), 1u);
#endif
  // getrusage still supplies CPU time and a max-RSS floor.
  EXPECT_GE(broken.user_cpu_s + broken.sys_cpu_s, 0.0);

  // With the override gone the real /proc works again, error-free.
  const std::uint64_t errors_before = errors.value();
  const ResourceUsage ok = sample_resources();
  EXPECT_EQ(errors.value(), errors_before);
  EXPECT_GT(ok.current_rss_bytes, 0u);
  EXPECT_GE(ok.peak_rss_bytes, ok.current_rss_bytes);
}

// ---------------------------------------------------------------------------
// The serve.query_us bounds ladder: 1-2-5 decades under 1 ms (where cached
// queries cluster), doubling above.
// ---------------------------------------------------------------------------

TEST(ObsBounds, QueryTimeLadderIsFineGrainedBelowOneMillisecond) {
  const std::vector<double> bounds = query_time_bounds_us();
  const std::vector<double> sub_ms = {1.0,  2.0,   5.0,   10.0,  20.0,
                                      50.0, 100.0, 200.0, 500.0, 1000.0};
  ASSERT_GE(bounds.size(), sub_ms.size());
  for (std::size_t i = 0; i < sub_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], sub_ms[i]) << "bound " << i;
  }
  // Doubling from 2 ms up; strictly ascending throughout; top bound covers
  // a ~16 s outlier query but no more.
  for (std::size_t i = sub_ms.size() + 1; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(bounds[i], bounds[i - 1] * 2.0) << "bound " << i;
  }
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "bound " << i;
  }
  EXPECT_GE(bounds.back(), 16e6);
  EXPECT_LE(bounds.back(), 17e6);

  // The ladder is what the serve query path actually registers: recording
  // through the macro binds these bounds on first use.
  Registry::instance().reset_for_test();
  WMESH_HISTOGRAM_RECORD_BOUNDS("serve.query_us", 3.0,
                                ::wmesh::obs::query_time_bounds_us());
#if !defined(WMESH_OBS_DISABLED)
  const Snapshot snap = Registry::instance().snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "serve.query_us");
  ASSERT_EQ(snap.histograms[0].bounds.size(), bounds.size());
  EXPECT_DOUBLE_EQ(snap.histograms[0].bounds[2], 5.0);
#endif
}

}  // namespace
}  // namespace wmesh::obs
