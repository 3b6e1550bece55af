// OpenMetrics exposition coverage: render/parse/lint round trips over a
// real registry snapshot, the strict-parser error paths the lint relies
// on, and OpenMetricsLive.* -- the live-endpoint cases behind the
// `openmetrics_lint` ctest, which scrape an ExportServer mid-flight while
// an analysis workload runs and check types, bucket cumulativity and
// counter monotonicity over the socket.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "obs/export_server.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "sim/generator.h"

namespace wmesh::obs {
namespace {

TEST(OpenMetrics, RenderedRegistryParsesAndLintsClean) {
  Registry& reg = Registry::instance();
  reg.reset_for_test();
  reg.counter("test.om.events").add(7);
  reg.gauge("test.om.depth").set(3.5);
  Histogram& h = reg.histogram("test.om.lat_us", {10.0, 100.0, 1000.0});
  h.record(5.0);
  h.record(50.0);
  h.record(5000.0);
  reg.span_aggregate("test.om.span").record(120.0, 80.0, "test.om.parent");

  const std::string text = render_openmetrics(reg.snapshot());
  OmDocument doc;
  std::string error;
  ASSERT_TRUE(parse_openmetrics(text, &doc, &error)) << error << "\n" << text;
  EXPECT_TRUE(doc.saw_eof);
  EXPECT_TRUE(lint_openmetrics(doc, &error)) << error << "\n" << text;

  // Counters gain _total; dots become underscores; wmesh_ prefix.
  const OmSample* events = doc.find("wmesh_test_om_events_total");
  ASSERT_NE(events, nullptr) << text;
  EXPECT_DOUBLE_EQ(events->value, 7.0);
  EXPECT_EQ(doc.types.at("wmesh_test_om_events"), "counter");

  const OmSample* depth = doc.find("wmesh_test_om_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(depth->value, 3.5);
  EXPECT_EQ(doc.types.at("wmesh_test_om_depth"), "gauge");

  // Histogram: cumulative buckets, +Inf == _count, sum present.
  EXPECT_EQ(doc.types.at("wmesh_test_om_lat_us"), "histogram");
  const OmSample* b10 = doc.find("wmesh_test_om_lat_us_bucket", {{"le", "10"}});
  const OmSample* binf =
      doc.find("wmesh_test_om_lat_us_bucket", {{"le", "+Inf"}});
  const OmSample* count = doc.find("wmesh_test_om_lat_us_count");
  ASSERT_TRUE(b10 && binf && count) << text;
  EXPECT_DOUBLE_EQ(b10->value, 1.0);
  EXPECT_DOUBLE_EQ(binf->value, 3.0);
  EXPECT_DOUBLE_EQ(count->value, 3.0);

  // Span families: labeled by span name, with self-time and causal edges.
  const OmSample* scount =
      doc.find("wmesh_span_count_total", {{"span", "test.om.span"}});
  const OmSample* sself =
      doc.find("wmesh_span_self_us_total", {{"span", "test.om.span"}});
  const OmSample* edge = doc.find(
      "wmesh_span_parent_total",
      {{"span", "test.om.span"}, {"parent", "test.om.parent"}});
  ASSERT_TRUE(scount && sself && edge) << text;
  EXPECT_DOUBLE_EQ(scount->value, 1.0);
  EXPECT_DOUBLE_EQ(sself->value, 80.0);
  EXPECT_DOUBLE_EQ(edge->value, 1.0);
}

TEST(OpenMetrics, LabelValuesEscapeAndRoundTrip) {
  // Span names are literals in practice, but the renderer must still escape
  // quotes, backslashes and newlines so the exposition stays parseable.
  Registry& reg = Registry::instance();
  reg.reset_for_test();
  static const char* const kAwkward = "test.om.\"quoted\\name\"\nline2";
  reg.span_aggregate(kAwkward).record(10.0, 10.0, "(root)");

  const std::string text = render_openmetrics(reg.snapshot());
  OmDocument doc;
  std::string error;
  ASSERT_TRUE(parse_openmetrics(text, &doc, &error)) << error << "\n" << text;
  EXPECT_TRUE(lint_openmetrics(doc, &error)) << error;
  const OmSample* s = doc.find("wmesh_span_count_total", {{"span", kAwkward}});
  ASSERT_NE(s, nullptr) << text;
  EXPECT_EQ(s->label("span"), kAwkward);  // byte-exact after unescape
}

TEST(OpenMetrics, ParserRejectsMalformedDocuments) {
  OmDocument doc;
  std::string error;
  // Missing # EOF terminator.
  EXPECT_FALSE(parse_openmetrics(
      "# TYPE wmesh_x counter\nwmesh_x_total 1\n", &doc, &error));
  // Garbage line.
  EXPECT_FALSE(parse_openmetrics(
      "# TYPE wmesh_x counter\nnot a sample line at all!\n# EOF\n", &doc,
      &error));
  // Non-numeric value.
  EXPECT_FALSE(parse_openmetrics(
      "# TYPE wmesh_x counter\nwmesh_x_total banana\n# EOF\n", &doc, &error));
  // Duplicate TYPE declaration.
  EXPECT_FALSE(parse_openmetrics(
      "# TYPE wmesh_x counter\n# TYPE wmesh_x gauge\n# EOF\n", &doc, &error));
}

TEST(OpenMetrics, LintCatchesStructuralViolations) {
  OmDocument doc;
  std::string error;

  // Sample without a declared family.
  ASSERT_TRUE(parse_openmetrics("wmesh_orphan_total 1\n# EOF\n", &doc,
                                &error))
      << error;
  EXPECT_FALSE(lint_openmetrics(doc, &error));

  // Counter sample missing the _total suffix.
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_c counter\nwmesh_c 1\n# EOF\n", &doc, &error))
      << error;
  EXPECT_FALSE(lint_openmetrics(doc, &error));

  // Negative counter.
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_c counter\nwmesh_c_total -4\n# EOF\n", &doc, &error))
      << error;
  EXPECT_FALSE(lint_openmetrics(doc, &error));

  // Non-cumulative buckets (counts decrease).
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_h histogram\n"
      "wmesh_h_bucket{le=\"1\"} 5\n"
      "wmesh_h_bucket{le=\"2\"} 3\n"
      "wmesh_h_bucket{le=\"+Inf\"} 5\n"
      "wmesh_h_sum 9\nwmesh_h_count 5\n# EOF\n",
      &doc, &error))
      << error;
  EXPECT_FALSE(lint_openmetrics(doc, &error));

  // Missing +Inf bucket.
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_h histogram\n"
      "wmesh_h_bucket{le=\"1\"} 5\n"
      "wmesh_h_sum 9\nwmesh_h_count 5\n# EOF\n",
      &doc, &error))
      << error;
  EXPECT_FALSE(lint_openmetrics(doc, &error));

  // +Inf bucket disagrees with _count.
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_h histogram\n"
      "wmesh_h_bucket{le=\"1\"} 2\n"
      "wmesh_h_bucket{le=\"+Inf\"} 5\n"
      "wmesh_h_sum 9\nwmesh_h_count 4\n# EOF\n",
      &doc, &error))
      << error;
  EXPECT_FALSE(lint_openmetrics(doc, &error));
}

TEST(OpenMetrics, HelpAndUnitAnnotationsParseRecordAndAreRequired) {
  OmDocument doc;
  std::string error;
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_x counter\n"
      "# HELP wmesh_x Things that happened.\n"
      "# UNIT wmesh_x count\n"
      "wmesh_x_total 3\n# EOF\n",
      &doc, &error))
      << error;
  EXPECT_EQ(doc.helps.at("wmesh_x"), "Things that happened.");
  EXPECT_EQ(doc.units.at("wmesh_x"), "count");
  EXPECT_TRUE(lint_openmetrics(doc, &error)) << error;

  // A wmesh_* family missing HELP fails the lint...
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_x counter\n"
      "# UNIT wmesh_x count\n"
      "wmesh_x_total 3\n# EOF\n",
      &doc, &error))
      << error;
  EXPECT_FALSE(lint_openmetrics(doc, &error));
  EXPECT_NE(error.find("HELP"), std::string::npos) << error;

  // ...and so does one missing UNIT.
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_x counter\n"
      "# HELP wmesh_x Things that happened.\n"
      "wmesh_x_total 3\n# EOF\n",
      &doc, &error))
      << error;
  EXPECT_FALSE(lint_openmetrics(doc, &error));
  EXPECT_NE(error.find("UNIT"), std::string::npos) << error;

  // Duplicate HELP or UNIT declarations are parse errors, like TYPE.
  EXPECT_FALSE(parse_openmetrics(
      "# TYPE wmesh_x counter\n# HELP wmesh_x a\n# HELP wmesh_x b\n# EOF\n",
      &doc, &error));
  EXPECT_FALSE(parse_openmetrics(
      "# TYPE wmesh_x counter\n# UNIT wmesh_x count\n# UNIT wmesh_x count\n"
      "# EOF\n",
      &doc, &error));
}

TEST(OpenMetrics, CuratedReferenceAnnotatesEveryRenderedFamily) {
  // Curated families carry their table entry; everything else falls back
  // to a generic help plus a suffix-derived unit -- never an unannotated
  // exposition.
  const FamilyReference rounds = openmetrics_reference("wmesh_serve_rounds");
  EXPECT_EQ(rounds.help.find("no curated help"), std::string::npos);
  EXPECT_FALSE(rounds.unit.empty());

  const FamilyReference fallback =
      openmetrics_reference("wmesh_made_up_family_us");
  EXPECT_NE(fallback.help.find("no curated help"), std::string::npos);
  EXPECT_EQ(fallback.unit, "microseconds");
  EXPECT_EQ(openmetrics_reference("wmesh_made_up_bytes").unit, "bytes");
  EXPECT_EQ(openmetrics_reference("wmesh_made_up_s").unit, "seconds");
  EXPECT_EQ(openmetrics_reference("wmesh_made_up").unit, "count");

  // A rendered registry -- including a family the table has never heard
  // of -- is fully annotated: lint passes and each declared family has
  // both entries.
  Registry& reg = Registry::instance();
  reg.reset_for_test();
  reg.counter("serve.rounds").add(2);
  reg.counter("totally.novel.family_us").add(1);
  reg.gauge("tsdb.points").set(42.0);
  const std::string text = render_openmetrics(reg.snapshot());
  OmDocument doc;
  std::string error;
  ASSERT_TRUE(parse_openmetrics(text, &doc, &error)) << error << "\n" << text;
  EXPECT_TRUE(lint_openmetrics(doc, &error)) << error << "\n" << text;
  for (const auto& [family, type] : doc.types) {
    EXPECT_EQ(doc.helps.count(family), 1u) << family;
    EXPECT_EQ(doc.units.count(family), 1u) << family;
  }
  EXPECT_EQ(doc.units.at("wmesh_totally_novel_family_us"), "microseconds");
}

TEST(OpenMetrics, LabeledRegistryNamesGroupUnderOneFamily) {
  // Registry names carrying a {k=v} suffix (health scorecards, alert
  // states) render as one family with proper quoted labels.
  Registry& reg = Registry::instance();
  reg.reset_for_test();
  reg.gauge("health.score{net=3,std=bg}").set(91.5);
  reg.gauge("health.score{net=4,std=n}").set(88.0);
  reg.gauge("alert.state{alert=burn_errors}").set(2.0);

  const std::string text = render_openmetrics(reg.snapshot());
  OmDocument doc;
  std::string error;
  ASSERT_TRUE(parse_openmetrics(text, &doc, &error)) << error << "\n" << text;
  EXPECT_TRUE(lint_openmetrics(doc, &error)) << error << "\n" << text;

  // One TYPE declaration for the base family, two labeled series.
  EXPECT_EQ(doc.types.at("wmesh_health_score"), "gauge");
  const OmSample* a =
      doc.find("wmesh_health_score", {{"net", "3"}, {"std", "bg"}});
  const OmSample* b =
      doc.find("wmesh_health_score", {{"net", "4"}, {"std", "n"}});
  ASSERT_TRUE(a && b) << text;
  EXPECT_DOUBLE_EQ(a->value, 91.5);
  EXPECT_DOUBLE_EQ(b->value, 88.0);
  const OmSample* st =
      doc.find("wmesh_alert_state", {{"alert", "burn_errors"}});
  ASSERT_NE(st, nullptr) << text;
  EXPECT_DOUBLE_EQ(st->value, 2.0);
  // The TYPE line appears exactly once even with multiple label sets.
  const std::string type_line = "# TYPE wmesh_health_score gauge";
  const std::size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos) << text;
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos) << text;
}

TEST(OpenMetrics, MonotoneCheckFlagsCounterDecreases) {
  OmDocument a, b;
  std::string error;
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_c counter\nwmesh_c_total 5\n# EOF\n", &a, &error));
  ASSERT_TRUE(parse_openmetrics(
      "# TYPE wmesh_c counter\nwmesh_c_total 7\n# EOF\n", &b, &error));
  EXPECT_TRUE(check_counters_monotone(a, b, &error)) << error;
  EXPECT_FALSE(check_counters_monotone(b, a, &error));
}

// ---------------------------------------------------------------------------
// OpenMetricsLive.*: the openmetrics_lint ctest.  Serve a real registry over
// a real socket while an analysis workload runs, scrape it twice mid-flight,
// and lint everything the endpoint said.

// Per-process: the suite runs both as the openmetrics_lint case and as
// discovered tests, and `ctest -j` can run the two copies at once.
std::string live_socket_path() {
  return std::string(::testing::TempDir()) + "wmesh_om_live_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(OpenMetricsLive, MidFlightScrapeLintsCleanAndCountersAreMonotone) {
  Registry::instance().reset_for_test();
  const std::string path = live_socket_path();
  std::remove(path.c_str());

  std::string error;
  const auto server = ExportServer::start("unix:" + path, &error);
  ASSERT_NE(server, nullptr) << error;

  // Keep an analysis workload running while we scrape: counters, span
  // aggregates and pool gauges all move between the two scrapes.
  GeneratorConfig config = small_config();
  const Dataset ds = generate_dataset(config);
  std::atomic<bool> stop{false};
  std::atomic<int> iterations{0};
  std::thread worker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)report_etx(ds);
      iterations.fetch_add(1, std::memory_order_release);
    }
  });

  OmDocument first, second;
  std::string body;
  ASSERT_TRUE(scrape_openmetrics_once(server->bound_address(), &body, &error))
      << error;
  ASSERT_TRUE(parse_openmetrics(body, &first, &error)) << error << "\n" << body;
  EXPECT_TRUE(lint_openmetrics(first, &error)) << error << "\n" << body;

  // Wait for at least one full workload pass (a wall-clock sleep flakes on
  // loaded machines where the worker thread gets starved), so the second
  // scrape is guaranteed to see completed spans.
  while (iterations.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(scrape_openmetrics_once(server->bound_address(), &body, &error))
      << error;
  ASSERT_TRUE(parse_openmetrics(body, &second, &error))
      << error << "\n" << body;
  EXPECT_TRUE(lint_openmetrics(second, &error)) << error << "\n" << body;

  stop.store(true, std::memory_order_relaxed);
  worker.join();

  // Counters never went backwards between two live scrapes.
  EXPECT_TRUE(check_counters_monotone(first, second, &error)) << error;

#if !defined(WMESH_OBS_DISABLED)
  // The workload showed up: span families with self-time, and the
  // endpoint's own scrape counter (bumped after the first response).
  const OmSample* etx = second.find("wmesh_span_count_total",
                                    {{"span", "report.etx"}});
  if (etx == nullptr) etx = second.find("wmesh_span_count_total");
  ASSERT_NE(etx, nullptr) << "no span families in live scrape";
  EXPECT_GT(etx->value, 0.0);
  EXPECT_NE(second.find("wmesh_span_self_us_total"), nullptr);
  const OmSample* scrapes = second.find("wmesh_export_scrapes_total");
  ASSERT_NE(scrapes, nullptr);
  EXPECT_GE(scrapes->value, 1.0);
#endif
}

TEST(OpenMetricsLive, EphemeralTcpPortServesTheSameDocument) {
  std::string error;
  const auto server = ExportServer::start(":0", &error);
  ASSERT_NE(server, nullptr) << error;
  EXPECT_NE(server->bound_address().find("127.0.0.1:"), std::string::npos);

  std::string body;
  ASSERT_TRUE(scrape_openmetrics_once(server->bound_address(), &body, &error))
      << error;
  OmDocument doc;
  ASSERT_TRUE(parse_openmetrics(body, &doc, &error)) << error << "\n" << body;
  EXPECT_TRUE(doc.saw_eof);
  EXPECT_TRUE(lint_openmetrics(doc, &error)) << error;
}

TEST(OpenMetricsLive, StartReportsUnusableAddresses) {
  std::string error;
  EXPECT_EQ(ExportServer::start("not an address", &error), nullptr);
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_EQ(ExportServer::start("unix:/nonexistent-dir/x/y.sock", &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace wmesh::obs
