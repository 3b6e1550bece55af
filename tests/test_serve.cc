// Test wall for the streaming service (src/serve + tools/wmesh_serve).
//
// Four walls in one binary (wmesh_serve_tests):
//   * correctness: the fleet stream drained to the end reproduces
//     generate_dataset() byte for byte, and after ANY stream prefix the
//     live sliding window equals a from-scratch batch recompute over the
//     same window -- including every rendered report section, at 1/2/8
//     threads;
//   * cache: per-network invalidation drops only the advanced network, and
//     hit/miss/invalidation counts are thread-count-independent;
//   * golden: a pinned query/response transcript
//     (tests/golden/serve_transcript.txt; regenerate with
//     WMESH_UPDATE_GOLDEN=1 after an intentional output change);
//   * fault injection + end-to-end smoke: truncated requests, unknown
//     commands, oversized lines and mid-response disconnects leave the
//     daemon serving (serve.protocol_errors counts each), and the real
//     wmesh_serve binary boots, serves every section over a unix socket,
//     exposes serve.* OpenMetrics and writes a run report on shutdown
//     (the serve_smoke ctest case runs the ServeSmoke suite).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis_cache.h"
#include "core/report.h"
#include "obs/alerts.h"
#include "obs/export_server.h"
#include "obs/metrics.h"
#include "obs/socket_util.h"
#include "par/thread_pool.h"
#include "serve/daemon.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "serve/window.h"
#include "sim/generator.h"

#ifndef WMESH_TEST_DATA_DIR
#error "WMESH_TEST_DATA_DIR must point at tests/golden (set by CMake)"
#endif
#ifndef WMESH_SERVE_BIN
#error "WMESH_SERVE_BIN must point at the wmesh_serve binary (set by CMake)"
#endif

namespace wmesh {
namespace {

GeneratorConfig test_config() {
  GeneratorConfig c = small_config();  // 6 networks, 3600 s, 90 probe rounds
  c.seed = 20100811;
  return c;
}

serve::ServeConfig service_config() {
  serve::ServeConfig sc;
  sc.gen = test_config();
  sc.window_rounds = 4;
  return sc;
}

// A path under the test temp dir that is unique to this process.  The
// ServeSmoke and AlertsSmoke suites run both as named ctest cases and as
// discovered tests, so `ctest -j` can run two copies at once; with shared
// socket and report paths one copy unlinks the other's socket.
std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "wmesh_" +
         std::to_string(::getpid()) + "_" + name;
}

bool same_float(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

void expect_same_probe_sets(const std::vector<ProbeSet>& got,
                            const std::vector<ProbeSet>& want,
                            const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const ProbeSet& g = got[i];
    const ProbeSet& w = want[i];
    ASSERT_EQ(g.from, w.from) << ctx << " set " << i;
    ASSERT_EQ(g.to, w.to) << ctx << " set " << i;
    ASSERT_EQ(g.time_s, w.time_s) << ctx << " set " << i;
    ASSERT_TRUE(same_float(g.snr_db, w.snr_db)) << ctx << " set " << i;
    ASSERT_EQ(g.entries.size(), w.entries.size()) << ctx << " set " << i;
    for (std::size_t e = 0; e < g.entries.size(); ++e) {
      ASSERT_EQ(g.entries[e].rate, w.entries[e].rate) << ctx << " set " << i;
      ASSERT_TRUE(same_float(g.entries[e].loss, w.entries[e].loss))
          << ctx << " set " << i << " entry " << e;
      ASSERT_TRUE(same_float(g.entries[e].snr_db, w.entries[e].snr_db))
          << ctx << " set " << i << " entry " << e;
    }
  }
}

void expect_same_clients(const std::vector<ClientSample>& got,
                         const std::vector<ClientSample>& want,
                         const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].client, want[i].client) << ctx << " sample " << i;
    EXPECT_EQ(got[i].ap, want[i].ap) << ctx << " sample " << i;
    EXPECT_EQ(got[i].bucket, want[i].bucket) << ctx << " sample " << i;
    EXPECT_EQ(got[i].assoc_requests, want[i].assoc_requests)
        << ctx << " sample " << i;
    EXPECT_EQ(got[i].data_packets, want[i].data_packets)
        << ctx << " sample " << i;
  }
}

// Batch-side reference: the window the service should hold after its
// virtual clock reached `t`, cut from a full batch trace.
Dataset window_filtered(const Dataset& full, double t,
                        std::size_t window_rounds,
                        const ProbeSimParams& params) {
  const double interval = params.report_interval_s;
  const auto boundaries = static_cast<std::int64_t>((t + 1e-9) / interval);
  const std::int64_t last = boundaries * static_cast<std::int64_t>(interval);
  const std::int64_t lo =
      last - static_cast<std::int64_t>(window_rounds * interval);
  Dataset out;
  out.networks = full.networks;
  for (auto& nt : out.networks) {
    std::vector<ProbeSet> keep;
    for (const auto& s : nt.probe_sets) {
      const auto ts = static_cast<std::int64_t>(s.time_s);
      if (boundaries > 0 && ts > lo && ts <= last) keep.push_back(s);
    }
    nt.probe_sets = std::move(keep);
  }
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// ReportWindow
// ---------------------------------------------------------------------------

std::vector<ProbeSet> one_set_round(std::uint32_t time_s) {
  ProbeSet s;
  s.from = 0;
  s.to = 1;
  s.time_s = time_s;
  return {s};
}

TEST(ReportWindow, KeepsAtMostMaxRoundsAndReportsChanges) {
  serve::ReportWindow w(2);
  EXPECT_TRUE(w.push_round(one_set_round(300)));
  EXPECT_TRUE(w.push_round(one_set_round(600)));
  EXPECT_EQ(w.rounds(), 2u);
  EXPECT_EQ(w.total_sets(), 2u);
  // Third round evicts the first.
  EXPECT_TRUE(w.push_round(one_set_round(900)));
  EXPECT_EQ(w.rounds(), 2u);
  std::vector<ProbeSet> sets;
  w.materialize(&sets);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].time_s, 600u);
  EXPECT_EQ(sets[1].time_s, 900u);
}

TEST(ReportWindow, EmptyRoundsOnlyChangeWhenTheyEvictData) {
  serve::ReportWindow w(2);
  EXPECT_FALSE(w.push_round({}));  // empty in, nothing evicted
  EXPECT_TRUE(w.push_round(one_set_round(300)));
  EXPECT_FALSE(w.push_round({}));  // evicts the leading empty round: no change
  EXPECT_TRUE(w.push_round({}));   // evicts the 300 s round: contents changed
  EXPECT_FALSE(w.push_round({}));  // only empties remain
  std::vector<ProbeSet> sets;
  w.materialize(&sets);
  EXPECT_TRUE(sets.empty());
}

// ---------------------------------------------------------------------------
// Stream-vs-batch byte equivalence
// ---------------------------------------------------------------------------

TEST(ServeStream, DrainedStreamReproducesGenerateDatasetByteForByte) {
  const GeneratorConfig config = test_config();
  const Dataset want = generate_dataset(config);

  serve::FleetProbeStream fleet(config);
  ASSERT_EQ(fleet.trace_count(), want.networks.size());
  std::vector<std::vector<ProbeSet>> streamed(fleet.trace_count());
  while (fleet.advance_round(&streamed)) {
  }
  EXPECT_TRUE(fleet.finished());

  for (std::size_t i = 0; i < want.networks.size(); ++i) {
    const NetworkTrace& w = want.networks[i];
    const std::string ctx = "trace " + std::to_string(i);
    EXPECT_EQ(fleet.info(i).id, w.info.id) << ctx;
    EXPECT_EQ(fleet.info(i).standard, w.info.standard) << ctx;
    EXPECT_EQ(fleet.info(i).name, w.info.name) << ctx;
    EXPECT_EQ(fleet.ap_count(i), w.ap_count) << ctx;
    expect_same_probe_sets(streamed[i], w.probe_sets, ctx);
    expect_same_clients(fleet.client_samples(i), w.client_samples, ctx);
  }
}

class ServeWindowTest : public ::testing::Test {
 protected:
  void TearDown() override { par::set_default_threads(0); }
};

TEST_F(ServeWindowTest, LiveWindowMatchesBatchRecomputeAfterAnyPrefix) {
  const serve::ServeConfig sc = service_config();
  const Dataset full = generate_dataset(sc.gen);
  serve::MeshService service(sc);

  // Prefix lengths straddling report boundaries (300 s = 7.5 probe rounds)
  // and the first evictions (window 4 -> boundary 5, round 38).
  const std::array<std::uint64_t, 5> kCheckRounds{7, 8, 23, 38, 45};
  std::uint64_t done = 0;
  for (const std::uint64_t target : kCheckRounds) {
    while (done < target && service.tick()) ++done;
    ASSERT_EQ(done, target);
    const Dataset live = service.snapshot();
    const Dataset want = window_filtered(full, 40.0 * static_cast<double>(done),
                                         sc.window_rounds, sc.gen.probes);
    ASSERT_EQ(live.networks.size(), want.networks.size());
    for (std::size_t i = 0; i < live.networks.size(); ++i) {
      expect_same_probe_sets(live.networks[i].probe_sets,
                             want.networks[i].probe_sets,
                             "round " + std::to_string(target) + " trace " +
                                 std::to_string(i));
    }
  }
}

TEST_F(ServeWindowTest, ServedSectionsMatchBatchAnalyzeAtOneTwoEightThreads) {
  const serve::ServeConfig sc = service_config();
  constexpr std::uint64_t kRounds = 45;  // 1800 s: 6 boundaries, 2 evictions

  // Batch reference, serial: analyze the window-filtered snapshot exactly
  // as wmesh_analyze would.
  par::set_default_threads(1);
  const Dataset full = generate_dataset(sc.gen);
  const Dataset want_ds =
      window_filtered(full, 40.0 * kRounds, sc.window_rounds, sc.gen.probes);
  struct Section {
    const char* command;
    std::string want;
  };
  std::array<Section, 9> sections{{{"snr", report_snr(want_ds)},
                                   {"lookup", report_lookup(want_ds)},
                                   {"exor", report_routing(want_ds)},
                                   {"anypath", report_anypath(want_ds)},
                                   {"paths", report_path_lengths(want_ds)},
                                   {"hidden", report_hidden(want_ds)},
                                   {"mobility", report_mobility(want_ds)},
                                   {"traffic", report_traffic(want_ds)},
                                   {"etx", report_etx(want_ds)}}};

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    par::set_default_threads(threads);
    serve::MeshService service(sc);
    for (std::uint64_t r = 0; r < kRounds; ++r) ASSERT_TRUE(service.tick());
    for (const Section& s : sections) {
      const serve::QueryResult got = service.query(s.command);
      ASSERT_TRUE(got.ok) << s.command << ": " << got.body;
      EXPECT_EQ(got.body, s.want)
          << "section '" << s.command << "' diverged from batch analyze at "
          << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Cache invalidation
// ---------------------------------------------------------------------------

TEST(ServeCache, InvalidateDropsOnlyTheTargetNetwork) {
  GeneratorConfig config = test_config();
  config.probes.duration_s = 1200.0;
  const Dataset ds = generate_dataset(config);
  ASSERT_GE(ds.networks.size(), 2u);
  const NetworkTrace& a = ds.networks[0];
  const NetworkTrace& b = ds.networks[1];

  AnalysisCache cache;
  cache.success(a, 0);
  cache.etx_graph(a, 0, EtxVariant::kEtx1, 0.0);
  cache.success(b, 0);
  const AnalysisCache::Stats before = cache.stats();
  EXPECT_EQ(before.entries, 3u);
  EXPECT_EQ(before.misses, 3u);
  EXPECT_EQ(before.hits, 1u);  // etx_graph(a) reads success(a, 0) internally

  const AnalysisCache::Evicted ev = cache.invalidate(&a);
  EXPECT_EQ(ev.entries, 2u);
  EXPECT_EQ(ev.computed, 2u);
  EXPECT_EQ(ev.bytes, before.bytes - cache.stats().bytes);
  const AnalysisCache::Stats after = cache.stats();
  EXPECT_EQ(after.entries, 1u);
  EXPECT_LT(after.bytes, before.bytes);

  // b survived: the next lookup is a hit.  a was dropped: a miss.
  cache.success(b, 0);
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.success(a, 0);
  EXPECT_EQ(cache.stats().misses, 4u);

  // Invalidating an unknown key is a no-op.
  NetworkTrace unrelated;
  EXPECT_EQ(cache.invalidate(&unrelated).entries, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ServeCache, InvalidationAndHitCountsAreThreadCountIndependent) {
  // Interleave ingest and cache-warming queries, then compare the stats
  // section -- which embeds hit/miss/invalidation/window-advance counts --
  // across thread counts.  Any scheduling leak into cache accounting or
  // window updates shows up as a diff.
  std::array<std::string, 3> stats_text;
  const std::array<std::size_t, 3> kThreads{1, 2, 8};
  for (std::size_t k = 0; k < kThreads.size(); ++k) {
    par::set_default_threads(kThreads[k]);
    serve::MeshService service(service_config());
    std::uint64_t done = 0;
    for (const std::uint64_t target : {std::uint64_t{8}, std::uint64_t{16},
                                       std::uint64_t{30}, std::uint64_t{45}}) {
      while (done < target && service.tick()) ++done;
      for (const char* cmd : {"exor", "paths", "hidden"}) {
        ASSERT_TRUE(service.query(cmd).ok) << cmd;
      }
    }
    const serve::QueryResult stats = service.query("stats");
    ASSERT_TRUE(stats.ok);
    stats_text[k] = stats.body;
    EXPECT_NE(stats.body.find("cache_invalidations"), std::string::npos);
  }
  par::set_default_threads(0);
  EXPECT_EQ(stats_text[0], stats_text[1]);
  EXPECT_EQ(stats_text[0], stats_text[2]);
  // The interleaving above must actually exercise the invalidation path.
  EXPECT_EQ(stats_text[0].find("cache_invalidations  0\n"), std::string::npos)
      << stats_text[0];
}

// ---------------------------------------------------------------------------
// Observability plane determinism
// ---------------------------------------------------------------------------

TEST(ServeObsPlane, HealthAlertsAndTsdbAreByteIdenticalAtOneTwoEightThreads) {
  // The TSDB samples on the virtual-clock tick, health scores derive from
  // the deterministic window analyses, and alert evaluation is a pure
  // function of the TSDB -- so every rendered byte must be independent of
  // the worker-pool size.  Queries stick to deterministic families
  // (serve.*, health.*); wall-clock histograms like serve.query_us are
  // exercised elsewhere.
  const std::array<const char*, 6> kCommands{
      "health",        "health 3",
      "alerts",        "tsdb serve.rounds 16",
      "tsdb serve.reports_ingested", "tsdb serve.window_advances 8"};
  // Warm the process-global registry first: families like
  // serve.reports_ingested only register at the first report boundary, so
  // a cold first run would baseline them later (fewer retained points)
  // than the warm runs after it -- a process-warmth artifact, not a
  // thread-count one.
  {
    serve::MeshService warmup(service_config());
    for (int r = 0; r < 9; ++r) ASSERT_TRUE(warmup.tick());
  }
  std::array<std::string, 3> rendered;
  const std::array<std::size_t, 3> kThreads{1, 2, 8};
  for (std::size_t k = 0; k < kThreads.size(); ++k) {
    par::set_default_threads(kThreads[k]);
    serve::ServeConfig sc = service_config();
    std::string error;
    ASSERT_TRUE(obs::parse_alert_rules(
        "alert rounds_hot burn serve.rounds >= 1 short=4 long=16\n"
        "alert clock_high threshold serve.time_s > 600 for=3\n"
        "alert ghost absent no.such.series window=5\n",
        "obs_plane_rules", &sc.alerts, &error))
        << error;
    serve::MeshService service(sc);
    for (int r = 0; r < 45; ++r) ASSERT_TRUE(service.tick());
    std::string all;
    for (const char* cmd : kCommands) {
      const serve::QueryResult r = service.query(cmd);
      ASSERT_TRUE(r.ok) << cmd << ": " << r.body;
      all += "> " + std::string(cmd) + "\n" + r.body;
    }
    rendered[k] = std::move(all);
  }
  par::set_default_threads(0);
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(rendered[0], rendered[2]);
  // Sanity: the plane actually produced data, not empty tables.
  EXPECT_NE(rendered[0].find("etx_infl"), std::string::npos);
  EXPECT_NE(rendered[0].find("ghost"), std::string::npos);
  EXPECT_NE(rendered[0].find("retained_points"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Golden query transcript
// ---------------------------------------------------------------------------

TEST(ServeGolden, TranscriptMatchesCheckedInBytes) {
  serve::ServeConfig sc;
  sc.gen = small_config();
  sc.gen.seed = 7;  // the documented golden seed (wmesh_gen --small --seed 7)
  sc.window_rounds = 4;
  // Alert rules over deterministic series only (gauge values and counter
  // deltas; a threshold on a counter's absolute value would depend on how
  // warm the process-global registry is).
  {
    std::string error;
    ASSERT_TRUE(obs::parse_alert_rules(
        "# golden transcript rules\n"
        "alert stream_hot burn serve.rounds >= 1 short=4 long=16\n"
        "alert time_advancing threshold serve.time_s > 600 for=3\n"
        "alert ghost absent no.such.series window=5\n",
        "golden_rules", &sc.alerts, &error))
        << error;
  }
  serve::MeshService service(sc);
  for (int r = 0; r < 45; ++r) ASSERT_TRUE(service.tick());

  const std::array<const char*, 24> kCommands{
      "stats", "snr", "lookup", "exor", "anypath", "paths", "hidden",
      "mobility", "traffic", "etx", "etx 3", "anypath 3", "bogus", "etx 99",
      "hidden x", "snr 1", "health", "health 3", "health 99", "alerts",
      "tsdb serve.rounds", "tsdb serve.rounds 8", "tsdb no.such.series",
      "tsdb"};
  std::string transcript;
  for (const char* cmd : kCommands) {
    const serve::QueryResult r = service.query(cmd);
    transcript += "> " + std::string(cmd) + "\n";
    if (r.ok) {
      transcript += "ok " + std::to_string(r.body.size()) + "\n" + r.body;
    } else {
      transcript += "err " + r.body + "\n";
    }
  }

  const std::string path =
      std::string(WMESH_TEST_DATA_DIR) + "/serve_transcript.txt";
  if (std::getenv("WMESH_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out << transcript;
    ASSERT_TRUE(out.good()) << "cannot rewrite " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  EXPECT_EQ(transcript, slurp(path))
      << "serve transcript diverged; regenerate tests/golden/"
         "serve_transcript.txt with WMESH_UPDATE_GOLDEN=1 if intentional";
}

// ---------------------------------------------------------------------------
// Fault injection against a live in-process daemon
// ---------------------------------------------------------------------------

class FaultDaemon {
 public:
  FaultDaemon() {
    serve::DaemonOptions options;
    options.service.gen = test_config();
    options.service.gen.probes.duration_s = 1200.0;
    options.service.window_rounds = 4;
    options.listen = "unix:" + socket_path();
    std::string error;
    daemon_ = serve::ServeDaemon::start(options, &error);
    EXPECT_NE(daemon_, nullptr) << error;
    if (daemon_ != nullptr) {
      runner_ = std::thread([this] { daemon_->run(); });
    }
  }

  ~FaultDaemon() {
    if (daemon_ != nullptr) daemon_->request_shutdown();
    if (runner_.joinable()) runner_.join();
  }

  static std::string socket_path() {
    return temp_path("serve_fault.sock");
  }

  int connect() const {
    std::string error;
    const int fd = obs::connect_socket("unix:" + socket_path(), &error);
    EXPECT_GE(fd, 0) << error;
    return fd;
  }

 private:
  std::unique_ptr<serve::ServeDaemon> daemon_;
  std::thread runner_;
};

// Reads one framed response ("ok <len>\n<payload>" or "err <msg>\n").
std::string recv_frame(int fd) {
  std::string head;
  char c;
  while (head.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n <= 0) return head;
    head.push_back(c);
  }
  if (head.rfind("ok ", 0) != 0) return head;
  const std::size_t len = std::stoul(head.substr(3));
  std::string payload;
  while (payload.size() < len) {
    char buf[4096];
    const ssize_t n = ::recv(
        fd, buf, std::min(sizeof(buf), len - payload.size()), 0);
    if (n <= 0) break;
    payload.append(buf, static_cast<std::size_t>(n));
  }
  return head + payload;
}

std::uint64_t protocol_errors() {
  return obs::Registry::instance().counter("serve.protocol_errors").value();
}

bool wait_for_protocol_errors(std::uint64_t at_least) {
  for (int i = 0; i < 400; ++i) {
    if (protocol_errors() >= at_least) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(ServeFault, DaemonSurvivesProtocolAbuse) {
  FaultDaemon daemon;
  const std::uint64_t base = protocol_errors();

  // 1. Unknown command: an err response, counted, connection stays usable.
  {
    const int fd = daemon.connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(obs::send_all(fd, "frobnicate\n", 11));
    const std::string resp = recv_frame(fd);
    EXPECT_EQ(resp.rfind("err ", 0), 0u) << resp;
    // Same connection still serves after the rejected command.
    ASSERT_TRUE(obs::send_all(fd, "help\n", 5));
    EXPECT_EQ(recv_frame(fd).rfind("ok ", 0), 0u);
    ::close(fd);
  }
  EXPECT_TRUE(wait_for_protocol_errors(base + 1));

  // 2. Oversized line: rejected without reading a command out of it.
  {
    const int fd = daemon.connect();
    ASSERT_GE(fd, 0);
    const std::string big(8192, 'a');
    ASSERT_TRUE(obs::send_all(fd, big.data(), big.size()));
    const std::string resp = recv_frame(fd);
    EXPECT_EQ(resp, "err line too long\n");
    ::close(fd);
  }
  EXPECT_TRUE(wait_for_protocol_errors(base + 2));

  // 3. Truncated request: bytes but no newline, then EOF.
  {
    const int fd = daemon.connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(obs::send_all(fd, "stat", 4));
    ::close(fd);
  }
  EXPECT_TRUE(wait_for_protocol_errors(base + 3));

  // 4. Mid-response disconnect: pipeline many commands, vanish immediately.
  //    Some response hits the closed peer; MSG_NOSIGNAL turns the would-be
  //    SIGPIPE into a counted error.
  {
    const int fd = daemon.connect();
    ASSERT_GE(fd, 0);
    std::string burst;
    for (int i = 0; i < 200; ++i) burst += "help\n";
    ASSERT_TRUE(obs::send_all(fd, burst.data(), burst.size()));
    ::close(fd);
  }
  EXPECT_TRUE(wait_for_protocol_errors(base + 4));

  // After all that abuse the daemon still answers real queries.
  {
    const int fd = daemon.connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(obs::send_all(fd, "stats\n", 6));
    const std::string resp = recv_frame(fd);
    EXPECT_EQ(resp.rfind("ok ", 0), 0u) << resp;
    EXPECT_NE(resp.find("== serve stats =="), std::string::npos);
    ::close(fd);
  }
}

// ---------------------------------------------------------------------------
// Alert fire/resolve against a live paced daemon (the alerts_smoke ctest
// case)
// ---------------------------------------------------------------------------

struct AlertRow {
  std::string state;
  std::uint64_t fired = 0;
  std::uint64_t resolved = 0;
};

// Pulls one rule's row out of the rendered `alerts` table.
bool parse_alert_row(const std::string& body, const std::string& name,
                     AlertRow* row) {
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream in(line);
    std::vector<std::string> tok;
    for (std::string t; in >> t;) tok.push_back(std::move(t));
    // alert kind series state pending fired resolved input
    if (tok.size() < 8 || tok[0] != name) continue;
    row->state = tok[3];
    row->fired = std::stoull(tok[5]);
    row->resolved = std::stoull(tok[6]);
    return true;
  }
  return false;
}

class AlertsDaemon {
 public:
  AlertsDaemon() {
    serve::DaemonOptions options;
    options.service.gen = test_config();
    // Two virtual days of probe rounds at 5 ms wall each: the ingest loop
    // keeps evaluating alerts for ~20 s of wall clock, far beyond what the
    // fire/resolve polling below needs.
    options.service.gen.probes.duration_s = 172800.0;
    options.service.window_rounds = 4;
    options.tick_sleep_ms = 5;
    std::string parse_error;
    EXPECT_TRUE(obs::parse_alert_rules(
        "alert proto_errs burn serve.protocol_errors >= 0.5 short=3 long=9\n"
        "alert quiet_burn burn serve.rounds >= 1000 short=3 long=9\n"
        "alert never threshold serve.time_s < 0\n",
        "alerts_smoke_rules", &options.service.alerts, &parse_error))
        << parse_error;
    options.listen = "unix:" + socket_path();
    std::string error;
    daemon_ = serve::ServeDaemon::start(options, &error);
    EXPECT_NE(daemon_, nullptr) << error;
    if (daemon_ != nullptr) {
      runner_ = std::thread([this] { daemon_->run(); });
    }
  }

  ~AlertsDaemon() {
    if (daemon_ != nullptr) daemon_->request_shutdown();
    if (runner_.joinable()) runner_.join();
  }

  static std::string socket_path() {
    return temp_path("serve_alerts.sock");
  }

  // One framed query over a fresh connection (the server is serial, so a
  // held-open connection would block everything else).
  std::string query(const std::string& cmd) const {
    std::string error;
    const int fd = obs::connect_socket("unix:" + socket_path(), &error);
    EXPECT_GE(fd, 0) << error;
    if (fd < 0) return "";
    const std::string line = cmd + "\n";
    EXPECT_TRUE(obs::send_all(fd, line.data(), line.size()));
    const std::string resp = recv_frame(fd);
    ::close(fd);
    return resp;
  }

 private:
  std::unique_ptr<serve::ServeDaemon> daemon_;
  std::thread runner_;
};

TEST(AlertsSmoke, BurnRuleFiresOnInducedErrorsAndResolvesAfterRecovery) {
  AlertsDaemon daemon;

  // Degrade: bursts of unknown commands drive serve.protocol_errors until
  // the burn rule's short and long windows are both hot.  fired/resolved
  // are monotone counters, so a fire that resolves between polls still
  // counts.
  AlertRow proto;
  bool fired = false;
  for (int iter = 0; iter < 400 && !fired; ++iter) {
    for (int i = 0; i < 10; ++i) {
      const std::string resp = daemon.query("frobnicate");
      ASSERT_EQ(resp.rfind("err ", 0), 0u) << resp;
    }
    const std::string body = daemon.query("alerts");
    ASSERT_EQ(body.rfind("ok ", 0), 0u) << body;
    ASSERT_TRUE(parse_alert_row(body, "proto_errs", &proto)) << body;
    fired = proto.fired >= 1;
    if (!fired) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fired) << "burn rule never fired under induced errors";

  // Exactly the matching rule fired: the impossible burn and threshold
  // rules stayed quiet through the same degradation.
  {
    const std::string body = daemon.query("alerts");
    AlertRow other;
    ASSERT_TRUE(parse_alert_row(body, "quiet_burn", &other)) << body;
    EXPECT_EQ(other.fired, 0u) << body;
    ASSERT_TRUE(parse_alert_row(body, "never", &other)) << body;
    EXPECT_EQ(other.fired, 0u) << body;
  }

  // Recover: stop the abuse and wait for the error rate to drain out of
  // the long window; the rule must resolve.
  bool resolved = false;
  for (int iter = 0; iter < 600 && !resolved; ++iter) {
    const std::string body = daemon.query("alerts");
    ASSERT_EQ(body.rfind("ok ", 0), 0u) << body;
    ASSERT_TRUE(parse_alert_row(body, "proto_errs", &proto)) << body;
    resolved = proto.resolved >= 1;
    if (!resolved) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(resolved) << "burn rule never resolved after recovery";
}

// ---------------------------------------------------------------------------
// End-to-end smoke over the real binary (the serve_smoke ctest case)
// ---------------------------------------------------------------------------

TEST(ServeSmoke, BinaryServesQueriesMetricsAndRunReport) {
  const std::string query_addr = temp_path("serve_smoke_q.sock");
  const std::string metrics_addr = temp_path("serve_smoke_m.sock");
  const std::string report_path = temp_path("serve_smoke.report.json");
  const std::string log_path = temp_path("serve_smoke.log");
  std::remove(query_addr.c_str());
  std::remove(metrics_addr.c_str());
  std::remove(report_path.c_str());

  const std::string listen_flag = "--listen=unix:" + query_addr;
  const std::string metrics_flag = "--metrics-listen=unix:" + metrics_addr;
  const std::string report_flag = "--report=" + report_path;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::freopen(log_path.c_str(), "w", stdout);
    std::freopen(log_path.c_str(), "w", stderr);
    ::execl(WMESH_SERVE_BIN, WMESH_SERVE_BIN, listen_flag.c_str(),
            metrics_flag.c_str(), report_flag.c_str(), "--config=small",
            "--seed=7", "--duration=1200", "--window=4",
            static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }

  // Wait for the query socket to accept (fleet generation happens first).
  int fd = -1;
  std::string error;
  for (int i = 0; i < 600 && fd < 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    fd = obs::connect_socket("unix:" + query_addr, &error);
  }
  ASSERT_GE(fd, 0) << "daemon never came up: " << error << "\n"
                   << slurp(log_path);

  // One query per section, all over one connection.
  for (const char* cmd : {"snr", "lookup", "exor", "anypath", "paths",
                          "hidden", "mobility", "traffic", "etx", "stats",
                          "help"}) {
    const std::string line = std::string(cmd) + "\n";
    ASSERT_TRUE(obs::send_all(fd, line.data(), line.size())) << cmd;
    const std::string resp = recv_frame(fd);
    EXPECT_EQ(resp.rfind("ok ", 0), 0u) << cmd << " -> " << resp;
  }

  // The OpenMetrics endpoint carries the serve.* families.
  std::string body;
  ASSERT_TRUE(obs::scrape_openmetrics_once("unix:" + metrics_addr, &body,
                                           &error))
      << error;
  for (const char* family :
       {"wmesh_serve_rounds_total", "wmesh_serve_reports_ingested_total",
        "wmesh_serve_queries_total", "wmesh_serve_connections_total",
        "wmesh_serve_query_us"}) {
    EXPECT_NE(body.find(family), std::string::npos)
        << "missing family " << family;
  }

  // Shutdown handshake, then a clean exit with a valid run report.
  ASSERT_TRUE(obs::send_all(fd, "shutdown\n", 9));
  EXPECT_EQ(recv_frame(fd), "ok 4\nbye\n");
  ::close(fd);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << slurp(log_path);
  EXPECT_EQ(WEXITSTATUS(status), 0) << slurp(log_path);

  const std::string report = slurp(report_path);
  EXPECT_NE(report.find("\"schema\": \"wmesh.run_report/1\""),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("\"tool\": \"wmesh_serve\""), std::string::npos);
  // Per-process names do not overwrite each other; clean up after a pass.
  std::remove(report_path.c_str());
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace wmesh
