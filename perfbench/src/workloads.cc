#include "workloads.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/analysis_cache.h"
#include "core/lookup_table.h"
#include "core/report.h"
#include "core/report_partials.h"
#include "obs/metrics.h"
#include "obs/socket_util.h"
#include "par/thread_pool.h"
#include "serve/daemon.h"
#include "serve/service.h"
#include "sim/generator.h"
#include "store/fleet.h"
#include "store/fleet_analyze.h"
#include "store/wsnap.h"

namespace perfbench {
namespace {

using wmesh::Dataset;
using wmesh::GeneratorConfig;

// Set-ups per run; setup_s is their median.  Cheap set-ups repeat more.
constexpr int kSetupRepeats = 3;
constexpr int kGenSetupRepeats = 25;
constexpr int kOwnMinIters = 3;   // own-stage iterations, at least
constexpr int kCompanionGenIters = 5;
constexpr int kCompanionAnalyzeIters = 2;
constexpr int kMultiThreadedRepeats = 2;  // N-thread and fleet runs per analyze step
constexpr int kServeSessions = 2;         // serve sessions per run, planned
constexpr std::size_t kMinQueries = 250;  // serve samples per stage, at least
constexpr int kMaxSessions = 60;
constexpr std::size_t kShards = 4;
constexpr std::size_t kClients = 2;
// Pool size of the serve sessions, as `wmesh_serve --threads=1`.  The
// service mutex already runs one tick or query at a time.  At N threads
// the session figures swung with other tenants' load on a shared host; at
// one thread much less (see NOTES.md).
constexpr std::size_t kServeThreads = 1;
constexpr double kMiB = 1024.0 * 1024.0;
// Wall pause between probe rounds in the serve sessions.  Unpaced, the
// ingest loop re-takes the service mutex as soon as it drops it and the
// query thread starves until the stream drains (serve.unpaced_wait_ms
// keeps that visible); one millisecond lets reads and writes interleave.
constexpr int kTickSleepMs = 1;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string median_note(std::size_t n) {
  return "median of " + std::to_string(n);
}

// Per-run state shared by the stages.
struct Ctx {
  Ctx(const Options& o, RunResult& r) : opt(o), res(r) {}

  const Options& opt;
  RunResult& res;
  std::size_t threads = 1;
  std::vector<double> setup_s;  // the workload's own set-up samples
  std::vector<double> untraced, traced;  // own-stage headline samples

  void e2e(const std::string& name, double v, const char* unit,
           std::string note = "") {
    res.end_to_end[name] = {v, unit, std::move(note)};
  }
  void e2e_median(const std::string& name, const std::vector<double>& v,
                  const char* unit) {
    e2e(name, median(v), unit, median_note(v.size()));
  }
  void layer(const std::string& name, double v, const char* unit) {
    res.per_layer[name] = {v, unit, ""};
  }
  bool check(bool ok, const std::string& what) {
    return res.tally.op(ok, what);
  }
  std::string path(const std::string& name) const {
    return opt.out_dir + "/" + name;
  }
  bool corrupt(const char* stage) const { return opt.corrupt == stage; }

  // The fleet a stage runs on: the default fleet at full scale (every own
  // stage and the analyze companion), companion_config() for the gen
  // companion, small_config() for every stage in the
  // self-test.  All keep their configured generator seed: the fleet's size
  // mix, and with it the amount of work, changes from seed to seed by more
  // than any bound the benchmark could hold, and the default fleet is the
  // one the repository tracks.  --seed drives the serve query mix.
  GeneratorConfig fleet(bool full) const {
    if (opt.small) return wmesh::small_config();
    return full ? wmesh::default_config() : companion_config();
  }

  // Fleet of the gen companion: the default fleet with one hour of probes
  // instead of four, so a companion step is a quarter of a full-scale one
  // -- large enough that a few milliseconds of scheduling noise do not
  // move its median, small enough to leave the run to the own stage.
  static GeneratorConfig companion_config() {
    GeneratorConfig cfg = wmesh::default_config();
    cfg.probes.duration_s = 3600.0;
    return cfg;
  }

  // The stream one serve session ingests: the default fleet with 90
  // minutes of probes (135 rounds).  The report window fills in the first
  // 30, so most queries see a full window; two sessions per run spread the
  // serve samples over the run instead of one block.
  GeneratorConfig serve_stream() const {
    if (opt.small) return wmesh::small_config();
    GeneratorConfig cfg = wmesh::default_config();
    cfg.probes.duration_s = 1.5 * 3600.0;
    return cfg;
  }
};

double file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<double>(f.tellg()) : 0.0;
}

// The library's running count of WSNAP bytes its loads have read.
double store_bytes_read() {
  return static_cast<double>(
      wmesh::obs::Registry::instance().counter("store.bytes_read").value());
}

void flip_byte(const std::string& path) {
  std::string bytes;
  if (!read_file(path, &bytes) || bytes.empty()) return;
  bytes[bytes.size() / 2] ^= 0x5a;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::size_t probe_entries(const Dataset& ds) {
  std::size_t n = 0;
  for (const auto& nt : ds.networks) {
    for (const auto& ps : nt.probe_sets) n += ps.entries.size();
  }
  return n;
}

// One stage of the pipeline.  As the workload's own stage it runs step()
// for the measured seconds; as a companion it runs a fixed amount of work,
// spread over the run between the own stage's steps.  finish() publishes
// the stage's metrics and, in a traced run, its attribution passes.
class Stage {
 public:
  Stage(Ctx& c, bool own, bool full)
      : c_(c), own_(own), cfg_(c.fleet(full)) {}
  virtual ~Stage() = default;
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  virtual void setup() = 0;
  virtual void step(int i) = 0;
  virtual void finish() = 0;

  // Companion: the steps it plans, and whether `steps` are enough.
  virtual int planned() const = 0;
  virtual bool companion_done(int steps) const { return steps >= planned(); }

  // Units of work in the last step, the divisor of its per-layer self
  // time: one step, or the queries of a serve session.
  virtual double step_units() const { return 1.0; }

  // Traced steps only: self time per layer of each step's spans, per unit
  // of work (see run_step).
  std::map<std::string, std::vector<double>> self_ms;

 protected:
  // Headline samples of the own stage, split by whether the step was
  // traced, for the tracing overhead.
  void headline(int i, double v) {
    if (!own_) return;
    (c_.opt.trace && i % 2 == 1 ? c_.traced : c_.untraced).push_back(v);
  }

  Ctx& c_;
  const bool own_;
  const GeneratorConfig cfg_;
};

// ---------------------------------------------------------------- gen --

// Generates the fleet with FleetGenerator at the run's thread count and
// writes it as one WSNAP.  Check: the file re-loads with every CRC passing
// and the same row counts, and its bytes hash the same in every iteration.
class GenStage : public Stage {
 public:
  using Stage::Stage;

  // Set-up: the fleet topology and per-network RNG streams.
  void setup() override {
    for (int r = 0; r < kGenSetupRepeats; ++r) {
      Span span("sim.fleet_setup");
      const double t0 = now_s();
      gen_ = std::make_unique<wmesh::FleetGenerator>(cfg_);
      fleet_setup_.push_back(now_s() - t0);
    }
    if (own_) c_.setup_s = fleet_setup_;
  }

  void step(int i) override {
    const double c0 = cpu_s();
    const double t0 = now_s();
    Dataset ds;
    {
      Span span("sim.generate");
      ds = gen_->generate(0, gen_->network_count());
    }
    const double t1 = now_s();
    const double c1 = cpu_s();
    std::string err;
    bool saved = false;
    {
      Span span("store.save");
      saved = wmesh::store::save_wsnap(ds, path_, &err);
    }
    const double t2 = now_s();
    cpu_.push_back(cpu_s() - c0);
    gen_s_.push_back(t2 - t0);
    generate_s_.push_back(t1 - t0);
    busy_.push_back((c1 - c0) / ((t1 - t0) * static_cast<double>(c_.threads)));
    save_ms_.push_back(1e3 * (t2 - t1));
    headline(i, t2 - t0);
    c_.check(saved, "gen: save_wsnap: " + err);
    entries_ = probe_entries(ds);

    std::string file;
    c_.check(read_file(path_, &file), "gen: read back " + path_);
    bytes_ = static_cast<double>(file.size());
    const std::uint64_t h = fnv1a(file);
    if (i == 0) first_hash_ = h;
    c_.check(h == first_hash_, "gen: WSNAP bytes differ between iterations");
    if (c_.corrupt("gen")) flip_byte(path_);
    Dataset back;
    const double read0 = store_bytes_read();
    const double t3 = now_s();
    bool loaded = false;
    {
      Span span("store.load");
      loaded = wmesh::store::load_wsnap(path_, &back, &err);
    }
    load_ms_.push_back(1e3 * (now_s() - t3));
    bytes_read_ = store_bytes_read() - read0;
    c_.check(loaded && back.networks.size() == ds.networks.size() &&
                 back.total_probe_sets() == ds.total_probe_sets(),
             "gen: WSNAP re-load: " + err);
  }

  int planned() const override { return kCompanionGenIters; }

  void finish() override {
    c_.e2e_median("gen_s", gen_s_, "s");
    if (own_) c_.e2e_median("cpu_s", cpu_, "s");
    c_.layer("sim.fleet_setup_ms", 1e3 * median(fleet_setup_), "ms");
    c_.layer("sim.generate_s", median(generate_s_), "s");
    c_.layer("sim.busy_ratio", median(busy_), "ratio");
    c_.layer("sim.probe_entries", static_cast<double>(entries_), "count");
    c_.layer("store.save_ms", median(save_ms_), "ms");
    c_.layer("store.load_ms", median(load_ms_), "ms");
    c_.layer("store.bytes_written", bytes_, "bytes");
    c_.layer("store.bytes_read", bytes_read_, "bytes");
    if (!c_.opt.trace) return;

    // Attribution: each network as its own slice, one at a time, so the
    // slowest network (the straggler that bounds the parallel run) and the
    // serial total are both visible.
    std::vector<double> slice_ms;
    for (std::size_t n = 0; n < gen_->network_count(); ++n) {
      Span span("sim.network_slice");
      const double t0 = now_s();
      const Dataset one = gen_->generate(n, n + 1);
      slice_ms.push_back(1e3 * (now_s() - t0));
    }
    double sum_ms = 0.0;
    for (double v : slice_ms) sum_ms += v;
    c_.layer("sim.network_max_ms",
             *std::max_element(slice_ms.begin(), slice_ms.end()), "ms");
    c_.layer("sim.network_sum_ms", sum_ms, "ms");
    c_.layer("sim.ns_per_probe_entry",
             1e6 * sum_ms /
                 static_cast<double>(std::max<std::size_t>(entries_, 1)),
             "ns");
  }

 private:
  const std::string path_ = c_.path(own_ ? "gen.wsnap" : "gen-companion.wsnap");
  std::unique_ptr<wmesh::FleetGenerator> gen_;
  std::vector<double> fleet_setup_, gen_s_, cpu_, generate_s_, busy_,
      save_ms_, load_ms_;
  std::uint64_t first_hash_ = 0;
  std::size_t entries_ = 0;
  double bytes_ = 0.0, bytes_read_ = 0.0;
};

// ------------------------------------------------------------ analyze --

struct Section {
  const char* name;
  unsigned bit;
};
constexpr std::array<Section, 8> kSections = {{
    {"snr", wmesh::kSectionSnr},
    {"lookup", wmesh::kSectionLookup},
    {"routing", wmesh::kSectionRouting},
    {"paths", wmesh::kSectionPaths},
    {"anypath", wmesh::kSectionAnypath},
    {"hidden", wmesh::kSectionHidden},
    {"mobility", wmesh::kSectionMobility},
    {"traffic", wmesh::kSectionTraffic},
}};

// Runs `fn` on the default pool resized to `threads`, then restores the
// run's thread count.
template <typename Fn>
auto with_threads(const Ctx& c, std::size_t threads, Fn&& fn) {
  wmesh::par::set_default_threads(threads);
  auto out = fn();
  wmesh::par::set_default_threads(c.threads);
  return out;
}

// Traced attribution of one analysis: each report section collected on its
// own at 1 and N threads, the render, the look-up tables built and
// evaluated directly, and FleetAnalyzer's passes replayed from outside.
void attribute_analyze(Ctx& c, const std::string& wsnap,
                       const std::string& manifest,
                       const std::string& reference) {
  Dataset ds;
  c.check(wmesh::store::load_wsnap(wsnap, &ds), "analyze: load " + wsnap);

  for (std::size_t t : {std::size_t{1}, c.threads}) {
    const char* suffix = t == 1 ? "_1t_ms" : "_nt_ms";
    wmesh::par::set_default_threads(t);
    wmesh::AnalysisCache cache;  // shared across sections, as report_etx
    for (const Section& s : kSections) {
      Span span("core.collect");
      const double t0 = now_s();
      (void)wmesh::collect_report(ds, s.bit, nullptr, cache);
      c.layer(std::string("core.collect.") + s.name + suffix,
              1e3 * (now_s() - t0), "ms");
    }
    if (t == 1) continue;
    const wmesh::AnalysisCache::Stats st = cache.stats();
    c.layer("cache.entries", static_cast<double>(st.entries), "count");
    c.layer("cache.bytes", static_cast<double>(st.bytes), "bytes");
    c.layer("cache.hit_ratio",
            static_cast<double>(st.hits) /
                static_cast<double>(std::max<std::uint64_t>(
                    st.hits + st.misses, 1)),
            "ratio");
    wmesh::ReportPartials all;
    {
      Span span("core.collect");
      all = wmesh::collect_report(ds, wmesh::kSectionAll, nullptr, cache);
    }
    const double t0 = now_s();
    std::string text;
    {
      Span span("core.render");
      text = wmesh::render_report(all, "etx");
    }
    c.layer("core.render_ms", 1e3 * (now_s() - t0), "ms");
    c.check(text == reference, "analyze: collect+render differs from etx");
  }
  wmesh::par::set_default_threads(c.threads);

  double build_ms = 0.0, eval_ms = 0.0, observations = 0.0;
  for (wmesh::Standard st : {wmesh::Standard::kBg, wmesh::Standard::kN}) {
    for (wmesh::TableScope sc :
         {wmesh::TableScope::kGlobal, wmesh::TableScope::kNetwork,
          wmesh::TableScope::kAp, wmesh::TableScope::kLink}) {
      double t0 = now_s();
      std::unique_ptr<wmesh::SnrLookupTable> table;
      {
        Span span("core.lookup_build");
        table = std::make_unique<wmesh::SnrLookupTable>(
            wmesh::build_lookup_table(ds, st, sc));
      }
      build_ms += 1e3 * (now_s() - t0);
      for (const auto& cell : table->cells()) {
        observations += static_cast<double>(cell.count);
      }
      t0 = now_s();
      {
        Span span("core.lookup_eval");
        (void)wmesh::eval_lookup_table(ds, st, sc, *table);
      }
      eval_ms += 1e3 * (now_s() - t0);
    }
  }
  c.layer("lookup.build_ms", build_ms, "ms");
  c.layer("lookup.eval_ms", eval_ms, "ms");
  c.layer("lookup.observations", observations, "count");
  ds = Dataset();

  // FleetAnalyzer::run("etx") replayed step by step from outside, with
  // its shard skips, one cache across shards and per-trace invalidation:
  // pass 1 folds the global look-up tables, pass 2 collects each shard
  // against them and merges in shard order.  A copy: a change to the real
  // loop moves fleet_nt_s but not these timings unless it is mirrored here.
  wmesh::store::FleetReader reader;
  c.check(reader.open(manifest), "analyze: open " + manifest);
  double load_ms = 0.0, collect_ms = 0.0, merge_ms = 0.0;
  wmesh::GlobalLookupTables tables;
  const double g0 = now_s();
  {
    Span span("store.fleet_global_pass");
    for (std::size_t s = 0; s < reader.shard_count(); ++s) {
      if (reader.manifest().shards[s].probe_sets == 0) continue;
      Dataset shard;
      const double t0 = now_s();
      {
        Span load("store.shard_load");
        c.check(reader.load_shard(s, &shard), "analyze: " + reader.error());
      }
      load_ms += 1e3 * (now_s() - t0);
      tables.add(shard);
    }
  }
  c.layer("fleet.global_pass_ms", 1e3 * (now_s() - g0), "ms");
  // Pass 2 skips client-free shards only for client-sample-only analyses,
  // which etx is not, so every shard is collected.
  wmesh::AnalysisCache cache;
  wmesh::ReportPartials acc;
  acc.sections = wmesh::kSectionAll;
  for (std::size_t s = 0; s < reader.shard_count(); ++s) {
    Dataset shard;
    double t0 = now_s();
    {
      Span span("store.shard_load");
      c.check(reader.load_shard(s, &shard), "analyze: " + reader.error());
    }
    load_ms += 1e3 * (now_s() - t0);
    t0 = now_s();
    wmesh::ReportPartials p;
    {
      Span span("core.collect");
      p = wmesh::collect_report(shard, wmesh::kSectionAll, &tables, cache);
    }
    for (const wmesh::NetworkTrace& nt : shard.networks) cache.invalidate(&nt);
    collect_ms += 1e3 * (now_s() - t0);
    t0 = now_s();
    {
      Span span("store.fleet_merge");
      wmesh::merge_report(acc, std::move(p));
    }
    merge_ms += 1e3 * (now_s() - t0);
  }
  c.layer("fleet.shard_load_ms", load_ms, "ms");
  c.layer("fleet.collect_ms", collect_ms, "ms");
  c.layer("fleet.merge_ms", merge_ms, "ms");
  c.check(wmesh::render_report(acc, "etx") == reference,
          "analyze: replayed fleet passes differ from etx");
}

// Loads the WSNAP and renders the full etx report three ways -- 1 thread,
// N threads, and out of core through FleetAnalyzer over the shards.
// Check: the three outputs are byte-identical.
class AnalyzeStage : public Stage {
 public:
  using Stage::Stage;

  // Set-up: generate the fleet, write it as one WSNAP, split it into
  // shards.  Repeated for a median when this is the workload's own stage.
  void setup() override {
    std::vector<double> setup, save_ms;
    for (int r = 0; r < (own_ ? kSetupRepeats : 1); ++r) {
      const double t0 = now_s();
      Dataset ds;
      {
        Span span("sim.generate");
        const wmesh::FleetGenerator gen(cfg_);
        ds = gen.generate(0, gen.network_count());
      }
      std::string err;
      const double t1 = now_s();
      {
        Span span("store.save");
        c_.check(wmesh::store::save_wsnap(ds, wsnap_, &err),
                 "analyze: " + err);
      }
      save_ms.push_back(1e3 * (now_s() - t1));
      {
        Span span("store.split");
        c_.check(
            wmesh::store::split_wsnap_fleet(wsnap_, prefix_, kShards, &err),
            "analyze: " + err);
      }
      setup.push_back(now_s() - t0);
    }
    if (own_) {
      c_.setup_s = setup;
      save_ms_ = median(save_ms);
    }
  }

  void step(int i) override {
    const double c0 = cpu_s();
    const double it0 = now_s();
    Dataset ds;
    std::string err;
    const double read0 = store_bytes_read();
    {
      Span span("store.load");
      c_.check(wmesh::store::load_wsnap(wsnap_, &ds, &err), "analyze: " + err);
    }
    load_ms_.push_back(1e3 * (now_s() - it0));
    bytes_read_ = store_bytes_read() - read0;

    double t0 = now_s();
    const std::string one = with_threads(c_, 1, [&] {
      Span span("core.report_1t");
      return wmesh::run_report(ds, "etx");
    });
    t1s_.push_back(now_s() - t0);

    // The multi-threaded runs are the noisiest on a shared host, so a step
    // takes kMultiThreadedRepeats samples of each.  The dataset is freed
    // before the out-of-core runs.
    std::string many;
    for (int r = 0; r < kMultiThreadedRepeats; ++r) {
      t0 = now_s();
      {
        Span span("core.report_nt");
        many = wmesh::run_report(ds, "etx");
      }
      tns_.push_back(now_s() - t0);
      c_.check(!one.empty() && one == many,
               "analyze: etx differs between 1 thread and N threads");
    }
    ds = Dataset();

    for (int r = 0; r < kMultiThreadedRepeats; ++r) {
      t0 = now_s();
      std::string fleet;
      {
        Span span("store.fleet_analyze");
        wmesh::store::FleetReader reader;
        bool ok = reader.open(manifest_);
        wmesh::store::FleetAnalyzer analyzer(reader);
        ok = ok && analyzer.run("etx", &fleet);
        c_.check(ok, "analyze: fleet: " + reader.error() + analyzer.error());
        shards_opened_ = static_cast<double>(analyzer.totals().shards_opened);
        fleet_rss_.push_back(
            static_cast<double>(analyzer.totals().peak_rss_bytes) / kMiB);
      }
      fleet_s_.push_back(now_s() - t0);
      if (c_.corrupt("analyze") && !fleet.empty()) fleet[fleet.size() / 2] ^= 1;
      c_.check(fleet == many, "analyze: etx differs between N threads and fleet");
    }
    cpu_.push_back(cpu_s() - c0);
    headline(i, now_s() - it0);
    reference_ = many;
  }

  int planned() const override { return kCompanionAnalyzeIters; }

  void finish() override {
    c_.e2e_median("analyze_1t_s", t1s_, "s");
    c_.e2e_median("analyze_nt_s", tns_, "s");
    c_.e2e_median("fleet_nt_s", fleet_s_, "s");
    if (own_) {
      c_.e2e_median("cpu_s", cpu_, "s");
      c_.layer("store.save_ms", save_ms_, "ms");
      c_.layer("store.bytes_written", file_bytes(wsnap_), "bytes");
      c_.layer("store.load_ms", median(load_ms_), "ms");
      c_.layer("store.bytes_read", bytes_read_, "bytes");
    }
    c_.layer("par.scaling", median(t1s_) / median(tns_), "ratio");
    c_.layer("fleet.shards_opened", shards_opened_, "count");
    c_.layer("fleet.peak_rss_mb", median(fleet_rss_), "MiB");
    if (c_.opt.trace) attribute_analyze(c_, wsnap_, manifest_, reference_);
  }

 private:
  const std::string wsnap_ =
      c_.path(own_ ? "analyze.wsnap" : "analyze-companion.wsnap");
  const std::string prefix_ =
      c_.path(own_ ? "analyze-fleet" : "analyze-companion-fleet");
  const std::string manifest_ = wmesh::store::manifest_path(prefix_);
  std::vector<double> t1s_, tns_, fleet_s_, cpu_, load_ms_, fleet_rss_;
  double save_ms_ = 0.0, bytes_read_ = 0.0;
  double shards_opened_ = 0.0;
  std::string reference_;
};

// -------------------------------------------------------------- serve --

// The served commands, in metric-name order; a per-network command takes
// a network id argument.
struct Command {
  const char* metric;  // serve.query.<metric>_p50_ms
  const char* verb;
  bool per_network;
};
constexpr std::array<Command, 11> kCommands = {{
    {"etx", "etx", false},         {"lookup", "lookup", false},
    {"anypath", "anypath", false}, {"exor", "exor", false},
    {"snr", "snr", false},         {"mobility", "mobility", false},
    {"hidden", "hidden", false},   {"paths", "paths", false},
    {"etx_net", "etx", true},      {"hidden_net", "hidden", true},
    {"stats", "stats", false},
}};

// The query mix, one deck of command indices shuffled per pass: one card
// per served command, unweighted.  No recorded query traffic exists to
// weight the commands by.
constexpr std::array<int, kCommands.size()> kDeck = {0, 1, 2, 3, 4, 5,
                                                     6, 7, 8, 9, 10};

std::string command_line(const Command& cmd, std::uint32_t id) {
  std::string line = cmd.verb;
  if (cmd.per_network) line += " " + std::to_string(id);
  return line;
}

// Blocking line-protocol client over one connection.
class Connection {
 public:
  explicit Connection(const std::string& address) {
    std::string err;
    fd_ = wmesh::obs::connect_socket(address, &err);
    if (fd_ < 0) return;
    timeval tv{};
    tv.tv_sec = 60;  // a reply slower than this counts as a timeout
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }

  // Sends one command and reads its reply; false on an `err` reply, a
  // malformed reply, a closed connection or a timeout.
  bool query(const std::string& line, std::string* body) {
    body->clear();
    const std::string req = line + "\n";
    if (fd_ < 0 || !wmesh::obs::send_all(fd_, req.data(), req.size())) {
      return false;
    }
    std::string header;
    if (!read_line(&header)) return false;
    if (header.rfind("ok ", 0) != 0) return false;
    const std::size_t n = std::strtoull(header.c_str() + 3, nullptr, 10);
    while (buf_.size() < n) {
      if (!fill()) return false;
    }
    body->assign(buf_, 0, n);
    buf_.erase(0, n);
    return true;
  }

 private:
  bool fill() {
    char tmp[65536];
    const ssize_t r = recv(fd_, tmp, sizeof(tmp), 0);
    if (r <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(r));
    return true;
  }
  bool read_line(std::string* line) {
    std::size_t nl;
    while ((nl = buf_.find('\n')) == std::string::npos) {
      if (!fill()) return false;
    }
    line->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    return true;
  }

  int fd_ = -1;
  std::string buf_;
};

struct QuerySample {
  int cmd = 0;
  double ms = 0.0;
  bool first = false;  // first query of its connection
};

struct SessionResult {
  std::vector<QuerySample> samples;
  double ingest_s = 0.0;       // run() start until the stream is drained
  double client_s = 0.0;       // client wall time, summed over clients
  std::uint64_t rounds = 0;
  double invalidations = 0.0;  // from `stats`
  double hit_ratio = 0.0;      // from `stats`
};

double stats_field(const std::string& stats, const std::string& key) {
  const std::size_t at = stats.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(stats.c_str() + at + key.size(), nullptr);
}

// One closed-loop client: short connections of 1-3 queries each, drawn
// from the shuffled deck, until `stop`.  Latency runs from the start of
// connect() (first query) or send (later queries) to the full reply.
void client_loop(Ctx& c, const std::string& address, std::uint64_t seed,
                 std::uint32_t networks, const std::atomic<bool>& stop,
                 std::vector<QuerySample>* out) {
  std::mt19937_64 rng(seed);
  std::array<int, kDeck.size()> deck = kDeck;
  std::size_t next = deck.size();
  while (!stop.load()) {
    const int queries = 1 + static_cast<int>(rng() % 3);
    double t0 = now_s();
    Connection conn(address);
    if (!c.check(conn.ok(), "serve: connect " + address)) break;
    for (int q = 0; q < queries; ++q) {
      if (next == deck.size()) {
        std::shuffle(deck.begin(), deck.end(), rng);
        next = 0;
      }
      const int cmd = deck[next++];
      const auto id = static_cast<std::uint32_t>(rng() % networks);
      const std::string line = command_line(kCommands[cmd], id);
      if (q > 0) t0 = now_s();
      std::string body;
      bool ok = false;
      {
        Span span("serve.query", Tracer::instance().next_request());
        ok = conn.query(line, &body);
      }
      out->push_back({cmd, 1e3 * (now_s() - t0), q == 0});
      if (!c.check(ok, "serve: query '" + line + "'")) break;
    }
  }
}

// Starts a daemon on the run's socket.
std::unique_ptr<wmesh::serve::ServeDaemon> start_daemon(
    Ctx& c, const GeneratorConfig& cfg, int tick_sleep_ms) {
  wmesh::serve::DaemonOptions opts;
  opts.service.gen = cfg;
  opts.listen = "unix:" + c.path("serve.sock");
  opts.tick_sleep_ms = tick_sleep_ms;
  std::string err;
  std::unique_ptr<wmesh::serve::ServeDaemon> daemon;
  {
    Span span("serve.daemon_start");
    daemon = wmesh::serve::ServeDaemon::start(opts, &err);
  }
  c.check(daemon != nullptr, "serve: start: " + err);
  return daemon;
}

// One daemon lifetime: start it, ingest the whole stream while the clients
// query, then compare served exor/hidden/paths with a batch run over the
// final window.
SessionResult serve_session(Ctx& c, const GeneratorConfig& cfg,
                            std::uint64_t session) {
  SessionResult r;
  auto daemon = start_daemon(c, cfg, kTickSleepMs);
  if (daemon == nullptr) return r;
  const std::string address = daemon->query_address();

  const double t0 = now_s();
  std::thread runner([&daemon] { daemon->run(); });
  std::atomic<bool> stop{false};
  std::vector<std::vector<QuerySample>> per_client(kClients);
  std::vector<std::thread> clients;
  const auto networks = static_cast<std::uint32_t>(cfg.fleet.network_count);
  for (std::size_t k = 0; k < kClients; ++k) {
    const std::uint64_t seed =
        splitmix64(c.opt.seed ^ splitmix64(session * kClients + k + 1));
    clients.emplace_back(client_loop, std::ref(c), address, seed, networks,
                         std::cref(stop), &per_client[k]);
  }
  // finished() takes the service mutex, so poll it rarely: a poller that
  // wakes often competes with the ingest and the queries for the lock.
  while (!daemon->service().finished()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  r.ingest_s = now_s() - t0;
  r.rounds = daemon->service().rounds();
  stop.store(true);
  for (auto& t : clients) t.join();
  r.client_s = static_cast<double>(kClients) * (now_s() - t0);
  for (auto& v : per_client) {
    r.samples.insert(r.samples.end(), v.begin(), v.end());
  }

  {
    Span span("serve.check");
    Connection conn(address);
    const Dataset snap = daemon->service().snapshot();
    const std::array<std::pair<const char*, std::string>, 3> expect = {{
        {"exor", wmesh::report_routing(snap)},
        {"hidden", wmesh::report_hidden(snap)},
        {"paths", wmesh::report_path_lengths(snap)},
    }};
    for (const auto& [verb, batch] : expect) {
      std::string served;
      const bool ok = conn.query(verb, &served);
      if (c.corrupt("serve") && !served.empty()) served[served.size() / 2] ^= 1;
      c.check(ok && served == batch,
              std::string("serve: served '") + verb + "' differs from batch");
    }
    std::string stats;
    c.check(conn.query("stats", &stats), "serve: stats");
    r.invalidations = stats_field(stats, "cache_invalidations");
    const double hits = stats_field(stats, "cache_hits");
    const double misses = stats_field(stats, "cache_misses");
    r.hit_ratio = hits / std::max(hits + misses, 1.0);
  }
  daemon->request_shutdown();
  runner.join();
  daemon.reset();
  return r;
}

// Traced attribution of the service without the socket: every tick timed
// (steady vs report-boundary), then each command through
// MeshService::query directly over the final window.
void attribute_serve(Ctx& c, const GeneratorConfig& cfg) {
  {
    // One `stats` query sent shortly after an unpaced ingest starts: how
    // long a reader waits beside a writer that never pauses.
    auto daemon = start_daemon(c, cfg, 0);
    if (daemon == nullptr) return;
    std::thread runner([&daemon] { daemon->run(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double t0 = now_s();
    bool ok = false;
    {
      Span span("serve.query", Tracer::instance().next_request());
      Connection conn(daemon->query_address());
      std::string body;
      ok = conn.query("stats", &body);
    }
    c.layer("serve.unpaced_wait_ms", 1e3 * (now_s() - t0), "ms");
    c.check(ok, "serve: unpaced stats query");
    daemon->request_shutdown();
    runner.join();
  }

  wmesh::serve::ServeConfig sc;
  sc.gen = cfg;
  wmesh::serve::MeshService svc(sc);
  const double interval = cfg.probes.report_interval_s;
  std::vector<double> steady, boundary;
  double prev = -1.0;
  for (;;) {
    const double t0 = now_s();
    bool more = false;
    {
      Span span("serve.tick");
      more = svc.tick();
    }
    const double ms = 1e3 * (now_s() - t0);
    if (!more) break;
    const double t = svc.time_s();
    const bool crossed =
        prev < 0.0 ||
        std::floor(t / interval + 1e-9) != std::floor(prev / interval + 1e-9);
    (crossed ? boundary : steady).push_back(ms);
    prev = t;
  }
  c.layer("serve.tick_ms", median(steady), "ms");
  c.layer("serve.tick_boundary_ms", median(boundary), "ms");

  const auto networks = static_cast<std::uint32_t>(cfg.fleet.network_count);
  for (const Command& cmd : kCommands) {
    const int reps = cmd.per_network ? 10 : 3;
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      const std::string line =
          command_line(cmd, static_cast<std::uint32_t>(i) % networks);
      const double t0 = now_s();
      bool ok = false;
      {
        Span span("serve.service");
        ok = svc.query(line).ok;
      }
      ms.push_back(1e3 * (now_s() - t0));
      c.check(ok, "serve: service query '" + line + "'");
    }
    c.layer(std::string("serve.service.") + cmd.metric + "_ms", median(ms),
            "ms");
  }
}

// An in-process ServeDaemon on a unix socket, one per session: it ingests
// the stream while two closed-loop clients query it.  Check: no `err`
// reply or timeout, and served exor/hidden/paths equal the batch reports
// over the final window.  Serve runs only as a companion, in every
// workload, on serve_stream().
class ServeStage : public Stage {
 public:
  explicit ServeStage(Ctx& c) : Stage(c, false, true), stream_(c.serve_stream()) {}

  // Each session starts its own daemon.
  void setup() override {}

  void step(int i) override {
    sessions_.push_back(with_threads(c_, kServeThreads, [&] {
      return serve_session(c_, stream_, static_cast<std::uint64_t>(i));
    }));
    samples_ += sessions_.back().samples.size();
  }

  // The planned sessions, and enough samples for a tail-backed p95.
  int planned() const override { return kServeSessions; }
  bool companion_done(int steps) const override {
    return steps >= kMaxSessions ||
           (steps >= planned() && samples_ >= kMinQueries);
  }
  double step_units() const override {
    return static_cast<double>(
        std::max<std::size_t>(sessions_.back().samples.size(), 1));
  }

  void finish() override {
    std::vector<double> all, ingest, invalidations, hit_ratio;
    std::array<std::vector<double>, kCommands.size()> by_cmd, later;
    double client_s = 0.0;
    for (const SessionResult& s : sessions_) {
      ingest.push_back(static_cast<double>(s.rounds) / s.ingest_s);
      invalidations.push_back(s.invalidations);
      hit_ratio.push_back(s.hit_ratio);
      client_s += s.client_s;
      for (const QuerySample& q : s.samples) {
        all.push_back(q.ms);
        by_cmd[q.cmd].push_back(q.ms);
        if (!q.first) later[q.cmd].push_back(q.ms);
      }
    }
    // The wait a connection spends before its first query is served: its
    // first-query latency minus the median of the same command when it was
    // not first on its connection.
    std::vector<double> waits;
    for (const SessionResult& s : sessions_) {
      for (const QuerySample& q : s.samples) {
        if (q.first && !later[q.cmd].empty()) {
          waits.push_back(q.ms - median(later[q.cmd]));
        }
      }
    }

    const std::size_t beyond = samples_beyond(all.size(), 0.95);
    c_.check(beyond >= 10, "serve: fewer than 10 samples beyond p95");
    c_.e2e_median("query_p50_ms", all, "ms");
    c_.e2e("query_p95_ms", quantile(all, 0.95), "ms",
           "exact p95 of " + std::to_string(all.size()) + ", " +
               std::to_string(beyond) + " beyond");
    c_.e2e("queries_per_s", static_cast<double>(all.size()) / client_s, "1/s",
           std::to_string(all.size()) + " queries, " +
               std::to_string(sessions_.size()) + " sessions");
    c_.e2e_median("ingest_rounds_per_s", ingest, "1/s");
    for (std::size_t k = 0; k < kCommands.size(); ++k) {
      c_.layer(std::string("serve.query.") + kCommands[k].metric + "_p50_ms",
               median(by_cmd[k]), "ms");
    }
    c_.layer("serve.connect_wait_ms", median(waits), "ms");
    c_.layer("serve.cache_hit_ratio", median(hit_ratio), "ratio");
    c_.layer("serve.invalidations", median(invalidations), "count");
    if (c_.opt.trace) {
      with_threads(c_, kServeThreads, [&] {
        attribute_serve(c_, stream_);
        return 0;
      });
    }
  }

 private:
  const GeneratorConfig stream_;
  std::vector<SessionResult> sessions_;
  std::size_t samples_ = 0;
};

// Serve is never a workload's own stage.
std::unique_ptr<Stage> make_stage(const std::string& name, Ctx& c, bool own) {
  if (name == "gen") return std::make_unique<GenStage>(c, own, own);
  // The analyze companion runs at full scale: on the 1-hour fleet its
  // out-of-core runs jumped by half whenever the host was loaded.
  if (name == "analyze") return std::make_unique<AnalyzeStage>(c, own, true);
  if (name == "serve" && !own) return std::make_unique<ServeStage>(c);
  return nullptr;
}

}  // namespace

bool run_workload(const Options& options, RunResult* result) {
  Ctx c(options, *result);
  c.threads = std::min<std::size_t>(wmesh::par::hardware_threads(), 4);
  wmesh::par::set_default_threads(c.threads);
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(options.trace);

  std::unique_ptr<Stage> own = make_stage(options.workload, c, true);
  if (own == nullptr) return false;
  std::vector<std::unique_ptr<Stage>> companions;
  for (const char* name : {"gen", "analyze", "serve"}) {
    if (options.workload != name) companions.push_back(make_stage(name, c, false));
  }

  for (auto& s : companions) s->setup();
  own->setup();

  // Runs one step.  Steps never overlap, so the spans closed during a
  // traced step are that step's; their self time per layer, divided by the
  // step's units of work, goes to the stage.
  auto run_step = [&](Stage& s, int i) {
    const std::size_t from = tracer.span_count();
    s.step(i);
    if (!tracer.enabled()) return;
    for (const auto& [layer, ms] : tracer.self_ms_by_layer(from)) {
      s.self_ms[layer].push_back(ms / s.step_units());
    }
  };
  // The own stage runs for the measured seconds; after each of its steps
  // the companions catch up to the same fraction of their planned work, so
  // their samples spread over the whole run instead of one burst.
  std::vector<int> done(companions.size(), 0);
  auto catch_up = [&](double fraction) {
    tracer.set_enabled(options.trace);
    for (std::size_t k = 0; k < companions.size(); ++k) {
      Stage& s = *companions[k];
      while (!s.companion_done(done[k]) &&
             (fraction >= 1.0 || done[k] < std::ceil(fraction * s.planned()))) {
        run_step(s, done[k]++);
      }
    }
  };
  // A step is not started when it would end more than half a step past
  // the measured seconds.
  const double t0 = now_s();
  double last_step = 0.0;
  for (int i = 0;
       i < kOwnMinIters || now_s() - t0 + 0.5 * last_step < options.seconds;
       ++i) {
    // In a traced run the own stage alternates untraced and traced steps,
    // so the tracing overhead is measured within one process.
    tracer.set_enabled(options.trace && i % 2 == 1);
    const double s0 = now_s();
    run_step(*own, i);
    last_step = now_s() - s0;
    catch_up(std::min(0.999, (now_s() - t0) / options.seconds));
  }
  catch_up(1.0);

  // Companions publish first, so the own stage's per-layer readings win
  // where both touch a layer.
  for (auto& s : companions) s->finish();
  own->finish();

  c.e2e_median("setup_s", c.setup_s, "s");
  c.e2e("peak_rss_mb", peak_rss_mb(), "MiB", "process peak");
  if (options.trace) {
    // A layer's self time per unit of work: for each stage, the median over
    // its traced steps (per query for serve), summed over the stages.
    std::vector<Stage*> stages = {own.get()};
    for (auto& s : companions) stages.push_back(s.get());
    for (const char* layer : {"sim", "store", "core", "serve"}) {
      double ms = 0.0;
      for (const Stage* s : stages) {
        const auto it = s->self_ms.find(layer);
        if (it != s->self_ms.end()) ms += median(it->second);
      }
      c.layer(std::string(layer) + ".self_ms", ms, "ms");
    }
    c.layer("trace.overhead_pct",
            100.0 * (median(c.traced) / median(c.untraced) - 1.0), "%");
  }
  return true;
}

}  // namespace perfbench
