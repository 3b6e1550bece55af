// perfbench: the wmesh end-to-end benchmark.
//
//   perfbench --workload gen|analyze --seed N --seconds S --trace 0|1
//             [--out DIR] [--small] [--corrupt gen|analyze|serve]
//
// Prints one line per metric ("name value unit"), then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the per-layer ones, and the recorded spans are written to
// DIR/spans-<workload>-<seed>.json.  --small runs every stage at
// small_config() size (the self-test); --corrupt flips a byte of that
// stage's compared output, which must surface as a failed operation.
// Exit code 0 when the run completed (correct or not), 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "support.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload gen|analyze --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--small] "
               "[--corrupt gen|analyze|serve]\n",
               why);
  return 2;
}

void print_json(const perfbench::RunResult& r,
                const perfbench::Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.tally.attempted()),
              static_cast<unsigned long long>(r.tally.failed()));
  const char* sep = "";
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.out_dir = ".perfbench_out";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--small") {
      opt.small = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--out") {
      opt.out_dir = argv[++i];
    } else if (a == "--corrupt") {
      opt.corrupt = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload || !have_seed) return usage("--workload and --seed are required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) return usage(("cannot create " + opt.out_dir).c_str());

  perfbench::RunResult result;
  if (!perfbench::run_workload(opt, &result)) {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  const perfbench::Metrics& shown =
      opt.trace ? result.per_layer : result.end_to_end;
  for (const auto& [name, m] : shown) {
    std::printf("%-34s %14.6g %-6s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  if (opt.trace) {
    const std::string spans = opt.out_dir + "/spans-" + opt.workload + "-" +
                              std::to_string(opt.seed) + ".json";
    if (!perfbench::Tracer::instance().write_json(spans)) {
      result.tally.op(false, "write " + spans);
    }
  }
  print_json(result, shown);
  return 0;
}
