// The benchmark's three stages -- gen, analyze, serve -- and the workloads
// built from them.
//
// A workload (gen or analyze) runs its own stage on the default fleet for
// the measured seconds, and the other two stages as companions with a fixed
// amount of work, so that every end-to-end and per-layer metric is measured
// on every workload (see NOTES.md).  Serve is always a companion.
#pragma once

#include <cstdint>
#include <string>

#include "support.h"

namespace perfbench {

struct Options {
  std::string workload;      // gen | analyze
  std::uint64_t seed = 0;
  double seconds = 10.0;     // measured time of the workload's own stage
  bool trace = false;        // record spans, report per-layer metrics
  bool small = false;        // every stage at small_config() (self-test)
  std::string corrupt;       // stage whose compared output is corrupted
  std::string out_dir;       // temporary files, sockets and span dumps
};

struct RunResult {
  Tally tally;
  Metrics end_to_end;
  Metrics per_layer;
};

// Runs one workload; false on an unknown workload name.
bool run_workload(const Options& options, RunResult* result);

}  // namespace perfbench
