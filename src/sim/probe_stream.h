// Incremental probe scheduler: the streaming form of sim/probe_sim.h.
//
// A NetworkProbeStream owns the full per-network probe state -- channel
// model, per-(link, rate) sliding outcome windows, latest SNRs, report
// clock -- and advances it one probe round (probe_interval_s of virtual
// time) per advance_round() call, appending any report-due ProbeSets to the
// caller's buffer.  Draining a stream to its configured duration produces
// exactly the ProbeSet sequence simulate_probes() returns for the same
// (network, standard, params, rng): the batch simulator is now a thin loop
// over this class, so the two code paths cannot drift.
//
// The virtual clock is the caller's: advance_round() does no sleeping and
// consumes no wall time, which is what lets wmesh_serve replay hours of
// 40 s / 800 s / 300 s probe traffic in milliseconds under test.
//
// Determinism: all stochastic state is drawn from the Rng handed to the
// constructor (moved in, owned by the stream).  Streams are independent --
// one per (network, standard) with a pre-forked rng -- so a fleet of
// streams can be advanced in parallel, one task per stream, with
// byte-identical results for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/channel.h"
#include "sim/probe_sim.h"
#include "sim/probe_window.h"
#include "trace/records.h"
#include "util/rng.h"

namespace wmesh {

class NetworkProbeStream {
 public:
  // Builds the channel state for (net, standard); `rng` is consumed (the
  // channel construction draws from it first, then every probe round).
  // Throws std::invalid_argument when window_s / probe_interval_s rounds
  // above ProbeOutcomeWindow::kMaxCapacity (64) probes.
  NetworkProbeStream(const MeshNetwork& net, Standard standard,
                     const ChannelParams& channel_params,
                     const ProbeSimParams& params, Rng rng);

  // Advances one probe round: samples every (link, rate) at the next probe
  // instant and appends any report-due ProbeSets (link order, the batch
  // emission order) to *out.  Returns false -- and does nothing -- once the
  // configured duration is exhausted.
  bool advance_round(std::vector<ProbeSet>* out);

  // Virtual time of the last executed probe round (0 before the first).
  double time_s() const noexcept { return prev_t_; }
  // True when every round within params.duration_s has run.
  bool finished() const noexcept { return next_t_ > params_.duration_s; }
  // Virtual time of the next report emission.
  double next_report_s() const noexcept { return next_report_; }

  const ProbeSimParams& params() const noexcept { return params_; }
  std::size_t link_count() const noexcept { return channel_.links().size(); }

  // Channel samples drawn so far; the batch wrapper flushes this total to
  // the `sim.channel_samples` counter once per trace.
  std::uint64_t channel_samples() const noexcept { return channel_samples_; }

 private:
  ProbeSet build_report(std::size_t li, double report_t) const;

  ProbeSimParams params_;
  Rng rng_;  // declared before channel_: its construction draws from rng_
  ChannelModel channel_;
  std::size_t n_rates_ = 0;

  // Per-(link, rate) state, flattened as in the batch simulator.
  std::vector<ProbeOutcomeWindow> windows_;
  std::vector<float> last_snr_;

  double next_t_ = 0.0;        // time of the next probe round
  double prev_t_ = 0.0;        // time of the last executed round
  double next_report_ = 0.0;   // next report emission time
  std::uint64_t channel_samples_ = 0;
};

}  // namespace wmesh
