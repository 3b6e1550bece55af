#include "sim/probe_stream.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>

#include "par/thread_pool.h"

namespace wmesh {
namespace {

float median_snr(std::vector<float>& snrs) {
  if (snrs.empty()) return kNoSnr;
  std::sort(snrs.begin(), snrs.end());
  const std::size_t n = snrs.size();
  if (n % 2 == 1) return snrs[n / 2];
  return 0.5f * (snrs[n / 2 - 1] + snrs[n / 2]);
}

}  // namespace

NetworkProbeStream::NetworkProbeStream(const MeshNetwork& net,
                                       Standard standard,
                                       const ChannelParams& channel_params,
                                       const ProbeSimParams& params, Rng rng)
    : params_(params),
      rng_(std::move(rng)),
      channel_(net, standard, channel_params, params.duration_s, rng_) {
  n_rates_ = probed_rates(standard).size();
  const std::size_t n_links = channel_.links().size();
  const double window_probes =
      std::max(1.0, std::round(params_.window_s / params_.probe_interval_s));
  if (window_probes > ProbeOutcomeWindow::kMaxCapacity) {
    throw std::invalid_argument(
        "probe window of " + std::to_string(params_.window_s) + " s at " +
        std::to_string(params_.probe_interval_s) + " s per probe exceeds " +
        std::to_string(ProbeOutcomeWindow::kMaxCapacity) + " probes");
  }
  windows_.assign(
      n_links * n_rates_,
      ProbeOutcomeWindow(static_cast<std::size_t>(window_probes)));
  last_snr_.assign(n_links * n_rates_, kNoSnr);
  next_t_ = params_.probe_interval_s;
  next_report_ = params_.report_interval_s;
}

ProbeSet NetworkProbeStream::build_report(std::size_t li,
                                          double report_t) const {
  ProbeSet set;
  set.from = channel_.links()[li].from;
  set.to = channel_.links()[li].to;
  set.time_s = static_cast<std::uint32_t>(std::lround(report_t));
  bool any_received = false;
  std::vector<float> median_buf;
  median_buf.reserve(n_rates_);
  for (std::size_t ri = 0; ri < n_rates_; ++ri) {
    const std::size_t slot = li * n_rates_ + ri;
    ProbeEntry e;
    e.rate = static_cast<RateIndex>(ri);
    e.loss = static_cast<float>(windows_[slot].loss());
    if (windows_[slot].received() > 0) {
      e.snr_db = last_snr_[slot];
      median_buf.push_back(e.snr_db);
      any_received = true;
    }
    set.entries.push_back(e);
  }
  if (!any_received) set.entries.clear();  // link absent from the logs
  if (any_received) set.snr_db = median_snr(median_buf);
  return set;
}

bool NetworkProbeStream::advance_round(std::vector<ProbeSet>* out) {
  if (finished()) return false;
  const double t = next_t_;
  const std::size_t n_links = channel_.links().size();

  channel_.advance_slow_fading(t - prev_t_, rng_);
  prev_t_ = t;

  channel_.sample_round(t, windows_, last_snr_, rng_);
  channel_samples_ += n_links * n_rates_;

  // Emit reports that are due.  Probe rounds are much finer than report
  // intervals, so checking after each round is exact enough (reports land
  // on the first probe round at/after their nominal time).  Window state
  // is stable between rounds, so links report in parallel; RNG-driven
  // sampling above stays serial (one stream per network, by design).  When
  // a fleet of streams is already being advanced in parallel, this nested
  // region runs inline on the calling thread -- same bytes either way.
  while (next_report_ <= t + 1e-9) {
    const double report_t = next_report_;
    std::vector<ProbeSet> sets = par::parallel_map_reduce(
        n_links, std::vector<ProbeSet>{},
        [&](std::size_t li) {
          std::vector<ProbeSet> one;
          ProbeSet set = build_report(li, report_t);
          if (!set.entries.empty()) one.push_back(std::move(set));
          return one;
        },
        [](std::vector<ProbeSet>& acc, std::vector<ProbeSet>&& v) {
          acc.insert(acc.end(), std::make_move_iterator(v.begin()),
                     std::make_move_iterator(v.end()));
        },
        /*grain=*/64);
    out->insert(out->end(), std::make_move_iterator(sets.begin()),
                std::make_move_iterator(sets.end()));
    next_report_ += params_.report_interval_s;
  }

  next_t_ += params_.probe_interval_s;
  return true;
}

}  // namespace wmesh
