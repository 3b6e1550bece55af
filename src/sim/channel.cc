#include "sim/channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wmesh {

ChannelParams indoor_channel_params() {
  return ChannelParams{};  // the defaults are the indoor calibration
}

ChannelParams outdoor_channel_params() {
  ChannelParams p;
  p.snr_ref_db = 62.0;
  p.pathloss_exp = 3.1;
  p.shadow_sigma_db = 5.0;
  p.slow_sigma_db = 2.0;
  // Outdoor receivers see fewer interference bursts (no microwave ovens /
  // dense co-channel traffic); part of why outdoor mobility is calmer.
  p.interference_rate_hz = 1.0 / 3600.0;
  return p;
}

ChannelParams channel_params_for(Environment env) {
  return env == Environment::kOutdoor ? outdoor_channel_params()
                                      : indoor_channel_params();
}

namespace {

int modulation_family(Modulation m) {
  switch (m) {
    case Modulation::kDsss:
    case Modulation::kCck:
      return 0;  // spread-spectrum family
    case Modulation::kOfdm:
    case Modulation::kHtOfdm:
      return 1;
  }
  return 1;
}

std::vector<InterferenceBurst> make_burst_schedule(const ChannelParams& p,
                                                   double duration_s,
                                                   Rng& rng) {
  std::vector<InterferenceBurst> bursts;
  if (p.interference_rate_hz <= 0.0) return bursts;
  double t = rng.exponential(p.interference_rate_hz);
  while (t < duration_s) {
    InterferenceBurst b;
    b.start_s = t;
    b.end_s = t + rng.exponential(1.0 / p.interference_duration_s);
    b.depth_db = rng.exponential(1.0 / p.interference_depth_db);
    bursts.push_back(b);
    t = b.end_s + rng.exponential(p.interference_rate_hz);
  }
  return bursts;
}

}  // namespace

ChannelModel::ChannelModel(const MeshNetwork& net, Standard standard,
                           const ChannelParams& params, double duration_s,
                           Rng& rng)
    : standard_(standard), params_(params) {
  const auto rates = probed_rates(standard);
  const std::size_t n = net.size();

  // Symmetric per-pair draws (shadowing) must match in both directions, so
  // draw them for the unordered pair and reuse.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double d = std::max(1.0, net.distance_m(static_cast<ApId>(a),
                                                    static_cast<ApId>(b)));
      const double path_snr =
          params.snr_ref_db -
          10.0 * params.pathloss_exp * std::log10(d / params.ref_m);
      const double shadow = rng.normal(0.0, params.shadow_sigma_db);
      const double pair_snr = path_snr + shadow;
      // Modulation-family offsets are a property of the *path* (multipath
      // profile), shared by both directions.
      const double fam_offset[2] = {
          rng.normal(0.0, params.mod_offset_sigma_db),
          rng.normal(0.0, params.mod_offset_sigma_db)};

      for (int dir = 0; dir < 2; ++dir) {
        const double dir_off = rng.normal(0.0, params.dir_offset_sigma_db);
        const double static_snr = pair_snr + dir_off;
        if (static_snr < params.silent_floor_db) continue;  // never audible
        LinkChannel lc;
        lc.from = static_cast<ApId>(dir == 0 ? a : b);
        lc.to = static_cast<ApId>(dir == 0 ? b : a);
        lc.static_snr_db = static_snr;
        lc.hidden_offset_db = rng.normal(0.0, params.link_offset_sigma_db);
        lc.rate_offset_db.reserve(rates.size());
        for (const BitRate& r : rates) {
          lc.rate_offset_db.push_back(
              fam_offset[modulation_family(r.mod)] +
              rng.normal(0.0, params.rate_jitter_sigma_db));
        }
        lc.base_loss = rng.uniform(params.base_loss_min, params.base_loss_max);
        lc.slow_sigma_db = params.slow_sigma_db;
        if (rng.bernoulli(params.disturbed_link_prob)) {
          lc.slow_sigma_db *= params.disturbed_slow_multiplier;
        }
        // Start the OU process in its stationary distribution.
        lc.slow_db = rng.normal(0.0, lc.slow_sigma_db);
        links_.push_back(std::move(lc));
      }
    }
  }

  bursts_.resize(n);
  for (std::size_t node = 0; node < n; ++node) {
    bursts_[node] = make_burst_schedule(params, duration_s, rng);
  }
}

void ChannelModel::advance_slow_fading(double dt_s, Rng& rng) {
  if (dt_s <= 0.0) return;
  const double rho = std::exp(-dt_s / params_.slow_tau_s);
  const double unit_innovation = std::sqrt(std::max(0.0, 1.0 - rho * rho));
  for (LinkChannel& lc : links_) {
    lc.slow_db = rho * lc.slow_db +
                 rng.normal(0.0, lc.slow_sigma_db * unit_innovation);
  }
}

double ChannelModel::interference_db(ApId node, double t_s) const noexcept {
  const auto& sched = bursts_[node];
  // Bursts are few per trace; linear scan with early exit is fine and keeps
  // the structure trivially correct.  They are sorted by start time.
  double depth = 0.0;
  for (const auto& b : sched) {
    if (b.start_s > t_s) break;
    if (t_s < b.end_s) depth += b.depth_db;
  }
  return depth;
}

ChannelModel::ProbeOutcome ChannelModel::sample_probe(std::size_t li,
                                                      RateIndex rate,
                                                      double t_s,
                                                      Rng& rng) const {
  const LinkChannel& lc = links_[li];
  const double fast = rng.normal(0.0, params_.fast_sigma_db);
  const double visible_snr = lc.static_snr_db + lc.slow_db + fast;
  const double eff_snr = visible_snr + lc.hidden_offset_db +
                         lc.rate_offset_db[rate] -
                         interference_db(lc.to, t_s);
  const double p = (1.0 - lc.base_loss) *
                   delivery_probability(probed_rates(standard_)[rate], eff_snr);

  ProbeOutcome out;
  out.delivered = rng.bernoulli(p);
  out.reported_snr_db = static_cast<float>(
      visible_snr + rng.normal(0.0, params_.meas_noise_db));
  return out;
}

void ChannelModel::sample_round(double t_s,
                                std::span<ProbeOutcomeWindow> windows,
                                std::span<float> last_snr, Rng& rng) const {
  const auto rates = probed_rates(standard_);
  const std::size_t n_rates = rates.size();
  if (windows.size() < links_.size() * n_rates ||
      last_snr.size() < links_.size() * n_rates) {
    throw std::invalid_argument("sample_round: one slot per (link, rate)");
  }
  std::vector<double> interference(bursts_.size());
  for (std::size_t node = 0; node < bursts_.size(); ++node) {
    interference[node] = interference_db(static_cast<ApId>(node), t_s);
  }

  for (std::size_t li = 0; li < links_.size(); ++li) {
    const LinkChannel& lc = links_[li];
    const double visible_base = lc.static_snr_db + lc.slow_db;
    const double keep = 1.0 - lc.base_loss;
    const double interf = interference[lc.to];
    ProbeOutcomeWindow* window = &windows[li * n_rates];
    float* snr = &last_snr[li * n_rates];
    for (std::size_t ri = 0; ri < n_rates; ++ri) {
      // sample_probe()'s expressions, term for term.
      const double visible_snr =
          visible_base + rng.normal(0.0, params_.fast_sigma_db);
      const double eff_snr = visible_snr + lc.hidden_offset_db +
                             lc.rate_offset_db[ri] - interf;
      const double p = keep * delivery_probability(rates[ri], eff_snr);
      const bool delivered = rng.bernoulli(p);
      window[ri].push(delivered);
      if (delivered) {
        snr[ri] = static_cast<float>(
            visible_snr + rng.normal(0.0, params_.meas_noise_db));
      } else {
        rng.skip_normal();  // a lost probe's reported SNR is never read
      }
    }
  }
}

double ChannelModel::mean_delivery(std::size_t li,
                                   RateIndex rate) const noexcept {
  const LinkChannel& lc = links_[li];
  const double eff =
      lc.static_snr_db + lc.hidden_offset_db + lc.rate_offset_db[rate];
  return (1.0 - lc.base_loss) *
         delivery_probability(probed_rates(standard_)[rate], eff);
}

}  // namespace wmesh
