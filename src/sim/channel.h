// Radio channel model: the substitute for the real-world RF environment.
//
// Per directed link, the effective SNR a probe experiences decomposes as
//
//   eff_snr(rate, t) = base            (log-distance path loss)
//                    + shadow          (static lognormal shadowing, symmetric)
//                    + dir_offset      (per-direction term -> link asymmetry,
//                                       drives ETX1 vs ETX2 in §5)
//                    + slow(t)         (Ornstein-Uhlenbeck slow fading)
//                    + fast            (per-probe fading)
//                    + rate_offset[r]  (per-link, per-modulation-family and
//                                       per-rate idiosyncrasy; NOT visible in
//                                       the reported SNR)
//                    - interference(t) (receiver-local bursts; also invisible
//                                       in the reported SNR of delivered
//                                       probes)
//
// while the *reported* SNR (what Atheros/MadWiFi logs) is
//
//   reported_snr(t) = base + shadow + slow(t) + fast + meas_noise.
//
// The gap between effective and reported SNR is the engine behind the
// paper's central §4 finding: a link's SNR reading maps to delivery quality
// only through that link's hidden offsets, so per-link look-up tables work
// where global ones are ambiguous.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/network.h"
#include "phy/error_model.h"
#include "phy/rates.h"
#include "sim/probe_window.h"
#include "util/rng.h"

namespace wmesh {

struct ChannelParams {
  // Path loss: snr(d) = snr_ref_db - 10 * pathloss_exp * log10(d / ref_m).
  // The steep indoor exponent makes link quality nearly bimodal in space
  // (strong a grid-step away, dead two steps away), which is what keeps
  // ETX paths short and opportunistic-routing gains small (§5) while still
  // leaving hidden pairs behind common neighbours (§6).
  double snr_ref_db = 55.0;
  double ref_m = 10.0;
  double pathloss_exp = 5.7;

  double shadow_sigma_db = 6.0;       // static per-pair shadowing
  double dir_offset_sigma_db = 1.6;   // per-direction asymmetry
  double link_offset_sigma_db = 4.0;  // hidden per-link quality shift
  double mod_offset_sigma_db = 2.5;   // per-modulation-family shift
  double rate_jitter_sigma_db = 0.8;  // residual per-rate shift

  double slow_sigma_db = 1.8;  // OU stationary stddev
  double slow_tau_s = 600.0;   // OU correlation time
  double fast_sigma_db = 1.2;  // per-probe fading
  double meas_noise_db = 1.4;  // SNR reporting noise

  // A small fraction of links live in disturbed spots (elevators, doors,
  // moving machinery): their slow fading swings several times harder.
  // These links produce the >5 dB tail of Fig 3.1's probe-set sigma CDF
  // and cap per-link look-up accuracy below 100%.
  double disturbed_link_prob = 0.06;
  double disturbed_slow_multiplier = 3.5;

  // Rate-independent per-direction frame-loss floor (collisions, noise
  // spikes, receiver overload -- loss the SNR does not explain).  Drawn
  // uniformly per directed link.  This keeps even strong links below 100%
  // delivery, which is where opportunistic routing's §5 relay gains live.
  double base_loss_min = 0.02;
  double base_loss_max = 0.18;

  // Receiver-local interference bursts (Poisson arrivals).
  double interference_rate_hz = 1.0 / 2400.0;  // one burst per 40 min
  double interference_depth_db = 5.0;          // mean burst depth (exp.)
  double interference_duration_s = 120.0;      // mean burst length (exp.)

  // Links whose base SNR (before temporal terms) is below this floor are
  // treated as permanently silent and not simulated.
  double silent_floor_db = -14.0;
};

// Defaults per environment, calibrated against the paper (DESIGN.md §4).
ChannelParams indoor_channel_params();
ChannelParams outdoor_channel_params();
ChannelParams channel_params_for(Environment env);

// The state of one simulated directed link.
struct LinkChannel {
  ApId from = 0;
  ApId to = 0;
  double static_snr_db = 0.0;  // base + shadow + dir_offset (reported part)
  double hidden_offset_db = 0.0;            // link offset (delivery-only)
  std::vector<double> rate_offset_db;       // per probed rate (delivery-only)
  double slow_db = 0.0;                     // OU state
  double slow_sigma_db = 0.0;               // per-link OU stationary sigma
  double base_loss = 0.0;                   // SNR-independent frame loss
};

// One receiver-local interference burst.
struct InterferenceBurst {
  double start_s = 0.0;
  double end_s = 0.0;
  double depth_db = 0.0;
};

// Channel state for a whole network over a trace.  Owns per-link state and
// per-node interference schedules; the probe simulator advances it probe
// round by probe round.
class ChannelModel {
 public:
  // Builds all audible directed links of `net` for `standard`.
  ChannelModel(const MeshNetwork& net, Standard standard,
               const ChannelParams& params, double duration_s, Rng& rng);

  const std::vector<LinkChannel>& links() const noexcept { return links_; }
  const ChannelParams& params() const noexcept { return params_; }
  Standard standard() const noexcept { return standard_; }

  // Advances every link's slow-fading state from its previous sample time to
  // `t` (OU exact discretization).
  void advance_slow_fading(double dt_s, Rng& rng);

  // Samples one probe on link index `li` at time `t`:
  // draws fast fading, evaluates interference, returns delivered flag and
  // the SNR that would be reported if delivered.
  struct ProbeOutcome {
    bool delivered = false;
    float reported_snr_db = 0.0f;
  };
  ProbeOutcome sample_probe(std::size_t li, RateIndex rate, double t_s,
                            Rng& rng) const;

  // One probe round at time `t`: samples every (link, rate) in link-major
  // order, pushes each outcome into windows[li * n_rates + rate] and stores
  // each delivered probe's reported SNR in last_snr[same slot].  Makes the
  // same engine calls with the same arithmetic as calling sample_probe()
  // for every slot in that order, so the results are byte-identical; it
  // evaluates interference once per receiver and draws inline instead.
  // Throws std::invalid_argument when a span has fewer slots than that.
  void sample_round(double t_s, std::span<ProbeOutcomeWindow> windows,
                    std::span<float> last_snr, Rng& rng) const;

  // Interference depth (dB) at receiver `node` at time `t`.
  double interference_db(ApId node, double t_s) const noexcept;

  // True delivery probability of link `li` at rate `r` with all temporal
  // terms at their means -- used by tests and by the oracle analyses.
  double mean_delivery(std::size_t li, RateIndex rate) const noexcept;

 private:
  Standard standard_;
  ChannelParams params_;
  std::vector<LinkChannel> links_;
  std::vector<std::vector<InterferenceBurst>> bursts_;  // per AP id
};

}  // namespace wmesh
