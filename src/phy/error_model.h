// SNR -> delivery-probability reception model.
//
// The paper's analyses consume per-rate packet success rates; in the real
// data set those come from Atheros radios, here they come from this model
// applied to the channel simulator's per-probe effective SNR.  The model is
// a per-rate logistic curve (parameters live on phy::BitRate), which matches
// the sigmoidal SNR-vs-delivery curves measured for 802.11 hardware well
// enough for every shape the paper reports.
//
// "Effective SNR" is the channel SNR plus the link's modulation-family
// offset (sim/channel.h): two links with identical reported SNR can have
// different delivery behaviour, which is precisely the effect that makes
// per-link SNR look-up tables outperform network-wide ones in §4.
#pragma once

#include <cmath>

#include "phy/rates.h"

namespace wmesh {

// P(probe delivered | effective SNR), in [0, 1].  Inline: the probe
// simulator evaluates it once per channel sample.
inline double delivery_probability(const BitRate& rate,
                                   double effective_snr_db) noexcept {
  const double z = (effective_snr_db - rate.thr50_db) / rate.width_db;
  // Guard against overflow in exp for extreme SNRs.
  if (z > 30.0) return 1.0;
  if (z < -30.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-z));
}

// Inverse of delivery_probability: the effective SNR at which `rate`
// delivers fraction `p` of probes.  p is clamped to (0, 1).
double snr_for_delivery(const BitRate& rate, double p) noexcept;

// Throughput in Mbit/s of sending at `rate` with success probability
// `success` -- the paper's definition (§3.1.2): bit rate x packet success.
inline double throughput_mbps(const BitRate& rate, double success) noexcept {
  return rate.kbps / 1000.0 * success;
}

// Throughput from a loss rate (1 - success), the form probe sets carry.
inline double throughput_from_loss_mbps(const BitRate& rate,
                                        double loss) noexcept {
  return throughput_mbps(rate, 1.0 - loss);
}

}  // namespace wmesh
