#include "phy/error_model.h"

#include <algorithm>
#include <cmath>

namespace wmesh {

double snr_for_delivery(const BitRate& rate, double p) noexcept {
  p = std::clamp(p, 1e-9, 1.0 - 1e-9);
  return rate.thr50_db + rate.width_db * std::log(p / (1.0 - p));
}

}  // namespace wmesh
