// Per-(link, rate) sliding window of probe outcomes (paper §3.1: the loss
// rate a receiver reports is over the probes of the last window_s).
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace wmesh {

// The window length in probes is window_s / probe_interval_s (20 for the
// defaults).  The outcomes live in a 64-bit shift register -- newest in bit
// 0 -- plus a fill count, so a push is a shift and an or, and received() is
// a popcount of the low `capacity` bits.
class ProbeOutcomeWindow {
 public:
  static constexpr std::size_t kMaxCapacity = 64;

  // Throws std::invalid_argument unless 1 <= capacity <= kMaxCapacity.
  explicit ProbeOutcomeWindow(std::size_t capacity)
      : capacity_(static_cast<std::uint32_t>(capacity)) {
    if (capacity == 0 || capacity > kMaxCapacity) {
      throw std::invalid_argument(
          "probe outcome window holds 1.." + std::to_string(kMaxCapacity) +
          " probes, not " + std::to_string(capacity));
    }
  }

  void push(bool delivered) noexcept {
    bits_ = (bits_ << 1) | static_cast<std::uint64_t>(delivered);
    filled_ += filled_ < capacity_ ? 1 : 0;
  }

  std::size_t samples() const noexcept { return filled_; }
  std::size_t received() const noexcept {
    return static_cast<std::size_t>(
        std::popcount(bits_ & (~std::uint64_t{0} >> (64 - capacity_))));
  }

  double loss() const noexcept {
    if (filled_ == 0) return 1.0;
    return 1.0 - static_cast<double>(received()) /
                     static_cast<double>(filled_);
  }

 private:
  std::uint64_t bits_ = 0;  // older outcomes shift out past bit capacity-1
  std::uint32_t capacity_;
  std::uint32_t filled_ = 0;
};

}  // namespace wmesh
