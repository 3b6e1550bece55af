// Deterministic random-number facade for the simulators.
//
// Every stochastic component in wmesh (topology placement, channel shadowing,
// probe delivery draws, client mobility) takes an Rng by reference so that a
// single 64-bit seed reproduces the entire synthetic "Meraki snapshot"
// bit-for-bit.  This is what makes the bench outputs in EXPERIMENTS.md
// reproducible across runs and machines.
//
// The engine is wmesh's own MT19937-64 (Mt19937_64 below): it emits exactly
// std::mt19937_64's sequence, about 3x cheaper per output.  The helpers below
// exist so call sites read as the distribution they draw from rather than as
// <random> boilerplate.  Most use the <random> distributions themselves;
// normal() and bernoulli(), the draws of the hot probe kernel
// (sim/channel.cc), are inline copies of libstdc++'s arithmetic, pinned to
// the <random> forms by tests/test_sim_kernels.cc.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>

namespace wmesh {

// MT19937-64 (Matsumoto & Nishimura), bit-identical to std::mt19937_64 for
// the same seed.  The whole 312-word state is twisted in one branchless pass
// (the conditional xor of the matrix A becomes a mask from the low bit) and
// each output is tempered as it is drawn.  Same size as std::mt19937_64: a
// FleetGenerator holds one Rng per network.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed = 5489u) noexcept {
    x_[0] = seed;
    for (std::size_t i = 1; i < kStateWords; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
    next_ = kStateWords;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    if (next_ >= kStateWords) twist();
    result_type y = x_[next_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    y ^= y >> 43;
    return y;
  }

  friend bool operator==(const Mt19937_64&, const Mt19937_64&) = default;

 private:
  static constexpr std::size_t kShift = 156;  // the recurrence's middle word
  static constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLower = ~kUpper;
  static constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;

  static std::uint64_t step(std::uint64_t cur, std::uint64_t nxt,
                            std::uint64_t far) noexcept {
    const std::uint64_t y = (cur & kUpper) | (nxt & kLower);
    return far ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
  }

  void twist() noexcept {
    std::size_t k = 0;
    for (; k < kStateWords - kShift; ++k) {
      x_[k] = step(x_[k], x_[k + 1], x_[k + kShift]);
    }
    for (; k < kStateWords - 1; ++k) {
      x_[k] = step(x_[k], x_[k + 1], x_[k + kShift - kStateWords]);
    }
    x_[kStateWords - 1] = step(x_[kStateWords - 1], x_[0], x_[kShift - 1]);
    next_ = 0;
  }

  std::uint64_t x_[kStateWords];
  std::size_t next_;
};

class Rng {
 public:
  static constexpr std::uint64_t kDefaultSeed = 0x5eed0000f00dULL;

  explicit Rng(std::uint64_t seed = kDefaultSeed) : engine_(seed) {}

  // Derive an independent child stream; used to give each network / link /
  // client its own stream so that adding one network does not perturb the
  // draws of another (important when sweeping fleet sizes in benches).
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  std::uint64_t next_u64() { return engine_(); }

  // Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  double lognormal(double mu_log, double sigma_log) {
    return std::lognormal_distribution<double>(mu_log, sigma_log)(engine_);
  }

  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  // Number of successes in n Bernoulli(p) trials.
  int binomial(int n, double p) {
    if (n <= 0 || p <= 0.0) return 0;
    if (p >= 1.0) return n;
    return std::binomial_distribution<int>(n, p)(engine_);
  }

  // Index into `weights` drawn proportionally to the weights (all >= 0).
  std::size_t pick_weighted(std::span<const double> weights) {
    std::discrete_distribution<std::size_t> d(weights.begin(), weights.end());
    return d(engine_);
  }

  // --- Inline draws: same engine calls, same arithmetic as libstdc++ ------
  //
  // Each equals its <random> counterpart on the same engine state, bit for
  // bit, because it repeats libstdc++'s operations in their order.  They
  // are coupled to that library's algorithms (generate_canonical on a
  // 64-bit engine, Marsaglia-polar normal_distribution); the equivalence
  // tests in tests/test_sim_kernels.cc fail if a toolchain ever differs.

  // std::generate_canonical<double, 53>: one output scaled by 2^-64, with
  // the rare round-up to 1.0 clamped to the largest double below 1.
  double canonical() {
    const double u = to_double(engine_()) * 0x1p-64;
    return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
  }

  // static_cast<double>(v), without the sign-test branch x86-64 compilers
  // emit for an unsigned 64-bit source (it mispredicts on half the outputs).
  // Both halves convert exactly, so the one rounding is in the final add:
  // the same round-to-nearest-even result as the direct conversion.
  static double to_double(std::uint64_t v) {
    return static_cast<double>(static_cast<std::int64_t>(v >> 32)) * 0x1p32 +
           static_cast<double>(static_cast<std::int64_t>(v & 0xffffffffu));
  }

  // A fresh std::normal_distribution<double>(mu, sigma): the polar method's
  // rejection loop, returning y * mult and dropping the spare x * mult.
  double normal(double mu, double sigma) {
    const PolarPoint pt = polar_point();
    const double mult = std::sqrt(-2 * std::log(pt.r2) / pt.r2);
    return pt.y * mult * sigma + mu;
  }

  // Consumes exactly the engine outputs of normal() when its value would be
  // discarded, without the log and sqrt.
  void skip_normal() { (void)polar_point(); }

  // std::bernoulli_distribution(p) for p in (0, 1), which compares a
  // canonical draw against p; outside (0, 1) the answer is certain and
  // nothing is drawn.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }

  Mt19937_64& engine() { return engine_; }

 private:
  struct PolarPoint {
    double y, r2;
  };
  PolarPoint polar_point() {
    double x, y, r2;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return {y, r2};
  }

  Mt19937_64 engine_;
};

static_assert(sizeof(Rng) <= sizeof(std::mt19937_64),
              "FleetGenerator holds one Rng per network by value");

}  // namespace wmesh
