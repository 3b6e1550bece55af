// Equivalence wall for the probe simulator's fast path.
//
// The generator's output is pinned byte for byte (goldens, stream-vs-batch,
// fleet identity), and the fast path reaches it through three substitutions
// that must each be exact:
//   * Mt19937_64 for std::mt19937_64 (util/rng.h);
//   * Rng's inline canonical / polar-normal / bernoulli draws for the
//     libstdc++ distributions they copy;
//   * ChannelModel::sample_round plus the bit-register ProbeOutcomeWindow
//     for per-(link, rate) sample_probe calls into a ring buffer.
// Each is checked here against its reference, value for value and bit for
// bit, so a toolchain whose <random> arithmetic differs fails here first.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/channel.h"
#include "sim/probe_stream.h"
#include "sim/probe_window.h"
#include "util/rng.h"

namespace wmesh {
namespace {

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// --- Engine ---------------------------------------------------------------

TEST(Mt19937_64, MatchesStdForTheFirstMillionOutputs) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{5489}, Rng::kDefaultSeed,
        std::numeric_limits<std::uint64_t>::max()}) {
    Mt19937_64 fast(seed);
    std::mt19937_64 ref(seed);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) mismatches += fast() != ref();
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
  }
}

TEST(Mt19937_64, StandardCheckValue) {
  // [rand.predef]: the 10000th output of a default-seeded mt19937_64.
  Mt19937_64 e;
  for (int i = 1; i < 10000; ++i) (void)e();
  EXPECT_EQ(e(), 9981545732273789042ULL);
  Mt19937_64 seeded(5489);
  for (int i = 1; i < 10000; ++i) (void)seeded();
  EXPECT_EQ(seeded(), 9981545732273789042ULL);
}

TEST(Mt19937_64, CopyTakenMidBlockContinuesTheSequence) {
  Mt19937_64 fast(77);
  std::mt19937_64 ref(77);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(fast(), ref());  // 1000 % 312 != 0
  Mt19937_64 fast_copy = fast;
  std::mt19937_64 ref_copy = ref;
  EXPECT_TRUE(fast_copy == fast);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(fast_copy(), ref_copy());
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(fast(), ref());
}

TEST(Mt19937_64, ChainedForksMatchStdDerivedStreams) {
  // Rng::fork() seeds the child from one parent output.
  const auto std_fork = [](std::mt19937_64& e) {
    return std::mt19937_64(e() ^ 0x9e3779b97f4a7c15ULL);
  };
  Rng rng(Rng::kDefaultSeed);
  std::mt19937_64 ref(Rng::kDefaultSeed);
  for (int i = 0; i < 500; ++i) ASSERT_EQ(rng.next_u64(), ref());
  for (int depth = 0; depth < 6; ++depth) {
    Rng child = rng.fork();
    std::mt19937_64 ref_child = std_fork(ref);
    for (int i = 0; i < 700; ++i) ASSERT_EQ(child.next_u64(), ref_child());
    rng = child.fork();
    ref = std_fork(ref_child);
  }
  for (int i = 0; i < 700; ++i) ASSERT_EQ(rng.next_u64(), ref());
}

TEST(Mt19937_64, NoLargerThanTheStdEngine) {
  EXPECT_LE(sizeof(Rng), sizeof(std::mt19937_64));
}

// --- Inline draws ---------------------------------------------------------

TEST(RngInlineDraws, ToDoubleRoundsLikeTheDirectConversion) {
  std::mt19937_64 gen(3);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t v = gen();
    ASSERT_TRUE(same_bits(Rng::to_double(v), static_cast<double>(v))) << v;
  }
  // Exact, tie and round-up cases around 2^53 and the top of the range.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 53) + 1,
        (std::uint64_t{1} << 53) + 3, (std::uint64_t{1} << 63) + 1024,
        (std::uint64_t{1} << 63) + 1025, (std::uint64_t{1} << 63) + 3072,
        std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::uint64_t>::max() - 1024,
        std::uint64_t{0xffffffff}, std::uint64_t{0x100000000}}) {
    EXPECT_TRUE(same_bits(Rng::to_double(v), static_cast<double>(v))) << v;
  }
}

TEST(RngInlineDraws, CanonicalEqualsGenerateCanonical) {
  Rng rng(11);
  Mt19937_64 ref = rng.engine();
  for (int i = 0; i < 200'000; ++i) {
    const double ref_u = std::generate_canonical<double, 53>(ref);
    ASSERT_TRUE(same_bits(rng.canonical(), ref_u)) << i;
  }
  EXPECT_TRUE(rng.engine() == ref);
}

TEST(RngInlineDraws, NormalEqualsAFreshStdNormalDistribution) {
  Rng rng(12);
  Mt19937_64 ref = rng.engine();
  const double params[][2] = {{0.0, 1.2}, {0.0, 1.4}, {-3.5, 0.25},
                              {10.0, 6.0}, {0.0, 0.0}};
  for (int i = 0; i < 100'000; ++i) {
    const double mu = params[i % 5][0];
    const double sigma = params[i % 5][1];
    const double ref_v = std::normal_distribution<double>(mu, sigma)(ref);
    ASSERT_TRUE(same_bits(rng.normal(mu, sigma), ref_v)) << i;
  }
  EXPECT_TRUE(rng.engine() == ref);
}

TEST(RngInlineDraws, SkipNormalConsumesWhatTheNormalDraws) {
  Rng rng(13);
  Mt19937_64 ref = rng.engine();
  for (int i = 0; i < 100'000; ++i) {
    rng.skip_normal();
    (void)std::normal_distribution<double>(0.0, 1.4)(ref);
    ASSERT_TRUE(rng.engine() == ref) << i;
  }
}

TEST(RngInlineDraws, BernoulliEqualsStdBernoulliDistribution) {
  Rng rng(14);
  Mt19937_64 ref = rng.engine();
  const double ps[] = {0.0, 1e-12, 0.02, 0.3, 0.5, 0.97, 1.0 - 1e-16, 1.0,
                       -0.5, 1.5};
  for (int i = 0; i < 200'000; ++i) {
    const double p = ps[i % 10];
    const bool want =
        p <= 0.0 ? false
                 : p >= 1.0 ? true : std::bernoulli_distribution(p)(ref);
    ASSERT_EQ(rng.bernoulli(p), want) << i;
  }
  EXPECT_TRUE(rng.engine() == ref);
}

// --- Per-round kernel -----------------------------------------------------

MeshNetwork grid_network(std::size_t n, double spacing) {
  std::vector<Ap> aps;
  for (std::size_t i = 0; i < n; ++i) {
    aps.push_back({static_cast<ApId>(i), spacing * static_cast<double>(i % 4),
                   spacing * static_cast<double>(i / 4)});
  }
  NetworkInfo info;
  info.id = 9;
  return MeshNetwork(info, aps);
}

struct KernelCase {
  Standard standard;
  Environment env;
  double spacing_m;

  std::string name() const {
    return std::string(standard == Standard::kBg ? "bg" : "n") +
           (env == Environment::kIndoor ? "_indoor" : "_outdoor");
  }
  // Test names and failure messages print the case by name, not by bytes.
  friend void PrintTo(const KernelCase& kc, std::ostream* os) {
    *os << kc.name();
  }
};

class SampleRound : public ::testing::TestWithParam<KernelCase> {};

TEST_P(SampleRound, EqualsPerSlotSampleProbeOverFourHundredRounds) {
  constexpr int kRounds = 400;
  constexpr double kInterval = 40.0;
  const KernelCase kc = GetParam();
  ChannelParams params = channel_params_for(kc.env);
  // Frequent bursts and many disturbed links so both paths are exercised.
  params.interference_rate_hz = 1.0 / 600.0;
  params.disturbed_link_prob = 0.3;
  const MeshNetwork net = grid_network(12, kc.spacing_m);
  const double duration = kRounds * kInterval;

  Rng fast_rng(0xabcdef + static_cast<int>(kc.standard));
  Rng ref_rng = fast_rng;
  ChannelModel fast(net, kc.standard, params, duration, fast_rng);
  ChannelModel ref(net, kc.standard, params, duration, ref_rng);
  ASSERT_FALSE(fast.links().empty());

  bool any_disturbed = false;
  for (const LinkChannel& lc : fast.links()) {
    any_disturbed |= lc.slow_sigma_db > params.slow_sigma_db;
  }
  EXPECT_TRUE(any_disturbed);

  const std::size_t n_rates = probed_rates(kc.standard).size();
  const std::size_t n_slots = fast.links().size() * n_rates;
  const std::size_t capacity = 20;
  std::vector<ProbeOutcomeWindow> fast_windows(n_slots,
                                               ProbeOutcomeWindow(capacity));
  std::vector<ProbeOutcomeWindow> ref_windows = fast_windows;
  std::vector<float> fast_snr(n_slots, kNoSnr);
  std::vector<float> ref_snr(n_slots, kNoSnr);

  int rounds_with_interference = 0;
  std::size_t delivered = 0;
  for (int round = 1; round <= kRounds; ++round) {
    const double t = round * kInterval;
    fast.advance_slow_fading(kInterval, fast_rng);
    ref.advance_slow_fading(kInterval, ref_rng);

    fast.sample_round(t, fast_windows, fast_snr, fast_rng);
    for (std::size_t li = 0; li < ref.links().size(); ++li) {
      for (std::size_t ri = 0; ri < n_rates; ++ri) {
        const auto o =
            ref.sample_probe(li, static_cast<RateIndex>(ri), t, ref_rng);
        const std::size_t slot = li * n_rates + ri;
        ref_windows[slot].push(o.delivered);
        if (o.delivered) ref_snr[slot] = o.reported_snr_db;
        delivered += o.delivered;
      }
    }

    bool interfered = false;
    for (std::size_t node = 0; node < net.size(); ++node) {
      interfered |= ref.interference_db(static_cast<ApId>(node), t) > 0.0;
    }
    rounds_with_interference += interfered;

    ASSERT_TRUE(fast_rng.engine() == ref_rng.engine()) << "round " << round;
    for (std::size_t slot = 0; slot < n_slots; ++slot) {
      ASSERT_EQ(fast_windows[slot].samples(), ref_windows[slot].samples());
      ASSERT_EQ(fast_windows[slot].received(), ref_windows[slot].received())
          << "round " << round << " slot " << slot;
      ASSERT_TRUE(same_bits(fast_snr[slot], ref_snr[slot]))
          << "round " << round << " slot " << slot;
    }
  }
  EXPECT_GT(rounds_with_interference, kRounds / 10);
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, n_slots * kRounds);  // some probes are lost, too
  EXPECT_EQ(fast_rng.next_u64(), ref_rng.next_u64());
}

INSTANTIATE_TEST_SUITE_P(
    BgAndNIndoorAndOutdoor, SampleRound,
    ::testing::Values(KernelCase{Standard::kBg, Environment::kIndoor, 30.0},
                      KernelCase{Standard::kN, Environment::kIndoor, 30.0},
                      KernelCase{Standard::kBg, Environment::kOutdoor, 90.0},
                      KernelCase{Standard::kN, Environment::kOutdoor, 90.0}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return info.param.name();
    });

// --- Loss window ----------------------------------------------------------

TEST(ProbeOutcomeWindow, MatchesAPlainRingAtCapacities1And20And64) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{20},
                                     std::size_t{64}}) {
    ProbeOutcomeWindow w(capacity);
    std::deque<bool> ring;
    EXPECT_EQ(w.samples(), 0u);
    EXPECT_EQ(w.loss(), 1.0);
    std::mt19937_64 gen(capacity);
    for (int i = 0; i < 400; ++i) {
      // Runs of all-lost and all-delivered, then a mix.
      const bool delivered = i < 100 ? false : i < 200 ? true : (gen() & 1);
      w.push(delivered);
      ring.push_back(delivered);
      if (ring.size() > capacity) ring.pop_front();
      std::size_t received = 0;
      for (bool b : ring) received += b;
      ASSERT_EQ(w.samples(), ring.size()) << capacity << " @" << i;
      ASSERT_EQ(w.received(), received) << capacity << " @" << i;
      const double loss =
          1.0 - static_cast<double>(received) /
                    static_cast<double>(ring.size());
      ASSERT_TRUE(same_bits(w.loss(), loss)) << capacity << " @" << i;
    }
  }
}

TEST(ProbeOutcomeWindow, RejectsCapacitiesOutsideOneToSixtyFour) {
  EXPECT_THROW((void)ProbeOutcomeWindow(0), std::invalid_argument);
  EXPECT_THROW((void)ProbeOutcomeWindow(65), std::invalid_argument);
  EXPECT_NO_THROW((void)ProbeOutcomeWindow(64));
}

TEST(NetworkProbeStream, ThrowsWhenTheWindowExceedsSixtyFourProbes) {
  const MeshNetwork net = grid_network(3, 30.0);
  ProbeSimParams p;
  p.duration_s = 400.0;
  p.window_s = 64.4 * p.probe_interval_s;  // rounds to 64: fits
  EXPECT_NO_THROW(NetworkProbeStream(net, Standard::kBg,
                                     indoor_channel_params(), p, Rng(1)));
  p.window_s = 64.6 * p.probe_interval_s;  // rounds to 65
  EXPECT_THROW(NetworkProbeStream(net, Standard::kBg, indoor_channel_params(),
                                  p, Rng(1)),
               std::invalid_argument);
  p.window_s = 1600.0;  // the largest setting the window ablation sweeps
  EXPECT_NO_THROW(NetworkProbeStream(net, Standard::kBg,
                                     indoor_channel_params(), p, Rng(1)));
}

}  // namespace
}  // namespace wmesh
