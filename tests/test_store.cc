// Test wall for wmesh::store (WSNAP).
//
// Own binary (wmesh_store_tests) so the asan_store_smoke ctest case can
// rebuild just it under AddressSanitizer, and so the StoreFuzz suite can be
// invoked as its own ctest case (store_fuzz_smoke).
//
// Pillars:
//   * losslessness -- CSV -> WSNAP -> CSV over the checked-in golden
//     snapshot is byte-identical, NaN SNR sentinels included;
//   * report equality -- every analysis over the WSNAP encoding matches
//     tests/golden/expected_<name>.txt at 1 and 8 threads;
//   * determinism -- encode and decode are byte-identical across thread
//     counts, and across writer chunk sizes;
//   * fail-closed corruption handling -- truncation, bad magic, version
//     skew, flag skew, flipped payload bytes and a seeded random-mutation
//     fuzz loop must never crash and never return a partial Dataset.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.h"
#include "obs/metrics.h"
#include "par/thread_pool.h"
#include "store/wsnap.h"
#include "trace/io.h"

#ifndef WMESH_TEST_DATA_DIR
#error "WMESH_TEST_DATA_DIR must point at tests/golden (set by CMake)"
#endif

namespace wmesh {
namespace {

std::string data_dir() { return WMESH_TEST_DATA_DIR; }

// ctest runs each test in its own process, possibly concurrently; temp
// files must be process-unique or one process truncates a .wsnap another
// has mmap'd (SIGBUS).
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/wmesh_store_" + std::to_string(::getpid()) +
         "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing file: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << "cannot write " << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const Dataset& golden_dataset() {
  static const Dataset ds = [] {
    Dataset d;
    const bool ok = load_dataset(data_dir() + "/golden", &d,
                                 SnapshotFormat::kCsv);
    EXPECT_TRUE(ok) << "cannot load " << data_dir() << "/golden.probes.csv";
    return d;
  }();
  return ds;
}

// Pristine WSNAP encoding of the golden snapshot, written once.
const std::string& golden_wsnap_path() {
  static const std::string path = [] {
    const std::string p = temp_path("golden.wsnap");
    std::string err;
    EXPECT_TRUE(store::save_wsnap(golden_dataset(), p, &err)) << err;
    return p;
  }();
  return path;
}

// Dataset equality via the canonical CSV bytes: saves both to temp prefixes
// and compares the files.  Catches every field the format stores, in order.
void expect_datasets_identical(const Dataset& a, const Dataset& b,
                               const std::string& tag) {
  const std::string pa = temp_path("eq_a_" + tag);
  const std::string pb = temp_path("eq_b_" + tag);
  ASSERT_TRUE(save_dataset(a, pa, SnapshotFormat::kCsv));
  ASSERT_TRUE(save_dataset(b, pb, SnapshotFormat::kCsv));
  EXPECT_EQ(slurp(pa + ".probes.csv"), slurp(pb + ".probes.csv")) << tag;
  EXPECT_EQ(slurp(pa + ".clients.csv"), slurp(pb + ".clients.csv")) << tag;
}

std::uint64_t counter(const std::string& name) {
  for (const auto& c : obs::Registry::instance().snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// --- losslessness ---------------------------------------------------------

TEST(StoreRoundTrip, CsvToWsnapToCsvByteIdentical) {
  Dataset reloaded;
  std::string err;
  ASSERT_TRUE(store::load_wsnap(golden_wsnap_path(), &reloaded, &err)) << err;

  const std::string prefix = temp_path("roundtrip");
  ASSERT_TRUE(save_dataset(reloaded, prefix, SnapshotFormat::kCsv));
  EXPECT_EQ(slurp(prefix + ".probes.csv"),
            slurp(data_dir() + "/golden.probes.csv"))
      << "CSV -> WSNAP -> CSV is not lossless";
  EXPECT_EQ(slurp(prefix + ".clients.csv"),
            slurp(data_dir() + "/golden.clients.csv"));
}

TEST(StoreRoundTrip, NanSnrSentinelsSurvive) {
  // The golden snapshot contains probe entries whose SNR is the kNoSnr NaN
  // sentinel; WSNAP must store and return them as NaN, not 0 or garbage.
  Dataset reloaded;
  ASSERT_TRUE(store::load_wsnap(golden_wsnap_path(), &reloaded));
  std::size_t nans = 0, finite = 0;
  for (const auto& nt : reloaded.networks) {
    for (const auto& set : nt.probe_sets) {
      for (const auto& e : set.entries) {
        (std::isnan(e.snr_db) ? nans : finite)++;
      }
    }
  }
  EXPECT_GT(nans, 0u) << "golden snapshot lost its NaN sentinels";
  EXPECT_GT(finite, 0u);
}

TEST(StoreRoundTrip, InspectCountsMatchDataset) {
  store::WsnapInfo info;
  std::string err;
  ASSERT_TRUE(store::inspect_wsnap(golden_wsnap_path(), &info, &err)) << err;

  const Dataset& ds = golden_dataset();
  std::uint64_t sets = 0, entries = 0, clients = 0;
  for (const auto& nt : ds.networks) {
    sets += nt.probe_sets.size();
    for (const auto& set : nt.probe_sets) entries += set.entries.size();
    clients += nt.client_samples.size();
  }
  EXPECT_EQ(info.version, store::kVersion);
  EXPECT_EQ(info.networks, ds.networks.size());
  EXPECT_EQ(info.probe_sets, sets);
  EXPECT_EQ(info.probe_entries, entries);
  EXPECT_EQ(info.client_samples, clients);
  EXPECT_EQ(info.file_bytes, std::filesystem::file_size(golden_wsnap_path()));
  EXPECT_GT(info.payload_bytes, 0u);
  EXPECT_LT(info.payload_bytes, info.file_bytes);
}

// --- golden report equality over WSNAP ------------------------------------

// The analysis name is a std::string, not a const char*: gtest prints a
// char pointer's address into the listed test name, and an address that
// moves with each run would give the case a different name every time.
class StoreGoldenReport
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(StoreGoldenReport, MatchesCheckedInTextOverWsnap) {
  const auto [name, threads] = GetParam();
  par::set_default_threads(static_cast<std::size_t>(threads));
  Dataset ds;
  std::string err;
  ASSERT_TRUE(store::load_wsnap(golden_wsnap_path(), &ds, &err)) << err;
  const std::string got = run_report(ds, name);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got, slurp(data_dir() + "/expected_" + name + ".txt"))
      << "analysis '" << name << "' over WSNAP at " << threads
      << " thread(s) diverged from the CSV-derived golden text";
  par::set_default_threads(1);
}

INSTANTIATE_TEST_SUITE_P(
    AllAnalyses, StoreGoldenReport,
    ::testing::Combine(::testing::Values("snr", "lookup", "routing", "hidden",
                                         "mobility", "traffic", "etx"),
                       ::testing::Values(1, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// --- determinism ----------------------------------------------------------

TEST(StoreDeterminism, SaveByteIdenticalAcrossThreadCounts) {
  const std::string p1 = temp_path("det_t1.wsnap");
  const std::string p8 = temp_path("det_t8.wsnap");
  par::set_default_threads(1);
  ASSERT_TRUE(store::save_wsnap(golden_dataset(), p1));
  par::set_default_threads(8);
  ASSERT_TRUE(store::save_wsnap(golden_dataset(), p8));
  par::set_default_threads(1);
  EXPECT_EQ(slurp(p1), slurp(p8))
      << "WSNAP encode depends on the thread count";
}

TEST(StoreDeterminism, LoadIdenticalAcrossThreadCounts) {
  Dataset d1, d8;
  par::set_default_threads(1);
  ASSERT_TRUE(store::load_wsnap(golden_wsnap_path(), &d1));
  par::set_default_threads(8);
  ASSERT_TRUE(store::load_wsnap(golden_wsnap_path(), &d8));
  par::set_default_threads(1);
  expect_datasets_identical(d1, d8, "threads");
}

TEST(StoreDeterminism, ChunkedWriterDecodesIdentically) {
  // Stream the golden dataset through a writer with a tiny chunk size: the
  // file layout differs (many chunks) but the decode must be identical.
  const std::string path = temp_path("chunked.wsnap");
  {
    store::WsnapWriter::Options opts;
    opts.chunk_rows = 256;
    store::WsnapWriter w(path, opts);
    for (const auto& nt : golden_dataset().networks) {
      ASSERT_TRUE(w.begin_network(nt.info, nt.ap_count));
      for (const auto& set : nt.probe_sets) ASSERT_TRUE(w.add_probe_set(set));
      for (const auto& s : nt.client_samples) {
        ASSERT_TRUE(w.add_client_sample(s));
      }
    }
    ASSERT_TRUE(w.finish()) << w.error();
  }

  store::WsnapInfo info;
  ASSERT_TRUE(store::inspect_wsnap(path, &info));
  EXPECT_GT(info.chunk_count, 1u) << "chunk_rows=256 should force chunking";

  Dataset chunked, whole;
  ASSERT_TRUE(store::load_wsnap(path, &chunked));
  ASSERT_TRUE(store::load_wsnap(golden_wsnap_path(), &whole));
  expect_datasets_identical(chunked, whole, "chunked");
}

// --- fail-closed corruption handling --------------------------------------

// Expects load_wsnap to fail with a diagnostic naming the file.
void expect_load_fails(const std::string& path, const std::string& tag) {
  Dataset ds;
  std::string err;
  EXPECT_FALSE(store::load_wsnap(path, &ds, &err)) << tag;
  EXPECT_FALSE(err.empty()) << tag << ": failure must carry a diagnostic";
  EXPECT_NE(err.find(path), std::string::npos)
      << tag << ": diagnostic must name the file, got: " << err;
}

TEST(StoreCorruption, MissingFileFailsClosed) {
  expect_load_fails(temp_path("does_not_exist.wsnap"),
                    "missing file");
}

TEST(StoreCorruption, TruncationFailsClosedAtEveryLayer) {
  const std::string pristine = slurp(golden_wsnap_path());
  const std::string path = temp_path("trunc.wsnap");
  // Cut inside the header, the column payload, the footer, and the trailer.
  const std::size_t cuts[] = {0, 7, store::kHeaderBytes,
                              pristine.size() / 2, pristine.size() - 40,
                              pristine.size() - 1};
  for (const std::size_t cut : cuts) {
    spit(path, pristine.substr(0, cut));
    expect_load_fails(path, "truncated to " + std::to_string(cut) + " bytes");
  }
}

TEST(StoreCorruption, BadMagicFailsClosed) {
  std::string bytes = slurp(golden_wsnap_path());
  bytes[0] ^= 0xff;
  const std::string path = temp_path("badmagic.wsnap");
  spit(path, bytes);
  Dataset ds;
  std::string err;
  EXPECT_FALSE(store::load_wsnap(path, &ds, &err));
  EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST(StoreCorruption, FutureVersionFailsClosed) {
  std::string bytes = slurp(golden_wsnap_path());
  bytes[4] = 99;  // FileHeader.version lives at offset 4 (u16 LE)
  bytes[5] = 0;
  const std::string path = temp_path("version.wsnap");
  spit(path, bytes);
  Dataset ds;
  std::string err;
  EXPECT_FALSE(store::load_wsnap(path, &ds, &err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(StoreCorruption, UnknownFlagsFailClosed) {
  std::string bytes = slurp(golden_wsnap_path());
  bytes[6] = static_cast<char>(0xff);  // FileHeader.flags at offset 6
  const std::string path = temp_path("flags.wsnap");
  spit(path, bytes);
  expect_load_fails(path, "unknown flags");
}

TEST(StoreCorruption, FlippedPayloadByteFailsChecksum) {
  std::string bytes = slurp(golden_wsnap_path());
  bytes[bytes.size() / 2] ^= 0x01;  // somewhere inside the column payload
  const std::string path = temp_path("bitflip.wsnap");
  spit(path, bytes);

  const std::uint64_t failures_before = counter("store.checksum_failures");
  Dataset ds;
  std::string err;
  EXPECT_FALSE(store::load_wsnap(path, &ds, &err));
  EXPECT_FALSE(err.empty());
#if !defined(WMESH_OBS_DISABLED)
  EXPECT_GT(counter("store.checksum_failures"), failures_before)
      << "a corrupt block must bump store.checksum_failures";
#else
  (void)failures_before;
#endif
}

TEST(StoreCorruption, CorruptTrailerFailsClosed) {
  std::string bytes = slurp(golden_wsnap_path());
  bytes[bytes.size() - 1] ^= 0xff;  // end magic
  const std::string path = temp_path("trailer.wsnap");
  spit(path, bytes);
  expect_load_fails(path, "corrupt trailer");
}

// --- fuzz smoke (also registered as the store_fuzz_smoke ctest case) ------

TEST(StoreFuzz, SeededRandomMutationsNeverCrash) {
  const std::string pristine = slurp(golden_wsnap_path());
  ASSERT_FALSE(pristine.empty());
  const std::string path = temp_path("fuzz.wsnap");

  std::mt19937 rng(0xC0FFEEu);  // fixed seed: failures must reproduce
  std::uniform_int_distribution<std::size_t> pos(0, pristine.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> flips(1, 4);

  for (int iter = 0; iter < 100; ++iter) {
    std::string bytes = pristine;
    if (iter % 5 == 4) {
      bytes.resize(pos(rng));  // every fifth case: random truncation
    } else {
      const int n = flips(rng);
      for (int f = 0; f < n; ++f) {
        bytes[pos(rng)] = static_cast<char>(byte(rng));
      }
    }
    spit(path, bytes);

    // Must never crash, hang, or return a half-filled Dataset.  A mutation
    // that misses every checksummed/validated byte may legitimately still
    // load; a failed load must carry a diagnostic.
    Dataset ds;
    std::string err;
    const bool ok = store::load_wsnap(path, &ds, &err);
    if (!ok) {
      EXPECT_FALSE(err.empty()) << "iteration " << iter;
      EXPECT_TRUE(ds.networks.empty() ||
                  ds.networks.size() == golden_dataset().networks.size())
          << "iteration " << iter << ": partial dataset escaped";
    }
  }
}

}  // namespace
}  // namespace wmesh
