// The parallel sweep runner must be a pure wall-clock optimization: every
// index runs exactly once, and a multi-threaded sweep produces results
// identical to the single-threaded one (each point owns its device + RNG).
#include "harness/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "harness/experiments.h"
#include "sim/profiles.h"
#include "util/bytes.h"

namespace damkit::harness {
namespace {

TEST(ParallelSweepTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> counts(n);
  parallel_sweep(n, 8, [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ParallelSweepTest, ZeroAndSingleThreadDegenerate) {
  std::vector<int> hits(4, 0);
  parallel_sweep(0, 4, [&](size_t) { FAIL() << "no work expected"; });
  parallel_sweep(hits.size(), 1, [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelSweepTest, NodesizeSweepIdenticalAcrossThreadCounts) {
  SweepConfig cfg;
  cfg.kind = kv::EngineKind::kBTree;
  cfg.node_sizes = {16 * kKiB, 64 * kKiB, 256 * kKiB, 1 * kMiB};
  cfg.items = 40000;
  cfg.queries = 60;
  cfg.inserts = 60;
  cfg.threads = 1;
  const auto serial = run_nodesize_sweep(sim::testbed_hdd_profile(), cfg);
  cfg.threads = 4;
  const auto parallel = run_nodesize_sweep(sim::testbed_hdd_profile(), cfg);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].node_bytes, parallel.points[i].node_bytes);
    EXPECT_EQ(serial.points[i].query_ms, parallel.points[i].query_ms) << i;
    EXPECT_EQ(serial.points[i].query_io_bytes,
              parallel.points[i].query_io_bytes)
        << i;
    EXPECT_EQ(serial.points[i].insert_ms, parallel.points[i].insert_ms) << i;
    EXPECT_EQ(serial.points[i].write_amp, parallel.points[i].write_amp) << i;
    EXPECT_EQ(serial.points[i].cache_hit_rate,
              parallel.points[i].cache_hit_rate)
        << i;
    EXPECT_EQ(serial.points[i].height, parallel.points[i].height) << i;
  }
  ASSERT_EQ(serial.affine_query_ms.size(), parallel.affine_query_ms.size());
  for (size_t i = 0; i < serial.affine_query_ms.size(); ++i) {
    EXPECT_EQ(serial.affine_query_ms[i], parallel.affine_query_ms[i]) << i;
    EXPECT_EQ(serial.affine_insert_ms[i], parallel.affine_insert_ms[i]) << i;
  }
}

TEST(ParallelSweepTest, AffineExperimentIdenticalAcrossThreadCounts) {
  const auto hdd = sim::testbed_hdd_profile();
  AffineExperimentConfig cfg;
  cfg.reads_per_size = 16;
  cfg.threads = 1;
  const auto serial = run_affine_experiment(hdd, cfg);
  cfg.threads = 8;
  const auto parallel = run_affine_experiment(hdd, cfg);

  ASSERT_EQ(serial.samples.size(), parallel.samples.size());
  for (size_t i = 0; i < serial.samples.size(); ++i) {
    EXPECT_EQ(serial.samples[i].io_bytes, parallel.samples[i].io_bytes);
    EXPECT_EQ(serial.samples[i].seconds, parallel.samples[i].seconds) << i;
  }
  EXPECT_EQ(serial.fit.s, parallel.fit.s);
  EXPECT_EQ(serial.fit.t_per_4k, parallel.fit.t_per_4k);
  EXPECT_EQ(serial.fit.r2, parallel.fit.r2);
}

}  // namespace
}  // namespace damkit::harness
