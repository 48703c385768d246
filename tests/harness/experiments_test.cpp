// Reduced-scale versions of the paper's experiments asserting the
// *qualitative* results: model fit quality, knee positions, node-size
// sensitivity shapes, and write-amplification separation.
#include "harness/experiments.h"

#include <gtest/gtest.h>

#include <cmath>

#include "model/mq.h"
#include "sim/profiles.h"
#include "util/bytes.h"

namespace damkit::harness {
namespace {

TEST(AffineExperimentTest, Table2RowForOneDisk) {
  const auto hdd = sim::paper_hdd_profiles()[3];  // 1 TB WD Black 2011
  AffineExperimentConfig cfg;
  cfg.reads_per_size = 32;
  const auto res = run_affine_experiment(hdd, cfg);
  // The affine model is an excellent fit (paper: R² within 0.1% of 1).
  EXPECT_GT(res.fit.r2, 0.995);
  // Recovered parameters near Table 2 targets: s = 0.012, t = 35 us/4K.
  EXPECT_NEAR(res.fit.s, 0.012, 0.012 * 0.2);
  EXPECT_NEAR(res.fit.t_per_4k, 0.000035, 0.000035 * 0.2);
}

TEST(AffineExperimentTest, SamplesGrowWithIoSize) {
  const auto hdd = sim::testbed_hdd_profile();
  AffineExperimentConfig cfg;
  cfg.reads_per_size = 64;
  const auto res = run_affine_experiment(hdd, cfg);
  // Below ~256 KiB the seek-time sampling noise (a few ms over 64 random
  // reads) exceeds the transfer-time differences, so strict monotonicity
  // only holds once transfer dominates.
  for (size_t i = 1; i < res.samples.size(); ++i) {
    if (res.samples[i].io_bytes >= 512 * kKiB) {
      EXPECT_GT(res.samples[i].seconds, res.samples[i - 1].seconds);
    }
  }
  // Overall growth from 4 KiB to 16 MiB dwarfs the noise.
  EXPECT_GT(res.samples.back().seconds, res.samples.front().seconds * 5);
}

TEST(PdamExperimentTest, Table1RowForOneSsd) {
  const auto ssd = sim::paper_ssd_profiles()[0];  // Samsung 860 pro, 4 dies
  PdamExperimentConfig cfg;
  cfg.bytes_per_thread = 64ULL * kMiB;  // reduced scale
  const auto res = run_pdam_experiment(ssd, cfg);
  EXPECT_GT(res.fit.r2, 0.98);
  EXPECT_GT(res.fit.p, 2.0);
  EXPECT_LT(res.fit.p, 5.5);
  EXPECT_NEAR(res.fit.saturated_mbps, 530.0, 530.0 * 0.25);
}

TEST(PdamExperimentTest, TimeFlatThenLinear) {
  const auto ssd = sim::paper_ssd_profiles()[2];  // S55, 3 dies
  PdamExperimentConfig cfg;
  cfg.bytes_per_thread = 32ULL * kMiB;
  const auto res = run_pdam_experiment(ssd, cfg);
  // Flat-ish region: time(2)/time(1) well below 2 (parallelism absorbs).
  EXPECT_LT(res.samples[1].seconds / res.samples[0].seconds, 1.5);
  // Linear region: doubling threads doubles time.
  const double tail_ratio = res.samples.back().seconds /
                            res.samples[res.samples.size() - 2].seconds;
  EXPECT_NEAR(tail_ratio, 2.0, 0.25);
}

TEST(MqExperimentTest, MqFitTracksWherePdamMispredicts) {
  // The MQ refit at reduced scale: on the multi-queue testbed the
  // per-client time ratio rises from the very first added client (the
  // inflight penalty), so the PDAM's flat left segment is wrong while the
  // MQ model's linear latency law tracks.
  MqExperimentConfig cfg;
  cfg.client_counts = {1, 2, 4, 8, 16, 32};
  cfg.ios_per_client = 256;
  const auto res = run_mq_experiment(sim::testbed_mq_profile(), cfg);
  ASSERT_EQ(res.samples.size(), 6u);
  ASSERT_EQ(res.pdam_samples.size(), 6u);
  EXPECT_GT(res.fit.l0_s, 0.0);
  EXPECT_GT(res.fit.beta_s, 0.0);
  EXPECT_GT(res.fit.saturated_iops, 0.0);
  EXPECT_GT(res.fit.r2, 0.95);

  const model::MqModel mq(res.fit.l0_s, res.fit.beta_s,
                          res.fit.saturated_iops, cfg.io_bytes);
  for (size_t i = 0; i < res.samples.size(); ++i) {
    const double measured_ratio = res.samples[i].seconds / res.samples[0].seconds;
    const double predicted_ratio =
        mq.predicted_ratio(static_cast<double>(res.samples[i].clients));
    EXPECT_NEAR(predicted_ratio, measured_ratio, measured_ratio * 0.2)
        << "clients=" << res.samples[i].clients;
  }
}

TEST(SweepTest, BTreeCostsRiseWithLargeNodes) {
  // Figure 2 shape at reduced scale: past the optimum, query and insert
  // costs grow roughly linearly with node size.
  SweepConfig cfg;
  cfg.kind = kv::EngineKind::kBTree;
  cfg.node_sizes = {16 * kKiB, 64 * kKiB, 256 * kKiB, 1 * kMiB, 4 * kMiB};
  cfg.items = 250000;  // data ≫ cache even at the largest node size
  cfg.queries = 150;
  cfg.inserts = 150;
  const auto res = run_nodesize_sweep(sim::testbed_hdd_profile(), cfg);
  ASSERT_EQ(res.points.size(), 5u);
  // At this reduced scale the tree is ~1 uncached level deep, so costs
  // track the per-IO affine cost s + tB: 4 MiB nodes are far worse than
  // 16 KiB nodes for point ops, and the growth is monotone past 256 KiB.
  EXPECT_GT(res.points[4].query_ms, res.points[0].query_ms * 1.8);
  EXPECT_GT(res.points[4].insert_ms, res.points[0].insert_ms * 1.5);
  EXPECT_GT(res.points[4].query_ms, res.points[2].query_ms);
  EXPECT_GT(res.points[3].query_ms, res.points[2].query_ms);
  // Overlay exists for every point and is calibrated at the first.
  ASSERT_EQ(res.affine_query_ms.size(), 5u);
  EXPECT_NEAR(res.affine_query_ms[0], res.points[0].query_ms, 1e-9);
}

TEST(SweepTest, BeTreeInsertsFarCheaperThanBTree) {
  SweepConfig b;
  b.kind = kv::EngineKind::kBTree;
  b.node_sizes = {64 * kKiB};
  b.items = 60000;
  b.queries = 100;
  b.inserts = 150;
  const auto bt = run_nodesize_sweep(sim::testbed_hdd_profile(), b);

  SweepConfig be = b;
  be.kind = kv::EngineKind::kBeTree;
  const auto bet = run_nodesize_sweep(sim::testbed_hdd_profile(), be);

  EXPECT_LT(bet.points[0].insert_ms, bt.points[0].insert_ms * 0.5);
}

TEST(SweepTest, BeTreeLessSensitiveToNodeSizeThanBTree) {
  // The paper's central claim (Table 3 / Figures 2-3): growing nodes 16x
  // hurts the B-tree much more than the Bε-tree on inserts.
  const std::vector<uint64_t> sizes{64 * kKiB, 1 * kMiB};
  SweepConfig b;
  b.kind = kv::EngineKind::kBTree;
  b.node_sizes = sizes;
  b.items = 250000;
  b.queries = 100;
  b.inserts = 400;
  const auto bt = run_nodesize_sweep(sim::testbed_hdd_profile(), b);
  SweepConfig be = b;
  be.kind = kv::EngineKind::kBeTree;
  const auto bet = run_nodesize_sweep(sim::testbed_hdd_profile(), be);

  const double btree_growth = bt.points[1].insert_ms / bt.points[0].insert_ms;
  const double betree_growth =
      bet.points[1].insert_ms / bet.points[0].insert_ms;
  EXPECT_LT(betree_growth, btree_growth);
}

TEST(SweepTest, OptBeTreeQueryReadsAreSubNode) {
  // Theorem 9's mechanism: a standard Bε-tree query reads whole nodes,
  // the optimized tree reads one B/F buffer segment, pivots or basement.
  SweepConfig cfg;
  cfg.kind = kv::EngineKind::kBeTree;
  cfg.node_sizes = {1 * kMiB};
  cfg.items = 100000;  // data > cache, so queries reach the device
  cfg.queries = 60;
  cfg.inserts = 10;
  const auto standard = run_nodesize_sweep(sim::testbed_hdd_profile(), cfg);
  cfg.kind = kv::EngineKind::kOptBeTree;
  const auto optimized = run_nodesize_sweep(sim::testbed_hdd_profile(), cfg);

  const double std_io = standard.points[0].query_io_bytes;
  const double opt_io = optimized.points[0].query_io_bytes;
  EXPECT_GT(std_io, 0.5 * static_cast<double>(kMiB));
  EXPECT_LE(std_io, static_cast<double>(kMiB));
  EXPECT_GT(opt_io, 0.0);
  EXPECT_LT(opt_io * 16, std_io);
}

TEST(WriteAmpTest, BTreeAmpGrowsBeTreeStaysLow) {
  WriteAmpConfig cfg;
  cfg.node_sizes = {16 * kKiB, 128 * kKiB};
  cfg.items = 30000;
  cfg.updates = 2000;
  const auto points = run_write_amp_experiment(sim::testbed_hdd_profile(),
                                               cfg);
  ASSERT_EQ(points.size(), 2u);
  // Lemma 3: B-tree write amp scales with B.
  EXPECT_GT(points[1].btree_write_amp, points[0].btree_write_amp * 3.0);
  // Bε-tree write amp far below the B-tree's at large B.
  EXPECT_LT(points[1].betree_write_amp, points[1].btree_write_amp * 0.5);
}

}  // namespace
}  // namespace damkit::harness
