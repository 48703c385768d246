#include "sim/closed_loop.h"

#include <gtest/gtest.h>

#include "sim/ssd.h"
#include "util/bytes.h"

namespace damkit::sim {
namespace {

SsdConfig ssd_config(int channels, int dies_per_channel) {
  SsdConfig cfg;
  cfg.capacity_bytes = 8ULL * kGiB;
  cfg.channels = channels;
  cfg.dies_per_channel = dies_per_channel;
  cfg.page_bytes = 4096;
  cfg.stripe_bytes = 64 * kKiB;
  cfg.page_read_s = 50e-6;
  cfg.bus_s_per_page = 2e-6;
  cfg.command_overhead_s = 10e-6;
  return cfg;
}

TEST(ClosedLoopTest, CompletesAllIos) {
  SsdDevice dev(ssd_config(2, 2));
  ClosedLoopConfig cl;
  cl.clients = 4;
  cl.ios_per_client = 100;
  cl.io_bytes = 64 * kKiB;
  const ClosedLoopResult r = run_closed_loop(dev, cl);
  EXPECT_EQ(r.total_ios, 400u);
  EXPECT_EQ(r.total_bytes, 400u * 64 * kKiB);
  EXPECT_EQ(r.latency.count(), 400u);
  EXPECT_GT(r.makespan, 0u);
}

TEST(ClosedLoopTest, DeterministicForSeed) {
  ClosedLoopConfig cl;
  cl.clients = 3;
  cl.ios_per_client = 50;
  cl.io_bytes = 64 * kKiB;
  cl.seed = 77;
  SsdDevice a(ssd_config(2, 2));
  SsdDevice b(ssd_config(2, 2));
  EXPECT_EQ(run_closed_loop(a, cl).makespan, run_closed_loop(b, cl).makespan);
}

TEST(ClosedLoopTest, ParallelClientsBeatSerialOnSsd) {
  ClosedLoopConfig cl;
  cl.io_bytes = 64 * kKiB;
  cl.ios_per_client = 200;
  cl.clients = 1;
  SsdDevice one(ssd_config(2, 2));
  const double t1 = to_seconds(run_closed_loop(one, cl).makespan);
  cl.clients = 4;
  cl.ios_per_client = 50;  // same total work
  SsdDevice four(ssd_config(2, 2));
  const double t4 = to_seconds(run_closed_loop(four, cl).makespan);
  EXPECT_LT(t4, t1 * 0.5);  // 4 dies absorb 4 clients
}

TEST(ClosedLoopTest, BeyondParallelismScalesLinearly) {
  // Same per-client work; time should grow ~linearly once p >> P (=4).
  ClosedLoopConfig cl;
  cl.io_bytes = 64 * kKiB;
  cl.ios_per_client = 64;
  cl.clients = 16;
  SsdDevice d16(ssd_config(2, 2));
  const double t16 = to_seconds(run_closed_loop(d16, cl).makespan);
  cl.clients = 32;
  SsdDevice d32(ssd_config(2, 2));
  const double t32 = to_seconds(run_closed_loop(d32, cl).makespan);
  EXPECT_NEAR(t32 / t16, 2.0, 0.3);
}

TEST(ClosedLoopTest, ThroughputConsistentWithMakespan) {
  SsdDevice dev(ssd_config(2, 2));
  ClosedLoopConfig cl;
  cl.clients = 2;
  cl.ios_per_client = 100;
  cl.io_bytes = 64 * kKiB;
  const ClosedLoopResult r = run_closed_loop(dev, cl);
  EXPECT_NEAR(r.throughput_bps(),
              static_cast<double>(r.total_bytes) / to_seconds(r.makespan),
              1.0);
}

TEST(ClosedLoopDeathTest, RejectsBadConfig) {
  SsdDevice dev(ssd_config(1, 1));
  ClosedLoopConfig cl;
  cl.clients = 0;
  EXPECT_DEATH(run_closed_loop(dev, cl), "");
}

}  // namespace
}  // namespace damkit::sim
