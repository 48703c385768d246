// serve::replay behind WorkloadRunner::run_concurrent: the record/replay
// split must keep a k-client run bit-identical to the single-client
// reference (digest, counters, serial time), while the replayed concurrent
// timeline is deterministic, faster when the device has parallelism to
// exploit, and falls back to the serial makespan when no replay device is
// supplied.
#include "serve/scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness/workload_runner.h"
#include "kv/engine.h"
#include "sim/mq_ssd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bytes.h"

namespace damkit {
namespace {

// The cache must be small against the working set: a replay test where
// every op hits cache has nothing to overlap in replay.
kv::EngineConfig small_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 32 * kKiB;
  return cfg;
}

kv::WorkloadSpec mixed_spec() {
  kv::WorkloadSpec spec;
  spec.key_space = 6000;
  spec.value_bytes = 48;
  spec.get_weight = 0.4;
  spec.put_weight = 0.4;
  spec.delete_weight = 0.05;
  spec.scan_weight = 0.05;
  spec.upsert_weight = 0.1;
  spec.scan_length = 25;
  spec.seed = 909;
  return spec;
}

harness::ConcurrentRunOptions replayed_config(uint64_t clients,
                                              uint64_t inflight = 4) {
  harness::ConcurrentRunOptions cfg;
  cfg.clients = clients;
  cfg.inflight = inflight;
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  cfg.replay_device_factory = [profile]() -> std::unique_ptr<sim::Device> {
    return std::make_unique<sim::SsdDevice>(profile);
  };
  cfg.lanes = static_cast<size_t>(profile.total_dies());
  cfg.lane_of = [profile](uint64_t offset) {
    return static_cast<size_t>(profile.die_of(offset));
  };
  return cfg;
}

using Served = harness::ConcurrentRunResult;

Served serve_once(const harness::ConcurrentRunOptions& cfg, uint64_t ops) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict =
      kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  harness::WorkloadRunner runner(*dict, io);
  runner.bulk_load(1500, mixed_spec());
  return runner.run_concurrent(mixed_spec(), ops, cfg);
}

TEST(SchedulerTest, KClientDigestEqualsSingleClientReference) {
  const Served one = serve_once(replayed_config(1), 2000);
  const Served eight = serve_once(replayed_config(8), 2000);
  EXPECT_EQ(eight.base.digest, one.base.digest);
  EXPECT_EQ(eight.serial_elapsed, one.serial_elapsed);
  EXPECT_EQ(eight.base.gets, one.base.gets);
  EXPECT_EQ(eight.base.puts, one.base.puts);
  EXPECT_EQ(eight.base.get_hits, one.base.get_hits);
  EXPECT_EQ(eight.base.ops(), 2000u);
}

TEST(SchedulerTest, ServeIsDeterministic) {
  const Served a = serve_once(replayed_config(8), 2000);
  const Served b = serve_once(replayed_config(8), 2000);
  EXPECT_EQ(a.base.digest, b.base.digest);
  EXPECT_EQ(a.serial_elapsed, b.serial_elapsed);
  EXPECT_EQ(a.concurrent_elapsed, b.concurrent_elapsed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.batch_ios, b.batch_ios);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.percentile(99.0), b.latency.percentile(99.0));
}

TEST(SchedulerTest, ParallelDeviceShortensTheConcurrentMakespan) {
  const Served one = serve_once(replayed_config(1), 2000);
  const Served eight = serve_once(replayed_config(8), 2000);
  EXPECT_LT(eight.concurrent_elapsed, one.concurrent_elapsed);
  EXPECT_GT(eight.speedup(), 1.0);
  // Every op's latency is observed exactly once.
  EXPECT_EQ(eight.latency.count(), 2000u);
}

TEST(SchedulerTest, DeeperAdmissionNeverSlowsTheReplay) {
  const Served shallow = serve_once(replayed_config(4, 1), 2000);
  const Served deep = serve_once(replayed_config(4, 8), 2000);
  EXPECT_LE(deep.concurrent_elapsed, shallow.concurrent_elapsed);
}

TEST(SchedulerTest, WithoutReplayDeviceConcurrentEqualsSerial) {
  harness::ConcurrentRunOptions cfg;
  cfg.clients = 4;
  const Served result = serve_once(cfg, 1000);
  EXPECT_EQ(result.concurrent_elapsed, result.serial_elapsed);
  EXPECT_DOUBLE_EQ(result.speedup(), 1.0);
  EXPECT_EQ(result.batches, 0u);
}

TEST(SchedulerTest, LaneAccountingIsConserved) {
  const Served result = serve_once(replayed_config(8), 2000);
  uint64_t lane_total = 0;
  for (const uint64_t n : result.lane_ios) lane_total += n;
  EXPECT_EQ(lane_total, result.batch_ios);
  EXPECT_GT(result.batch_ios, 0u);
  EXPECT_GE(result.max_lane_depth, 1u);
  EXPECT_EQ(result.lane_ios.size(),
            static_cast<size_t>(sim::testbed_ssd_profile().total_dies()));
}

// Replay-device spy: forwards timing to an owned MqSsdDevice while
// tallying which SQ/CQ pair each request named, into shared state that
// outlives the device (the replay destroys its device before it returns).
class QueueSpyDevice final : public sim::Device {
 public:
  QueueSpyDevice(const sim::SsdConfig& cfg,
                 std::shared_ptr<std::map<uint32_t, uint64_t>> counts)
      : sim::Device(cfg.capacity_bytes),
        inner_(cfg),
        counts_(std::move(counts)) {}
  std::string name() const override { return inner_.name(); }

 protected:
  sim::IoCompletion submit_io(const sim::IoRequest& req,
                              sim::SimTime now) override {
    ++(*counts_)[req.queue];
    return inner_.submit(req, now);
  }
  std::vector<sim::IoCompletion> submit_batch_io(
      std::span<const sim::IoRequest> reqs, sim::SimTime now) override {
    for (const sim::IoRequest& req : reqs) ++(*counts_)[req.queue];
    return inner_.submit_batch(reqs, now);
  }

 private:
  sim::MqSsdDevice inner_;
  std::shared_ptr<std::map<uint32_t, uint64_t>> counts_;
};

// Clients must map onto the MQ device's queue pairs: with k clients
// replaying onto an MqSsdDevice, every request carries its owning
// client's id in IoRequest::queue, so all k pairs see traffic — not one
// shared SQ.
TEST(SchedulerTest, SessionsLandOnDistinctMqQueuePairs) {
  const sim::SsdConfig profile = sim::testbed_mq_profile();
  const auto counts = std::make_shared<std::map<uint32_t, uint64_t>>();
  harness::ConcurrentRunOptions cfg;
  cfg.clients = 4;
  cfg.replay_device_factory = [profile,
                               counts]() -> std::unique_ptr<sim::Device> {
    return std::make_unique<QueueSpyDevice>(profile, counts);
  };
  cfg.lanes = static_cast<size_t>(profile.total_dies());
  cfg.lane_of = [profile](uint64_t offset) {
    return static_cast<size_t>(profile.die_of(offset));
  };
  const Served result = serve_once(cfg, 2000);
  EXPECT_GT(result.batch_ios, 0u);
  EXPECT_EQ(counts->size(), 4u) << "expected one queue id per client";
  uint64_t total = 0;
  for (const auto& [queue, ios] : *counts) {
    EXPECT_LT(queue, 4u);
    EXPECT_GT(ios, 0u) << "queue pair " << queue << " saw no traffic";
    total += ios;
  }
  EXPECT_EQ(total, result.batch_ios);
}

TEST(SchedulerTest, ExportMetricsCoversTheServingSurface) {
  const Served result = serve_once(replayed_config(8), 1000);
  stats::MetricsRegistry reg;
  result.export_metrics(reg, "serve.");
  EXPECT_EQ(reg.counter("serve.ops"), 1000u);
  EXPECT_EQ(reg.counter("serve.batches"), result.batches);
  EXPECT_EQ(reg.counter("serve.latency_ns.count"), 1000u);
  EXPECT_GT(reg.gauge("serve.latency_ns.p99"), 0.0);
  EXPECT_GT(reg.gauge("serve.speedup"), 1.0);
  EXPECT_GT(reg.gauge("serve.throughput_ops_per_sec"), 0.0);
}

}  // namespace
}  // namespace damkit
