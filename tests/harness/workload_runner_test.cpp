// WorkloadRunner: deterministic generic driving, the byte-exact legacy
// put/get loop, checkpoint retries, and the fault-soak driver on a clean
// device (its faulting behavior is covered by the integration soak).
#include "harness/workload_runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "kv/engine.h"
#include "kv/slice.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "util/bytes.h"
#include "util/table.h"
#include "wal/durable_engine.h"

namespace damkit {
namespace {

kv::EngineConfig small_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 256 * kKiB;
  cfg.betree.node_bytes = 32 * kKiB;
  cfg.betree.cache_bytes = 256 * kKiB;
  cfg.lsm.memtable_bytes = 32 * kKiB;
  cfg.lsm.sstable_target_bytes = 64 * kKiB;
  cfg.pdam.buffer_bytes = 32 * kKiB;
  return cfg;
}

kv::WorkloadSpec mixed_spec() {
  kv::WorkloadSpec spec;
  spec.key_space = 2000;
  spec.value_bytes = 48;
  spec.get_weight = 0.4;
  spec.put_weight = 0.4;
  spec.delete_weight = 0.05;
  spec.scan_weight = 0.05;
  spec.upsert_weight = 0.1;
  spec.scan_length = 25;
  spec.seed = 1234;
  return spec;
}

TEST(WorkloadRunnerTest, RunIsDeterministicForAGivenSpec) {
  const auto run_once = [] {
    sim::SsdDevice dev(sim::testbed_ssd_profile());
    sim::IoContext io(dev);
    const auto dict =
        kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
    harness::WorkloadRunner runner(*dict, io);
    runner.bulk_load(1000, mixed_spec());
    return runner.run(mixed_spec(), 3000);
  };
  const harness::WorkloadRunResult a = run_once();
  const harness::WorkloadRunResult b = run_once();
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.sim_elapsed, b.sim_elapsed);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.puts + a.gets + a.erases + a.scans + a.upserts, 3000u);
  EXPECT_GT(a.get_hits, 0u);
  EXPECT_EQ(a.failed_ops, 0u);
}

TEST(WorkloadRunnerTest, FallibleRunMatchesInfallibleOnCleanDevice) {
  const auto run_once = [](bool fallible) {
    sim::SsdDevice dev(sim::testbed_ssd_profile());
    sim::IoContext io(dev);
    const auto dict =
        kv::make_engine(kv::EngineKind::kBeTree, dev, io, small_config());
    harness::WorkloadRunner runner(*dict, io);
    runner.bulk_load(500, mixed_spec());
    harness::WorkloadRunOptions options;
    options.fallible = fallible;
    return runner.run(mixed_spec(), 2000, options);
  };
  // With no faults, counting failures and aborting on them drive the same
  // try_* calls, so the observable digest agrees.
  const harness::WorkloadRunResult direct = run_once(false);
  const harness::WorkloadRunResult checked = run_once(true);
  EXPECT_EQ(direct.digest, checked.digest);
  EXPECT_EQ(checked.failed_ops, 0u);
}

TEST(WorkloadRunnerTest, RunPutGetCountsHitsAndDrawsDeterministically) {
  const auto run_once = [](bool tolerate_failures) {
    sim::SsdDevice dev(sim::testbed_ssd_profile());
    sim::IoContext io(dev);
    const auto dict =
        kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
    harness::PutGetSpec spec;
    spec.puts = 800;
    spec.gets = 400;
    spec.key_modulus = 500;  // < puts: most gets hit
    spec.value_bytes = 64;
    spec.seed = 42;
    spec.key_of = [](uint64_t id) { return strfmt("key%012llu", id); };
    spec.scans = 1;
    spec.scan_limit = 50;
    spec.tolerate_failures = tolerate_failures;
    const harness::PutGetResult result = harness::run_put_get(*dict, spec);
    return std::make_pair(result, io.now());
  };
  // The loop draws the same RNG stream either way, so the aborting and
  // the counting runs agree on hits and on simulated time (that equality
  // is what lets damkit_cli flip --fault-seed without perturbing the
  // fault-free workload).
  const auto [direct, direct_time] = run_once(false);
  const auto [checked, checked_time] = run_once(true);
  EXPECT_GT(direct.get_hits, 0u);
  EXPECT_EQ(direct.get_hits, checked.get_hits);
  EXPECT_EQ(direct.failed_ops, 0u);
  EXPECT_EQ(checked.failed_ops, 0u);
  EXPECT_EQ(direct_time, checked_time);
}

TEST(WorkloadRunnerTest, RunConcurrentMatchesRunAndAddsTheTimeline) {
  const auto build = [] {
    auto dev = std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
    auto io = std::make_unique<sim::IoContext>(*dev);
    auto dict = kv::make_engine(kv::EngineKind::kBTree, *dev, *io,
                                small_config());
    return std::make_tuple(std::move(dev), std::move(io), std::move(dict));
  };
  auto [ref_dev, ref_io, ref_dict] = build();
  harness::WorkloadRunner ref_runner(*ref_dict, *ref_io);
  ref_runner.bulk_load(1000, mixed_spec());
  const harness::WorkloadRunResult reference =
      ref_runner.run(mixed_spec(), 3000);

  auto [dev, io, dict] = build();
  harness::WorkloadRunner runner(*dict, *io);
  runner.bulk_load(1000, mixed_spec());
  harness::ConcurrentRunOptions copts;
  copts.clients = 4;
  copts.inflight = 2;
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  copts.replay_device_factory = [profile] {
    return std::make_unique<sim::SsdDevice>(profile);
  };
  copts.lanes = static_cast<size_t>(profile.total_dies());
  copts.lane_of = [profile](uint64_t offset) {
    return static_cast<size_t>(profile.die_of(offset));
  };
  const harness::ConcurrentRunResult run =
      runner.run_concurrent(mixed_spec(), 3000, copts);

  // The base block reproduces run() exactly: same data observed, same
  // counters, same serial simulated time.
  EXPECT_EQ(run.base.digest, reference.digest);
  EXPECT_EQ(run.base.get_hits, reference.get_hits);
  EXPECT_EQ(run.base.puts, reference.puts);
  EXPECT_EQ(run.base.sim_elapsed, reference.sim_elapsed);
  // The concurrent timeline rides on top: a full latency distribution and
  // a makespan no worse than the serialized one.
  EXPECT_EQ(run.latency.count(), 3000u);
  EXPECT_GE(run.speedup(), 1.0);
  EXPECT_GT(run.throughput_ops_per_sec(), 0.0);
  EXPECT_GT(run.batches, 0u);
  uint64_t lane_total = 0;
  for (const uint64_t n : run.lane_ios) lane_total += n;
  EXPECT_EQ(lane_total, run.batch_ios);
}

// The WAL wrapper sees one op stream in generator order whether run() or
// run_concurrent() drives it, so its log holds the same mutations.
TEST(WorkloadRunnerTest, RunConcurrentOverADurableEngineMatchesRun) {
  struct Stack {
    std::unique_ptr<sim::SsdDevice> dev;
    std::unique_ptr<sim::IoContext> io;
    std::unique_ptr<wal::DurableEngine> eng;
  };
  const auto build = [] {
    Stack s;
    s.dev = std::make_unique<sim::SsdDevice>(sim::testbed_ssd_profile());
    s.io = std::make_unique<sim::IoContext>(*s.dev);
    auto inner =
        kv::make_engine(kv::EngineKind::kBTree, *s.dev, *s.io, small_config());
    s.eng = std::make_unique<wal::DurableEngine>(
        std::move(inner), *s.dev, *s.io,
        wal::default_durability_config(s.dev->capacity_bytes()));
    harness::WorkloadRunner(*s.eng, *s.io).bulk_load(500, mixed_spec());
    return s;
  };
  Stack ref = build();
  const harness::WorkloadRunResult reference =
      harness::WorkloadRunner(*ref.eng, *ref.io).run(mixed_spec(), 2000);

  Stack served = build();
  harness::ConcurrentRunOptions copts;
  copts.clients = 4;
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  copts.replay_device_factory = [profile] {
    return std::make_unique<sim::SsdDevice>(profile);
  };
  const harness::ConcurrentRunResult run =
      harness::WorkloadRunner(*served.eng, *served.io)
          .run_concurrent(mixed_spec(), 2000, copts);

  EXPECT_EQ(run.base.digest, reference.digest);
  EXPECT_EQ(run.base.puts, reference.puts);
  EXPECT_EQ(run.base.gets, reference.gets);
  EXPECT_EQ(run.base.erases, reference.erases);
  EXPECT_EQ(run.base.scans, reference.scans);
  EXPECT_EQ(run.base.upserts, reference.upserts);
  EXPECT_EQ(run.base.get_hits, reference.get_hits);
  EXPECT_EQ(run.base.failed_ops, reference.failed_ops);
  EXPECT_EQ(run.base.sim_elapsed, reference.sim_elapsed);
  EXPECT_GT(reference.puts, 0u);
  EXPECT_EQ(served.eng->durable_mutations(), ref.eng->durable_mutations());
  EXPECT_EQ(run.latency.count(), 2000u);
}

TEST(WorkloadRunnerTest, CheckpointWithRetriesSucceedsImmediatelyWhenClean) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict =
      kv::make_engine(kv::EngineKind::kLsm, dev, io, small_config());
  for (uint64_t i = 0; i < 500; ++i) {
    dict->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  EXPECT_TRUE(harness::checkpoint_with_retries(*dict, 10).ok());
}

TEST(WorkloadRunnerTest, FaultSoakOnCleanDeviceIsViolationFree) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict =
      kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
  harness::SoakSpec spec;
  spec.ops = 2000;
  spec.key_space = 1000;
  spec.seed = 7;
  const harness::SoakReport report = harness::run_fault_soak(*dict, spec);
  EXPECT_EQ(report.failed_ops, 0u);
  EXPECT_EQ(report.ok_ops, spec.ops);
  EXPECT_TRUE(report.checkpoint_ok);
  EXPECT_TRUE(report.violations.empty());
}

}  // namespace
}  // namespace damkit
