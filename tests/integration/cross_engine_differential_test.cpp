// Cross-engine differential: one seeded workload driven through the
// generic WorkloadRunner against every engine the factory builds — plus a
// 4-shard ShardedEngine — must observe identical data (digest over every
// get and scan result). Engines may differ in simulated cost only.
//
// Also checks the sharded metrics accounting: with faults injected, every
// injected error shows up in exactly one shard's counters, and the
// router's aggregate equals the per-shard sum (io_retries conservation).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blockdev/codec.h"
#include "harness/workload_runner.h"
#include "kv/sharded_engine.h"
#include "kv/slice.h"
#include "sim/fault_injection.h"
#include "sim/mq_ssd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bytes.h"
#include "util/table.h"

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

kv::WorkloadSpec differential_spec() {
  kv::WorkloadSpec spec;
  spec.key_space = 3000;
  spec.value_bytes = 56;
  spec.get_weight = 0.35;
  spec.put_weight = 0.35;
  spec.delete_weight = 0.1;
  spec.scan_weight = 0.05;
  spec.upsert_weight = 0.15;
  spec.scan_length = 40;
  spec.seed = 2026;
  return spec;
}

harness::WorkloadRunResult drive(kv::Dictionary& dict, sim::IoContext& io) {
  harness::WorkloadRunner runner(dict, io);
  runner.bulk_load(1500, differential_spec());
  const harness::WorkloadRunResult result =
      runner.run(differential_spec(), 6000);
  dict.check_invariants();
  return result;
}

// The acceptance criterion of the unification: five engines and a sharded
// composition, one op stream, one digest — and compression must be
// invisible to the data plane, so the whole matrix repeats per codec
// (identity, prefix, lz) against a single cross-codec reference digest.
TEST(CrossEngineDifferentialTest, AllEnginesObserveIdenticalData) {
  struct Row {
    std::string name;
    harness::WorkloadRunResult result;
  };
  std::vector<Row> rows;

  for (const blockdev::CodecKind codec : blockdev::kAllCodecKinds) {
    kv::EngineConfig cfg = small_config();
    cfg.codec = codec;
    const std::string tag = "/" + std::string(blockdev::codec_kind_name(codec));
    for (const kv::EngineKind kind : kv::kAllEngineKinds) {
      sim::SsdDevice dev(sim::testbed_ssd_profile());
      sim::IoContext io(dev);
      const auto dict = kv::make_engine(kind, dev, io, cfg);
      rows.push_back({std::string(dict->name()) + tag, drive(*dict, io)});
    }
    {
      sim::SsdDevice dev(sim::testbed_ssd_profile());
      sim::IoContext io(dev);
      kv::ShardedConfig sharded;
      sharded.shards = 4;
      const auto dict = kv::make_sharded_engine(kv::EngineKind::kBTree, dev,
                                                io, cfg, sharded);
      rows.push_back({std::string(dict->name()) + tag, drive(*dict, io)});
    }
  }

  ASSERT_EQ(rows.size(), 18u);
  const harness::WorkloadRunResult& reference = rows[0].result;
  EXPECT_GT(reference.get_hits, 0u);
  EXPECT_GT(reference.scans, 0u);
  for (const Row& row : rows) {
    EXPECT_EQ(row.result.digest, reference.digest) << row.name;
    EXPECT_EQ(row.result.get_hits, reference.get_hits) << row.name;
    EXPECT_EQ(row.result.failed_ops, 0u) << row.name;
    // The op stream itself is engine-independent by construction.
    EXPECT_EQ(row.result.puts, reference.puts) << row.name;
    EXPECT_EQ(row.result.gets, reference.gets) << row.name;
    EXPECT_EQ(row.result.erases, reference.erases) << row.name;
    EXPECT_EQ(row.result.scans, reference.scans) << row.name;
    EXPECT_EQ(row.result.upserts, reference.upserts) << row.name;
  }
}

// The scenario suite: every named workload preset (YCSB core workloads
// A-F plus the shift/olap extras) drives all five engines and a 4-shard
// composition to one digest per preset. The preset-only generator fields
// (hot-set rotation, OLAP scan bursts) shape the op stream before it
// reaches any engine, so they must be exactly as engine-invisible as the
// base mix.
TEST(CrossEngineDifferentialTest, WorkloadPresetsObserveIdenticalData) {
  const char* names[] = {"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d",
                         "ycsb-e", "ycsb-f", "shift",  "olap"};
  for (const char* name : names) {
    const std::optional<kv::WorkloadSpec> preset =
        kv::make_workload_preset(name);
    ASSERT_TRUE(preset.has_value()) << name;
    kv::WorkloadSpec spec = *preset;
    spec.key_space = 3000;
    spec.value_bytes = 56;
    spec.seed = 2026;

    const auto drive_spec = [&spec](kv::Dictionary& dict,
                                    sim::IoContext& io) {
      harness::WorkloadRunner runner(dict, io);
      runner.bulk_load(1200, spec);
      const harness::WorkloadRunResult result = runner.run(spec, 2500);
      dict.check_invariants();
      return result;
    };

    std::vector<std::pair<std::string, harness::WorkloadRunResult>> rows;
    for (const kv::EngineKind kind : kv::kAllEngineKinds) {
      sim::SsdDevice dev(sim::testbed_ssd_profile());
      sim::IoContext io(dev);
      const auto dict = kv::make_engine(kind, dev, io, small_config());
      rows.emplace_back(std::string(dict->name()), drive_spec(*dict, io));
    }
    {
      sim::SsdDevice dev(sim::testbed_ssd_profile());
      sim::IoContext io(dev);
      kv::ShardedConfig sharded;
      sharded.shards = 4;
      const auto dict = kv::make_sharded_engine(kv::EngineKind::kBTree, dev,
                                                io, small_config(), sharded);
      rows.emplace_back(std::string(dict->name()), drive_spec(*dict, io));
    }

    const harness::WorkloadRunResult& reference = rows[0].second;
    // Every preset observes data: point hits for the read mixes, scan rows
    // for the scan-heavy ones (ycsb-e's gets are zero by design).
    EXPECT_GT(reference.get_hits + reference.scans, 0u) << name;
    for (const auto& [engine, result] : rows) {
      EXPECT_EQ(result.digest, reference.digest) << name << "/" << engine;
      EXPECT_EQ(result.get_hits, reference.get_hits)
          << name << "/" << engine;
      EXPECT_EQ(result.failed_ops, 0u) << name << "/" << engine;
      EXPECT_EQ(result.scans, reference.scans) << name << "/" << engine;
    }
  }
}

// The MQ-device acceptance criterion: MqSsdDevice layers queue-pair
// admission, completion costs, and GC on top of the same flash core, so
// it must be a pure timing refinement. At a single client every engine
// and the sharded composition produce bit-identical data — digest and
// hit counts — on MqSsdDevice and SsdDevice built from the same profile.
TEST(CrossEngineDifferentialTest, MqDeviceIsDigestIdenticalToPlainSsd) {
  const sim::SsdConfig profile = sim::testbed_mq_profile();
  using Factory = std::function<std::unique_ptr<kv::Dictionary>(
      sim::Device&, sim::IoContext&)>;
  std::vector<std::pair<std::string, Factory>> factories;
  for (const kv::EngineKind kind : kv::kAllEngineKinds) {
    factories.emplace_back(std::string(kv::engine_kind_name(kind)),
                           [kind](sim::Device& dev, sim::IoContext& io) {
                             return kv::make_engine(kind, dev, io,
                                                    small_config());
                           });
  }
  factories.emplace_back("sharded-btree",
                         [](sim::Device& dev, sim::IoContext& io) {
                           kv::ShardedConfig sharded;
                           sharded.shards = 4;
                           return kv::make_sharded_engine(
                               kv::EngineKind::kBTree, dev, io, small_config(),
                               sharded);
                         });

  for (const auto& [name, make] : factories) {
    sim::SsdDevice plain(profile);
    sim::IoContext plain_io(plain);
    const auto plain_dict = make(plain, plain_io);
    const harness::WorkloadRunResult reference = drive(*plain_dict, plain_io);

    sim::MqSsdDevice mq(profile);
    sim::IoContext mq_io(mq);
    const auto mq_dict = make(mq, mq_io);
    const harness::WorkloadRunResult run = drive(*mq_dict, mq_io);

    EXPECT_EQ(run.digest, reference.digest) << name;
    EXPECT_EQ(run.get_hits, reference.get_hits) << name;
    EXPECT_EQ(run.failed_ops, 0u) << name;
  }
}

harness::ConcurrentRunResult drive_concurrent(kv::Dictionary& dict,
                                              sim::IoContext& io,
                                              uint64_t clients) {
  harness::WorkloadRunner runner(dict, io);
  runner.bulk_load(1500, differential_spec());
  harness::ConcurrentRunOptions copts;
  copts.clients = clients;
  copts.inflight = 3;
  const sim::SsdConfig profile = sim::testbed_ssd_profile();
  copts.replay_device_factory = [profile] {
    return std::make_unique<sim::SsdDevice>(profile);
  };
  copts.lanes = static_cast<size_t>(profile.total_dies());
  copts.lane_of = [profile](uint64_t offset) {
    return static_cast<size_t>(profile.die_of(offset));
  };
  const harness::ConcurrentRunResult result =
      runner.run_concurrent(differential_spec(), 6000, copts);
  dict.check_invariants();
  return result;
}

// The differential extended to the serving layer: a k-client concurrent
// run must observe exactly the data the single-client reference observed,
// for every engine and the sharded composition. run_concurrent applies
// the ops in generator order through run()'s own loop, which makes this
// an equality, not a statistical claim.
TEST(CrossEngineDifferentialTest, ConcurrentServingMatchesSequentialReference) {
  for (const kv::EngineKind kind : kv::kAllEngineKinds) {
    sim::SsdDevice ref_dev(sim::testbed_ssd_profile());
    sim::IoContext ref_io(ref_dev);
    const auto ref_dict =
        kv::make_engine(kind, ref_dev, ref_io, small_config());
    const harness::WorkloadRunResult reference = drive(*ref_dict, ref_io);

    sim::SsdDevice dev(sim::testbed_ssd_profile());
    sim::IoContext io(dev);
    const auto dict = kv::make_engine(kind, dev, io, small_config());
    const harness::ConcurrentRunResult run = drive_concurrent(*dict, io, 4);
    EXPECT_EQ(run.base.digest, reference.digest) << dict->name();
    EXPECT_EQ(run.base.get_hits, reference.get_hits) << dict->name();
    EXPECT_EQ(run.base.sim_elapsed, reference.sim_elapsed) << dict->name();
    EXPECT_EQ(run.latency.count(), 6000u) << dict->name();
  }
  {
    sim::SsdDevice ref_dev(sim::testbed_ssd_profile());
    sim::IoContext ref_io(ref_dev);
    kv::ShardedConfig sharded;
    sharded.shards = 4;
    const auto ref_dict = kv::make_sharded_engine(
        kv::EngineKind::kBTree, ref_dev, ref_io, small_config(), sharded);
    const harness::WorkloadRunResult reference = drive(*ref_dict, ref_io);

    sim::SsdDevice dev(sim::testbed_ssd_profile());
    sim::IoContext io(dev);
    const auto dict = kv::make_sharded_engine(kv::EngineKind::kBTree, dev, io,
                                              small_config(), sharded);
    const harness::ConcurrentRunResult run = drive_concurrent(*dict, io, 4);
    EXPECT_EQ(run.base.digest, reference.digest) << dict->name();
    EXPECT_EQ(run.base.sim_elapsed, reference.sim_elapsed) << dict->name();
  }
}

// Same seed, same client count: the whole concurrent outcome — digest and
// every exported serving metric, timeline included — must be bit-equal
// across runs. This is the replayability bar for concurrent experiments.
TEST(CrossEngineDifferentialTest, ConcurrentServingIsDeterministic) {
  const auto run_once = [] {
    sim::SsdDevice dev(sim::testbed_ssd_profile());
    sim::IoContext io(dev);
    const auto dict =
        kv::make_engine(kv::EngineKind::kBTree, dev, io, small_config());
    return drive_concurrent(*dict, io, 8);
  };
  const harness::ConcurrentRunResult a = run_once();
  const harness::ConcurrentRunResult b = run_once();
  EXPECT_EQ(a.base.digest, b.base.digest);
  EXPECT_EQ(a.base.sim_elapsed, b.base.sim_elapsed);
  EXPECT_EQ(a.concurrent_elapsed, b.concurrent_elapsed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.batch_ios, b.batch_ios);
  EXPECT_EQ(a.lane_ios, b.lane_ios);
  EXPECT_EQ(a.max_lane_depth, b.max_lane_depth);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.percentile(50.0), b.latency.percentile(50.0));
  EXPECT_EQ(a.latency.percentile(99.9), b.latency.percentile(99.9));
}

// Conservation under sharding: all four shards fault against the same
// device, and the router's aggregate retry counters must equal both the
// per-shard metric sum and the device's injected-error count — nothing
// double-counted, nothing dropped in the fan-out.
TEST(CrossEngineDifferentialTest, ShardedRetryCountersConserved) {
  sim::SsdDevice inner(sim::testbed_ssd_profile());
  sim::FaultConfig faults;
  faults.seed = 515;
  faults.read_error_rate = 0.02;
  faults.write_error_rate = 0.02;
  faults.torn_write_rate = 0.01;
  sim::FaultInjectingDevice dev(inner, faults);
  sim::IoContext io(dev);

  kv::ShardedConfig sharded;
  sharded.shards = 4;
  const auto dict = kv::make_sharded_engine(kv::EngineKind::kBTree, dev, io,
                                            small_config(), sharded);

  harness::SoakSpec spec;
  spec.ops = 3000;
  spec.key_space = 3000;
  spec.seed = 31;
  const harness::SoakReport report = harness::run_fault_soak(*dict, spec);
  for (const std::string& violation : report.violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(report.checkpoint_ok);

  const blockdev::RetryCounters total = dict->retry_counters();
  EXPECT_EQ(dev.fault_stats().injected_errors(),
            total.retries + total.give_ups);

  stats::MetricsRegistry reg;
  dict->export_metrics(reg, "d.");
  EXPECT_EQ(reg.counter("d.io_retries"), total.retries);
  EXPECT_EQ(reg.counter("d.io_give_ups"), total.give_ups);
  uint64_t shard_retries = 0;
  uint64_t shard_give_ups = 0;
  for (int s = 0; s < 4; ++s) {
    shard_retries += reg.counter(strfmt("d.shard%d.store.io_retries", s));
    shard_give_ups += reg.counter(strfmt("d.shard%d.store.io_give_ups", s));
  }
  EXPECT_EQ(shard_retries, total.retries);
  EXPECT_EQ(shard_give_ups, total.give_ups);
  EXPECT_GT(total.retries, 0u) << "soak injected nothing to retry";
}

}  // namespace
}  // namespace damkit
