// Fault soak: every dictionary runs a mixed workload on a seeded
// fault-injecting SSD, entirely through the fallible try_* APIs. The
// contract under test is the ISSUE's acceptance bar: an injected fault is
// either retried away inside the tree or surfaced as a non-OK Status —
// never an abort — and no operation that reported success loses data.
//
// The soak loop itself is harness::run_fault_soak — one generic driver
// over kv::Dictionary instead of the per-tree copies this file used to
// carry. Mutations that *failed* leave their key in a deliberately
// unspecified (old-or-new, but internally consistent) state; the runner
// marks such keys "uncertain" and stops asserting their exact value.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "harness/workload_runner.h"
#include "kv/engine.h"
#include "sim/fault_injection.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bytes.h"

namespace damkit {
namespace {

sim::FaultConfig soak_faults(uint64_t seed) {
  sim::FaultConfig cfg;
  cfg.seed = seed;
  cfg.read_error_rate = 0.02;
  cfg.write_error_rate = 0.02;
  cfg.torn_write_rate = 0.01;
  cfg.latency_spike_rate = 0.02;
  return cfg;
}

// Sized so the working set dwarfs the (deliberately tiny) caches below:
// the soak is only meaningful if the trees do real device IO to fault.
kv::EngineConfig soak_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 64 * kKiB;
  cfg.betree.node_bytes = 32 * kKiB;
  cfg.betree.cache_bytes = 128 * kKiB;
  cfg.lsm.memtable_bytes = 16 * kKiB;
  cfg.lsm.sstable_target_bytes = 16 * kKiB;
  cfg.lsm.block_bytes = 4 * kKiB;
  cfg.lsm.level0_limit = 3;
  cfg.lsm.level1_bytes = 128 * kKiB;
  cfg.pdam.buffer_bytes = 16 * kKiB;  // frequent merges → real IO to fault
  return cfg;
}

struct SoakOutcome {
  harness::SoakReport report;
  blockdev::RetryCounters counters;
  uint64_t injected = 0;
  stats::MetricsRegistry metrics;  // device.* + <engine-name>.*
  sim::SimTime elapsed = 0;
};

SoakOutcome run_engine_soak(kv::EngineKind kind, uint64_t fault_seed,
                            uint64_t workload_seed,
                            blockdev::CodecKind codec =
                                blockdev::CodecKind::kDefault) {
  sim::SsdDevice inner(sim::testbed_ssd_profile());
  sim::FaultInjectingDevice dev(inner, soak_faults(fault_seed));
  sim::IoContext io(dev);
  kv::EngineConfig cfg = soak_config();
  cfg.codec = codec;
  const auto tree = kv::make_engine(kind, dev, io, cfg);

  harness::SoakSpec spec;
  spec.seed = workload_seed;
  SoakOutcome out;
  out.report = harness::run_fault_soak(*tree, spec);
  tree->check_invariants();
  out.counters = tree->retry_counters();
  out.injected = dev.fault_stats().injected_errors();
  dev.export_metrics(out.metrics, "device.");
  tree->export_metrics(out.metrics,
                       std::string(kv::engine_kind_name(kind)) + ".");
  out.elapsed = io.now();
  return out;
}

void expect_soak_clean(const SoakOutcome& out) {
  for (const std::string& violation : out.report.violations) {
    ADD_FAILURE() << violation;
  }
  EXPECT_TRUE(out.report.checkpoint_ok);
  EXPECT_GT(out.report.ok_ops, 0u);
}

// Every injected fault must be accounted for: retried (and then the
// request either succeeded or eventually gave up) — never swallowed.
void expect_faults_accounted(const SoakOutcome& out) {
  EXPECT_GT(out.injected, 0u)
      << "soak injected nothing - rates or op count too low to test anything";
  EXPECT_EQ(out.injected, out.counters.retries + out.counters.give_ups);
}

class FaultSoakTest : public testing::TestWithParam<uint64_t> {};

TEST_P(FaultSoakTest, BTreeSurvives) {
  const SoakOutcome out = run_engine_soak(kv::EngineKind::kBTree, GetParam(),
                                          GetParam() * 17 + 1);
  expect_soak_clean(out);
  expect_faults_accounted(out);

  EXPECT_GT(out.metrics.counter("device.faults.injected_read_errors") +
                out.metrics.counter("device.faults.injected_write_errors") +
                out.metrics.counter("device.faults.injected_torn_writes"),
            0u);
  EXPECT_EQ(out.metrics.counter("btree.store.io_retries"),
            out.counters.retries);
  EXPECT_EQ(out.metrics.counter("btree.store.io_give_ups"),
            out.counters.give_ups);
}

TEST_P(FaultSoakTest, BeTreeSurvives) {
  const SoakOutcome out = run_engine_soak(kv::EngineKind::kBeTree, GetParam(),
                                          GetParam() * 17 + 2);
  expect_soak_clean(out);
  expect_faults_accounted(out);
}

TEST_P(FaultSoakTest, OptBeTreeSurvives) {
  const SoakOutcome out = run_engine_soak(kv::EngineKind::kOptBeTree,
                                          GetParam(), GetParam() * 17 + 3);
  expect_soak_clean(out);
  expect_faults_accounted(out);
}

TEST_P(FaultSoakTest, LsmTreeSurvives) {
  const SoakOutcome out = run_engine_soak(kv::EngineKind::kLsm, GetParam(),
                                          GetParam() * 17 + 4);
  expect_soak_clean(out);
  expect_faults_accounted(out);

  EXPECT_EQ(out.metrics.counter("lsm.io_retries"), out.counters.retries);
  EXPECT_EQ(out.metrics.counter("lsm.io_give_ups"), out.counters.give_ups);
}

TEST_P(FaultSoakTest, PdamSurvives) {
  const SoakOutcome out = run_engine_soak(kv::EngineKind::kPdam, GetParam(),
                                          GetParam() * 17 + 5);
  expect_soak_clean(out);
  expect_faults_accounted(out);

  EXPECT_EQ(out.metrics.counter("pdam.io_retries"), out.counters.retries);
  EXPECT_EQ(out.metrics.counter("pdam.io_give_ups"), out.counters.give_ups);
}

// Compression under fire: the same soak with an explicit non-identity
// codec. Torn compressed frames must repair via the write-retry path and
// stored-length bookkeeping must survive failed writes (a stale length
// would make a later read decode garbage). The accounting invariant is
// identical: decode failures surface as corruption Statuses and never
// masquerade as injected-fault give-ups.
TEST_P(FaultSoakTest, BTreeSurvivesWithCompression) {
  const SoakOutcome out =
      run_engine_soak(kv::EngineKind::kBTree, GetParam(), GetParam() * 17 + 6,
                      blockdev::CodecKind::kLz);
  expect_soak_clean(out);
  expect_faults_accounted(out);
  // Compression actually engaged: the codec gauges are exported and bytes
  // were saved on this workload's sorted-record node images.
  EXPECT_GT(out.metrics.counter("btree.store.codec.encode_calls"), 0u);
  EXPECT_LT(out.metrics.gauge("btree.store.codec.ratio"), 1.0);
}

TEST_P(FaultSoakTest, LsmTreeSurvivesWithCompression) {
  const SoakOutcome out =
      run_engine_soak(kv::EngineKind::kLsm, GetParam(), GetParam() * 17 + 7,
                      blockdev::CodecKind::kPrefix);
  expect_soak_clean(out);
  expect_faults_accounted(out);
  EXPECT_GT(out.metrics.counter("lsm.codec.encode_calls"), 0u);
}

// The serving layer under fire: k concurrent clients drive the fallible
// path against a fault-injecting device. The accounting contract is the
// same as the sequential soak — every injected fault is either retried
// away or surfaced (injected == retries + give_ups) — and the concurrent
// replay must not perturb it: same seed, same split, any k.
TEST(FaultSoakServingTest, ConcurrentClientsKeepFaultAccounting) {
  const auto soak_once = [](uint64_t clients) {
    sim::SsdDevice inner(sim::testbed_ssd_profile());
    sim::FaultInjectingDevice dev(inner, soak_faults(404));
    sim::IoContext io(dev);
    const auto tree =
        kv::make_engine(kv::EngineKind::kBTree, dev, io, soak_config());

    kv::WorkloadSpec spec;
    spec.key_space = 3000;
    spec.value_bytes = 72;
    spec.get_weight = 0.35;
    spec.put_weight = 0.4;
    spec.delete_weight = 0.1;
    spec.upsert_weight = 0.15;
    spec.seed = 555;

    harness::WorkloadRunner runner(*tree, io);
    runner.bulk_load(1000, spec);
    harness::ConcurrentRunOptions copts;
    copts.clients = clients;
    copts.inflight = 2;
    copts.fallible = true;
    // Replay on a clean device: the faults already shaped the recorded
    // chains (retries appear as extra IOs in the trace).
    const sim::SsdConfig profile = sim::testbed_ssd_profile();
    copts.replay_device_factory = [profile] {
      return std::make_unique<sim::SsdDevice>(profile);
    };
    const harness::ConcurrentRunResult run =
        runner.run_concurrent(spec, 4000, copts);
    tree->check_invariants();

    const blockdev::RetryCounters counters = tree->retry_counters();
    EXPECT_EQ(dev.fault_stats().injected_errors(),
              counters.retries + counters.give_ups)
        << "clients=" << clients;
    EXPECT_GT(counters.retries, 0u) << "clients=" << clients;
    EXPECT_EQ(run.latency.count(), 4000u) << "clients=" << clients;
    return std::make_tuple(run.base.digest, run.base.failed_ops,
                           counters.retries, counters.give_ups);
  };
  const auto reference = soak_once(1);
  EXPECT_EQ(soak_once(4), reference);
  EXPECT_EQ(soak_once(16), reference);
}

// Determinism across runs: the same seed produces the same outcome
// (ok/failed split and retry counts), per the replayability contract.
TEST(FaultSoakDeterminismTest, SameSeedSameOutcome) {
  const auto run_once = [](uint64_t seed) {
    const SoakOutcome out = run_engine_soak(kv::EngineKind::kBTree, seed, 77);
    return std::make_tuple(out.report.ok_ops, out.report.failed_ops,
                           out.counters.retries, out.counters.give_ups,
                           out.elapsed);
  };
  EXPECT_EQ(run_once(42), run_once(42));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSoakTest,
                         testing::Values(101u, 202u, 303u));

}  // namespace
}  // namespace damkit
