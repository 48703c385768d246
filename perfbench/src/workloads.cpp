#include "workloads.h"

#include "sim/hdd.h"
#include "sim/mq_ssd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"

namespace perfbench {

namespace {

using damkit::blockdev::CodecKind;
using damkit::kv::Distribution;
using damkit::kv::EngineKind;

constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * kKiB;

damkit::kv::EngineConfig engines_with(CodecKind codec, uint64_t pool_bytes) {
  damkit::kv::EngineConfig cfg;
  cfg.codec = codec;  // never kDefault: DAMKIT_CODEC must not reach a run
  cfg.btree.cache_bytes = pool_bytes;
  cfg.betree.cache_bytes = pool_bytes;
  return cfg;
}

// Cache-resident Zipfian point ops: engine logic, node search, and pool
// hits do the work; device, codec, WAL, and scan paths stay idle.
Workload point_hot() {
  Workload w;
  w.name = "point-hot";
  w.device = DeviceKind::kSsd;
  w.spec.key_space = 50'000;
  w.spec.distribution = Distribution::kZipfian;
  w.spec.zipf_theta = 0.99;
  w.spec.get_weight = 0.6;
  w.spec.put_weight = 0.2;
  w.spec.upsert_weight = 0.1;
  w.spec.delete_weight = 0.1;
  // ~7 MiB on the device at bulk fill; the pool is over 8x that.
  w.engines = engines_with(CodecKind::kIdentity, 64 * kMiB);
  w.warmup_ops = 20'000;
  w.ops_per_second = {200'000, 15'000, 30'000, 130'000, 190'000};
  w.min_hit_ratio = 0.99;
  return w;
}

// YCSB-E over a dataset ten times the pool on the seek-bound HDD: the
// scan-merge path, misses, evictions, and node parsing.
Workload scan_cold() {
  Workload w;
  w.name = "scan-cold";
  w.device = DeviceKind::kHdd;
  w.spec.key_space = 200'000;
  w.spec.distribution = Distribution::kUniform;
  w.spec.get_weight = 0.0;
  w.spec.put_weight = 0.05;
  w.spec.scan_weight = 0.95;
  w.spec.scan_length = 50;
  // ~28 MiB of leaves against a 2 MiB pool. Bε-tree nodes are 256 KiB so
  // the pool holds eight of them rather than two.
  w.engines = engines_with(CodecKind::kIdentity, 2 * kMiB);
  w.engines.betree.node_bytes = 256 * kKiB;
  w.engines.lsm.memtable_bytes = 256 * kKiB;
  w.warmup_ops = 300;
  w.ops_per_second = {6'000, 800, 800, 4'500, 7'000};
  for (const EngineKind kind :
       {EngineKind::kBTree, EngineKind::kBeTree, EngineKind::kOptBeTree}) {
    w.cycles.push_back({kind, "cache.evictions", 3});
  }
  return w;
}

// Write-heavy drifting hot set behind the WAL with the LZ codec: group
// commit, checkpoints, encoding, write-back, flushes, and compactions.
Workload ingest_durable() {
  Workload w;
  w.name = "ingest-durable";
  w.device = DeviceKind::kSsd;
  w.spec.key_space = 40'000;
  w.spec.distribution = Distribution::kZipfian;
  w.spec.zipf_theta = 0.99;
  w.spec.put_weight = 0.6;
  w.spec.upsert_weight = 0.2;
  w.spec.delete_weight = 0.1;
  w.spec.get_weight = 0.1;
  w.spec.hot_shift_every = 500;
  w.spec.hot_shift_stride = 4099;
  // ~5 MiB of records against a 512 KiB pool, with nodes small enough
  // that the pool holds dozens of them.
  w.engines = engines_with(CodecKind::kLz, 512 * kKiB);
  w.engines.btree.node_bytes = 16 * kKiB;
  w.engines.betree.node_bytes = 64 * kKiB;
  w.engines.lsm.memtable_bytes = 256 * kKiB;
  w.engines.lsm.level1_bytes = 2 * kMiB;
  w.engines.pdam.buffer_bytes = 512 * kKiB;
  w.checkpoint_wal_bytes = 256 * kKiB;
  w.warmup_ops = 4'000;
  w.ops_per_second = {1'500, 4'700, 2'900, 15'000, 32'000};
  for (const EngineKind kind : damkit::kv::kAllEngineKinds) {
    w.cycles.push_back({kind, "wal.checkpoints", 3});
  }
  w.cycles.push_back({EngineKind::kBeTree, "flushes", 3});
  w.cycles.push_back({EngineKind::kOptBeTree, "flushes", 3});
  w.cycles.push_back({EngineKind::kLsm, "compactions", 3});
  return w;
}

// YCSB-B through the serving layer on the multi-queue NVMe model: three
// client sessions, four ops in flight each, background GC on.
Workload serve_mq() {
  Workload w;
  w.name = "serve-mq";
  w.device = DeviceKind::kMq;
  w.spec.key_space = 100'000;
  w.spec.distribution = Distribution::kZipfian;
  w.spec.zipf_theta = 0.99;
  w.spec.get_weight = 0.95;
  w.spec.put_weight = 0.05;
  w.engines = engines_with(CodecKind::kIdentity, 4 * kMiB);
  w.engines.betree.node_bytes = 256 * kKiB;
  w.warmup_ops = 5'000;
  w.clients = 3;
  w.inflight = 4;
  w.ops_per_second = {18'000, 6'400, 30'000, 58'000, 50'000};
  return w;
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name) {
  for (Workload (*make)() : {point_hot, scan_cold, ingest_durable, serve_mq}) {
    Workload w = make();
    if (w.name == name) return w;
  }
  return std::nullopt;
}

damkit::sim::SsdConfig mq_profile_with_gc() {
  damkit::sim::SsdConfig cfg = damkit::sim::testbed_mq_profile();
  cfg.gc_interval_s = 20e-3;  // 10% of die time to background GC
  cfg.gc_burst_s = 2e-3;
  return cfg;
}

std::unique_ptr<damkit::sim::Device> make_device(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kSsd:
      return std::make_unique<damkit::sim::SsdDevice>(
          damkit::sim::testbed_ssd_profile());
    case DeviceKind::kHdd:
      return std::make_unique<damkit::sim::HddDevice>(
          damkit::sim::testbed_hdd_profile());
    case DeviceKind::kMq:
      return std::make_unique<damkit::sim::MqSsdDevice>(mq_profile_with_gc());
  }
  return nullptr;
}

}  // namespace perfbench
