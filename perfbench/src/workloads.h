// The benchmark's workloads: each fixes the key distribution and op mix,
// the device profile, the codec, the buffer pools, the durability and
// serving setup, the warm-up, and every engine's timed op count. Only the
// seed comes from the command line.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "kv/engine.h"
#include "kv/workload.h"
#include "sim/device.h"
#include "sim/ssd.h"

namespace perfbench {

inline constexpr size_t kEngineCount = 5;

enum class DeviceKind : uint8_t { kSsd, kHdd, kMq };

/// A counter (exported by the engine as "<engine>.<counter>") that must
/// advance at least `min` times in the timed phase: the proof that the
/// background work the workload is about (flushes, compactions,
/// checkpoints, evictions) cycles while it is measured.
struct CycleRequirement {
  damkit::kv::EngineKind engine;
  std::string counter;
  uint64_t min = 3;
};

struct Workload {
  std::string name;
  DeviceKind device = DeviceKind::kSsd;
  /// Key space, value size, mix, and distribution; the seed is set per run.
  damkit::kv::WorkloadSpec spec;
  /// Every key in [0, key_space) is bulk-loaded before the warm-up.
  damkit::kv::EngineConfig engines;
  /// Untimed warm-up: a full chunked sweep (every leaf passes through the
  /// pool) and then this many ops of the same mix from a second stream.
  uint64_t warmup_ops = 0;
  /// Wrap every engine in wal::make_durable with this auto-checkpoint
  /// threshold (0 = not durable).
  uint64_t checkpoint_wal_bytes = 0;
  /// Serve through WorkloadRunner::run_concurrent (0 = sequential run()).
  uint64_t clients = 0;
  uint64_t inflight = 0;
  /// Timed ops per engine per second of --seconds, in kAllEngineKinds
  /// order. Engines differ by up to 90x in host cost per op, so each gets
  /// a count that gives it a similar share of the run.
  std::array<uint64_t, kEngineCount> ops_per_second{};
  std::vector<CycleRequirement> cycles;
  /// Lowest timed-phase hit ratio allowed for the pooled engines (the
  /// "pool holds the whole dataset" check of point-hot); 0 = no check.
  double min_hit_ratio = 0.0;

  bool durable() const { return checkpoint_wal_bytes != 0; }
  bool concurrent() const { return clients != 0; }
};

/// The workload named `name`, or nullopt.
std::optional<Workload> find_workload(std::string_view name);

/// testbed_mq_profile() with background GC on (10% of die time), the
/// serving and replay device of serve-mq.
damkit::sim::SsdConfig mq_profile_with_gc();

/// The device model a workload runs on (fresh per engine).
std::unique_ptr<damkit::sim::Device> make_device(DeviceKind kind);

}  // namespace perfbench
