// Concurrent request replay: k clients' recorded IO chains against one
// device.
//
// The simulator separates timing from data (see sim/device.h), and every
// engine's data path is time-independent — what an op reads and writes
// never depends on the simulated clock. A k-client run exploits that in
// two phases:
//
//   Data phase (WorkloadRunner::run_concurrent). The ops are applied to
//   the real engine in generator order through the same loop as
//   WorkloadRunner::run, with an IoTrace on the serving device recording
//   each op's IO chain: which blocks it touched, batched how, in what
//   dependency order. Op i belongs to client i mod k. The digest, the
//   counters, the serial makespan and fault injection/retry accounting
//   are those of the single-client run by construction.
//
//   Replay phase (replay() below). A discrete-event loop re-times the
//   recorded chains on a fresh device with the same timing model: each
//   client keeps up to `inflight` of its ops open (admission control),
//   every runnable stage across all clients at the current virtual
//   instant is routed through per-lane dispatch queues (lane = die or
//   shard) and issued as one cross-client Device::submit_batch, and op
//   completions admit their client's next op. The result is the
//   concurrent makespan and the per-op latency distribution — the
//   quantities the PDAM predicts scale as Ω(k / log_{PB/k} N) until k
//   reaches the device parallelism P.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serve/io_chain.h"
#include "sim/device.h"
#include "util/histogram.h"

namespace damkit::serve {

struct ReplayConfig {
  /// Concurrent clients (k). 1 reproduces the sequential timeline.
  uint64_t clients = 1;
  /// Admission control: ops a client may have open at once (d >= 1).
  uint64_t inflight = 4;

  /// Builds the replay device: same timing model as the serving device,
  /// fresh queue/mechanical state, no fault hook (faults already shaped
  /// the recorded chains — retries appear as extra IOs). When absent
  /// nothing is replayed and the result stays empty.
  std::function<std::unique_ptr<sim::Device>()> replay_device_factory;

  /// Dispatch-lane map for replay: byte offset -> lane in [0, lanes).
  /// Lane = SSD die (SsdConfig::die_of) or shard (offset / stride).
  /// Default: a single lane.
  std::function<size_t(uint64_t)> lane_of;
  size_t lanes = 1;
};

struct ReplayResult {
  /// Replayed k-client makespan on the fresh device.
  sim::SimTime concurrent_elapsed = 0;
  /// Per-op latency (ns, admission to completion) under concurrency.
  Histogram latency;

  /// Cross-client batches formed during replay.
  uint64_t batches = 0;
  uint64_t batch_ios = 0;
  /// IOs dispatched per lane (length = config lanes).
  std::vector<uint64_t> lane_ios;
  /// High-water mark of any single lane's queue depth within a batch.
  uint64_t max_lane_depth = 0;
};

/// Re-time `chains` (op i's chain at index i, op i carried by client
/// i mod k) under `config`'s k clients. Each request is stamped with its
/// client's id in IoRequest::queue, so a multi-queue device lands each
/// client on its own SQ/CQ pair. Deterministic for given inputs.
ReplayResult replay(const std::vector<OpIoChain>& chains,
                    const ReplayConfig& config);

}  // namespace damkit::serve
