// One engine's part of a run: fresh device, construction, bulk load, and
// warm-up (all timed as set-up), then timed rounds, then the checks that
// follow them (reference digests, steady-state cycles, codec, and on
// durable workloads a recovery from device bytes alone).
//
// A run interleaves the engines round by round, so a slow spell of the
// host lands on every engine's rounds instead of on one engine's whole
// phase; per-engine host metrics are interquartile means over rounds.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "reference.h"
#include "sim/device.h"
#include "stats/metrics.h"
#include "util/histogram.h"
#include "workloads.h"

namespace perfbench {

/// Timed rounds per run; each runs ops_per_round ops and a checkpoint.
inline constexpr int kRounds = 16;

/// The op streams of one engine: the warm-up and one stream per round
/// (each with a seed of its own, so rounds are distinct). The bulk set is
/// keys [0, key_space).
struct Streams {
  uint64_t bulk_items = 0;
  StreamPart warmup;
  std::vector<StreamPart> rounds;
  /// Warm-up then rounds: the order the engine sees them.
  std::vector<StreamPart> all() const;
};
Streams make_streams(const Workload& w, uint64_t seed,
                     uint64_t ops_per_round);

struct EngineRun {
  std::string name;
  std::vector<double> setup_s;  // one per set-up
  uint64_t ops = 0;             // timed ops over all rounds
  uint64_t failed = 0;
  OpLog log;                      // every timed call, all rounds
  std::vector<double> round_s;    // round wall, its checkpoint included
  /// Host slowdown during each round and each set-up: the mean of the
  /// calibration_ns() taken before and after it, over the nominal.
  std::vector<double> round_slowdown;
  std::vector<double> setup_slowdown;
  std::vector<size_t> round_end;  // log.samples size at the end of a round

  // Simulated side (deterministic for a given seed).
  damkit::sim::SimTime sim_elapsed = 0;  // serial, or concurrent makespan
  damkit::Histogram sim_latency;         // per-op simulated ns
  damkit::sim::DeviceStats device;       // real model, rounds only
  damkit::stats::MetricsRegistry before;  // engine export around the rounds
  damkit::stats::MetricsRegistry after;
  size_t height = 0;  // Dictionary::height() after the rounds

  // Serving layer (concurrent workloads), summed over rounds.
  damkit::sim::SimTime serial_elapsed = 0;
  uint64_t serve_batches = 0;
  uint64_t serve_batch_ios = 0;
  uint64_t max_lane_depth = 0;
  uint64_t admission_stalls = 0;
  double gc_stolen_s = 0.0;

  // Traced passes: self time per layer summed over rounds, and the spans
  // of the first ops (kept for the JSONL trace).
  std::array<uint64_t, kLayerCount> self_ns{};
  std::vector<Span> spans;

  // Codec timed on node images read back after the rounds.
  double encode_ns_per_kib = 0.0;
  double decode_ns_per_kib = 0.0;

  double recover_s = 0.0;
  std::vector<uint64_t> round_digests;
  uint64_t state_digest = 0;
  /// Human-readable failed checks; empty when every check passed.
  std::vector<std::string> errors;

  /// Timed-phase delta of counter "<name>.<suffix>".
  uint64_t counter_delta(const std::string& suffix) const;
  /// Timed-phase delta summed over every counter ending in ".<suffix>"
  /// (e.g. "codec.encode_calls" covers lsm.codec.* and btree.store.codec.*).
  uint64_t suffix_delta(const std::string& suffix) const;
};

/// One engine's stack, alive across the rounds of a run.
class EngineBench {
 public:
  /// Builds and warms the engine `setups` times, keeping the last.
  /// `expect` is run_reference over streams.all().
  EngineBench(const Workload& w, damkit::kv::EngineKind kind,
              const Streams& streams, const ReferenceResult& expect,
              int setups, bool traced);
  ~EngineBench();

  /// Times round `r` (its ops and a checkpoint) and checks its digest.
  void run_round(size_t r);
  /// The untimed checks after the last round.
  void finish();
  const EngineRun& result() const { return run_; }

  /// Rounds are kept for the trace file until they cover this many ops.
  static constexpr uint64_t kKeptSpanOps = 20'000;

  struct Stack;  // device, clock, and decorated engine

 private:
  const Workload& w_;
  damkit::kv::EngineKind kind_;
  const Streams& streams_;
  const ReferenceResult& expect_;
  bool traced_;
  SpanRecorder recorder_;
  std::unique_ptr<Stack> stack_;
  damkit::sim::DeviceStats device0_;
  EngineRun run_;
};

}  // namespace perfbench
