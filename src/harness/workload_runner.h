// WorkloadRunner: the one generic workload driver. Benches, the CLI,
// integration tests, and examples all drive any kv::Dictionary — a bare
// tree from EngineFactory or a ShardedEngine composition — through these
// loops instead of carrying per-tree copies of setup/drive/teardown code.
//
// Four entry points, by what the caller needs reproduced:
//   - run(): OpGenerator-driven mixed workload with a result digest, for
//     cross-engine differential comparison and generic driving.
//   - run_concurrent(): the same op loop, recording each op's IO chain,
//     then re-timed under k concurrent clients by serve::replay.
//   - run_put_get(): the fixed put/get/scan loop the benches and the CLI
//     have always used, byte-for-byte (same RNG draws, same key strings),
//     so pre-refactor simulated times are preserved exactly.
//   - run_fault_soak(): the fault-injection soak from the integration
//     tests — fallible ops against a reference model with old-or-new
//     uncertainty for failed mutations, checkpoint-until-clean, then a
//     full verification sweep. Violations are reported as strings so the
//     harness stays gtest-free.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "kv/dictionary.h"
#include "kv/op_apply.h"
#include "kv/workload.h"
#include "serve/io_chain.h"
#include "serve/scheduler.h"
#include "sim/device.h"
#include "stats/metrics.h"

namespace damkit::harness {

// ---------------------------------------------------------------------------
// Generic OpGenerator-driven run.
// ---------------------------------------------------------------------------

struct WorkloadRunOptions {
  /// Count non-OK ops as failed instead of aborting, and checkpoint with
  /// retries at the end instead of flush().
  bool fallible = false;
  /// Write back all dirty state after the op stream (charged to the run).
  bool flush_at_end = true;
};

/// The ApplyCounters of the ops (failed_ops also counts a final checkpoint
/// that never landed) plus what the run observed and cost.
struct WorkloadRunResult : kv::ApplyCounters {
  /// FNV-1a over every observed read result (get presence + value bytes,
  /// scan pairs). Two engines given the same spec and op count agree on
  /// this digest iff they returned identical data.
  uint64_t digest = kv::kFnvOffsetBasis;
  sim::SimTime sim_elapsed = 0;
};

/// run_concurrent(): run()'s options plus the replay's (client count,
/// admission depth, replay device, dispatch lanes). Without a replay
/// device the concurrent timeline equals the serial one.
struct ConcurrentRunOptions : WorkloadRunOptions, serve::ReplayConfig {};

/// The replayed concurrent timeline on top of what run() reports.
struct ConcurrentRunResult : serve::ReplayResult {
  /// Identical to what run() would report for the same (spec, ops).
  WorkloadRunResult base;
  /// Data-phase makespan: the ops applied back to back on the serving
  /// device, without the final flush.
  sim::SimTime serial_elapsed = 0;

  /// serial / concurrent (>= 1 when concurrency helps).
  double speedup() const;
  /// Ops per simulated second under concurrency.
  double throughput_ops_per_sec() const;

  /// Export "<prefix>ops"/"failed_ops", elapsed/speedup/throughput
  /// gauges, batch counters, per-lane IO counts, and "<prefix>latency_ns"
  /// (+ .p50/.p99/.p999 via stats::export_histogram_summary).
  void export_metrics(stats::MetricsRegistry& reg,
                      std::string_view prefix) const;
};

class WorkloadRunner {
 public:
  WorkloadRunner(kv::Dictionary& dict, sim::IoContext& io)
      : dict_(&dict), io_(&io) {}

  /// Bulk-load `items` sorted pairs from kv::bulk_item(i, spec).
  void bulk_load(uint64_t items, const kv::WorkloadSpec& spec);

  /// Drive `ops` operations drawn from `spec`'s distribution and mix.
  /// Deterministic for a given (spec, ops): engine choice never changes
  /// which ops run or what values they write.
  WorkloadRunResult run(const kv::WorkloadSpec& spec, uint64_t ops,
                        const WorkloadRunOptions& options = {});

  /// Serve the same op stream to k concurrent clients: op i belongs to
  /// client i mod k. run()'s loop applies the ops and records each one's
  /// IO chain, then serve::replay re-times the chains (see
  /// serve/scheduler.h). Digest and counters equal run()'s by
  /// construction; the concurrent makespan, speedup, and latency tails
  /// are added on top.
  ConcurrentRunResult run_concurrent(const kv::WorkloadSpec& spec,
                                     uint64_t ops,
                                     const ConcurrentRunOptions& options = {});

  kv::Dictionary& dictionary() { return *dict_; }

 private:
  /// What the op loop records for run_concurrent().
  struct DataPhase {
    std::vector<serve::OpIoChain> chains;  // op i's chain at index i
    sim::SimTime elapsed = 0;              // the ops alone, no final flush
  };

  /// The one op loop behind run() and run_concurrent(): the first `ops`
  /// ops of `spec`'s stream in generator order through kv::apply_op, then
  /// the flush/checkpoint tail. Fills *recorded when it is non-null.
  WorkloadRunResult drive(const kv::WorkloadSpec& spec, uint64_t ops,
                          const WorkloadRunOptions& options,
                          DataPhase* recorded);

  kv::Dictionary* dict_;
  sim::IoContext* io_;
};

// ---------------------------------------------------------------------------
// The legacy fixed loop (bench_smoke, damkit_cli) — byte-exact.
//
// This loop stays because no WorkloadSpec expresses it: its callers build
// keys in their own historical formats (key_of) and write constant 'v'
// values, where OpGenerator draws kv::encode_key keys and make_value
// payloads. Retiring it would change the ops bench_smoke runs and so move
// its simulated-time baseline.
// ---------------------------------------------------------------------------

struct PutGetSpec {
  uint64_t puts = 0;
  uint64_t gets = 0;
  /// Key ids are rng.next() % key_modulus, matching the historical loops.
  uint64_t key_modulus = 1;
  size_t value_bytes = 100;
  uint64_t seed = 0;
  /// id → key string (each caller keeps its exact historical format).
  std::function<std::string(uint64_t)> key_of;
  /// Scans issued after the gets, each from key_of(0), this many pairs.
  uint64_t scans = 0;
  size_t scan_limit = 0;
  /// Count non-OK ops instead of CHECK-failing (the CLI's fault-injection
  /// path, where surfaced give-ups are expected).
  bool tolerate_failures = false;
};

struct PutGetResult {
  uint64_t failed_ops = 0;
  uint64_t get_hits = 0;
};

/// puts × put(key_of(rng.next() % modulus), 'v'*value_bytes), then gets ×
/// get(same draw), then the scans. RNG draw order is identical to the
/// loops this replaces, so simulated time is too.
PutGetResult run_put_get(kv::Dictionary& dict, const PutGetSpec& spec);

/// checkpoint() until OK, at most `max_attempts` extra draws; returns the
/// last status (OK iff the checkpoint landed).
Status checkpoint_with_retries(kv::Dictionary& dict, int max_attempts);

// ---------------------------------------------------------------------------
// Fault soak (integration tests).
// ---------------------------------------------------------------------------

struct SoakSpec {
  uint64_t ops = 4000;
  uint64_t key_space = 4000;
  size_t value_bytes = 100;
  uint64_t seed = 0;
  int checkpoint_attempts = 200;
  int verify_read_attempts = 200;
};

struct SoakReport {
  uint64_t ok_ops = 0;
  uint64_t failed_ops = 0;
  bool checkpoint_ok = false;
  /// Human-readable contract violations (phantom/lost/mismatched keys,
  /// checkpoint or verify failures). Empty on a clean soak.
  std::vector<std::string> violations;
};

/// Mixed put/erase/get soak through the try_* APIs against a reference
/// model. Failed mutations mark their key "uncertain" (old-or-new state is
/// both legal); everything that reported success must be durable, verified
/// by a final sweep after checkpoint-until-clean.
SoakReport run_fault_soak(kv::Dictionary& dict, const SoakSpec& spec);

}  // namespace damkit::harness
