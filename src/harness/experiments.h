// Shared experiment runners behind the paper's tables and figures. Each
// bench binary configures one of these and prints the rows; tests drive
// them at reduced scale to pin the qualitative results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/fitting.h"
#include "kv/engine.h"
#include "pdam_tree/pdam_btree.h"
#include "sim/hdd.h"
#include "sim/ssd.h"

namespace damkit::harness {

// ---------------------------------------------------------------------------
// §4.2 / Table 2: affine microbenchmark on an HDD.
// ---------------------------------------------------------------------------

struct AffineExperimentConfig {
  std::vector<uint64_t> io_sizes;  // default: 4 KiB … 16 MiB, ×2 ladder
  int reads_per_size = 64;         // the paper issues 64 per size
  uint64_t seed = 17;
  /// Host threads running sweep points concurrently (one device + RNG per
  /// point, so results are identical for any value). Same knob on every
  /// sweep config below.
  int threads = 1;
};

struct AffineExperimentResult {
  std::vector<AffineSample> samples;
  AffineFit fit;
};

AffineExperimentResult run_affine_experiment(const sim::HddConfig& hdd,
                                             AffineExperimentConfig config);

// ---------------------------------------------------------------------------
// §4.1 / Table 1 / Figure 1: PDAM microbenchmark on an SSD.
// ---------------------------------------------------------------------------

struct PdamExperimentConfig {
  std::vector<int> thread_counts = {1, 2, 4, 8, 16, 32, 64};
  uint64_t bytes_per_thread = 1ULL << 30;  // paper: 10 GiB; scaled to 1 GiB
  uint64_t io_bytes = 64 * 1024;
  uint64_t seed = 23;
  int threads = 1;
};

struct PdamExperimentResult {
  std::vector<PdamSample> samples;
  PdamFit fit;
};

PdamExperimentResult run_pdam_experiment(const sim::SsdConfig& ssd,
                                         PdamExperimentConfig config);

// ---------------------------------------------------------------------------
// MQ refit (ROADMAP item 2): the §4.1 protocol against the multi-queue
// device, fitted to both models so benches can show where they diverge.
// ---------------------------------------------------------------------------

struct MqExperimentConfig {
  std::vector<int> client_counts = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64};
  uint64_t ios_per_client = 2048;
  uint64_t io_bytes = 16 * 1024;
  uint64_t seed = 41;
  int threads = 1;
};

struct MqExperimentResult {
  std::vector<MqSample> samples;
  MqFit fit;
  /// The same sweep viewed through the paper's §4.1 methodology: a
  /// two-segment regression whose breakpoint would be "P". On an MQ
  /// device the left segment is not flat (lat grows with q from q = 1),
  /// so this fit is the PDAM's best — and wrong — reading of the device.
  std::vector<PdamSample> pdam_samples;
  PdamFit pdam_fit;
};

/// Runs the closed-loop sweep on a sim::MqSsdDevice built from `ssd`
/// (which carries the MQ knobs) and fits both models.
MqExperimentResult run_mq_experiment(const sim::SsdConfig& ssd,
                                     MqExperimentConfig config);

// ---------------------------------------------------------------------------
// §7 / Figures 2–3: node-size sweeps for the dictionaries.
// ---------------------------------------------------------------------------

struct SweepConfig {
  kv::EngineKind kind = kv::EngineKind::kBTree;
  std::vector<uint64_t> node_sizes;
  uint64_t items = 1'000'000;   // bulk-loaded data set
  size_t key_bytes = 16;
  size_t value_bytes = 100;
  double cache_ratio = 0.25;    // cache = ratio × data bytes (paper: 4/16)
  uint64_t queries = 2000;      // measured random point queries
  uint64_t inserts = 2000;      // measured random inserts
  size_t betree_fanout = 0;     // 0 = sqrt(B) default
  uint64_t seed = 31;
  int threads = 1;
};

struct SweepPoint {
  uint64_t node_bytes = 0;
  double query_ms = 0.0;    // mean simulated milliseconds per point query
  double query_io_bytes = 0.0;  // mean bytes per device read (queries)
  double insert_ms = 0.0;   // mean simulated milliseconds per insert
  double write_amp = 0.0;   // device bytes written / logical bytes (inserts)
  double cache_hit_rate = 0.0;
  size_t height = 0;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  /// Affine overlay fitted to the measured query times (the black line in
  /// Figures 2–3): predicted_ms(B) from the device's (s, t) and the
  /// tree's uncached height.
  std::vector<double> affine_query_ms;
  std::vector<double> affine_insert_ms;
};

/// Runs the sweep on the given HDD profile (the §7 testbed is HDD-based).
SweepResult run_nodesize_sweep(const sim::HddConfig& hdd, SweepConfig config);

// ---------------------------------------------------------------------------
// Write-amplification experiment (Lemma 3 vs Theorem 4.4).
// ---------------------------------------------------------------------------

struct WriteAmpConfig {
  std::vector<uint64_t> node_sizes;
  uint64_t items = 200'000;
  uint64_t updates = 20'000;
  size_t key_bytes = 16;
  size_t value_bytes = 100;
  double cache_ratio = 0.1;
  uint64_t seed = 37;
  int threads = 1;
};

struct WriteAmpPoint {
  uint64_t node_bytes = 0;
  double btree_write_amp = 0.0;
  double betree_write_amp = 0.0;
};

std::vector<WriteAmpPoint> run_write_amp_experiment(const sim::HddConfig& hdd,
                                                    WriteAmpConfig config);

// ---------------------------------------------------------------------------
// §8 / Lemma 13: step-driven PDAM B-tree query runs.
// ---------------------------------------------------------------------------

struct PdamQueryPoint {
  int clients = 0;
  pdam_tree::PdamBTree::RunResult result;
};

struct PdamQueryRun {
  std::vector<PdamQueryPoint> points;  // one per requested client count
  int global_height = 0;
  int node_height = 0;
  uint64_t node_blocks = 0;
  uint64_t keys = 0;
  /// Step-driven clients answer lower_bound exactly (checked against
  /// std::lower_bound on random probes).
  bool oracle_ok = true;
};

/// Builds one static PdamBTree over `sorted_keys` and runs the PDAM step
/// scheduler once per entry of `client_counts` (each run_queries call uses
/// `seed`, matching the historical per-bench loops).
PdamQueryRun run_pdam_tree_queries(const std::vector<uint64_t>& sorted_keys,
                                   const pdam_tree::PdamTreeConfig& config,
                                   const std::vector<int>& client_counts,
                                   uint64_t queries_per_client, uint64_t seed);

}  // namespace damkit::harness
