// Shared helpers for the table/figure reproduction binaries: a tiny flag
// parser (--quick scales everything down; --seed sets determinism) and a
// banner printer so every bench states what it reproduces.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "blockdev/codec.h"
#include "kv/workload.h"
#include "sim/ssd.h"
#include "stats/metrics.h"

namespace damkit::bench {

struct BenchArgs {
  bool quick = false;    // reduced scale for smoke runs
  uint64_t seed = 42;
  std::string csv_prefix = "results/";
  /// Host threads for sweep parallelism. Each sweep point owns its device
  /// and RNG, so any value produces identical output — more threads only
  /// finish sooner.
  int threads = 1;
  /// When non-empty, benches that collect a MetricsRegistry write its JSON
  /// snapshot here (CI's regression gate consumes it).
  std::string metrics_json;
  /// Block codec for benches that build engines through EngineFactory.
  /// kDefault keeps the factory's resolution (DAMKIT_CODEC env, else
  /// identity); --codec identity|prefix|lz overrides it.
  blockdev::CodecKind codec = blockdev::CodecKind::kDefault;
  /// Concurrent clients for benches that drive the serving layer
  /// (run_concurrent); 1 keeps the sequential path.
  uint64_t clients = 1;
  /// Per-client admission depth for the serving layer.
  uint64_t inflight = 4;
  /// NVMe submission-queue depth override for MQ-device benches
  /// (--queue-depth; 0 keeps the device profile's default).
  int queue_depth = 0;
  /// Completion-mode override for MQ-device benches (--completion-mode
  /// polling|interrupt; unset keeps the profile's default).
  bool has_completion_mode = false;
  sim::CompletionMode completion_mode = sim::CompletionMode::kInterrupt;
  /// Named workload preset (--workload ycsb-a..ycsb-f|shift|olap) for
  /// benches that drive an OpGenerator mix; empty keeps each bench's
  /// built-in spec. `workload_spec` is the validated preset.
  std::string workload;
  std::optional<kv::WorkloadSpec> workload_spec;

  /// Applies the MQ overrides to an SSD profile.
  sim::SsdConfig apply_mq_overrides(sim::SsdConfig cfg) const {
    if (queue_depth > 0) cfg.queue_depth = queue_depth;
    if (has_completion_mode) cfg.completion_mode = completion_mode;
    return cfg;
  }
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--csv-prefix") == 0 && i + 1 < argc) {
      args.csv_prefix = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      args.threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (args.threads < 1) args.threads = 1;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      args.metrics_json = argv[++i];
    } else if (std::strcmp(argv[i], "--codec") == 0 && i + 1 < argc) {
      const auto parsed = blockdev::parse_codec_kind(argv[++i]);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "unknown --codec (want identity|prefix|lz)\n");
        std::exit(2);
      }
      args.codec = *parsed;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      args.clients = std::strtoull(argv[++i], nullptr, 10);
      if (args.clients < 1) args.clients = 1;
    } else if (std::strcmp(argv[i], "--inflight") == 0 && i + 1 < argc) {
      args.inflight = std::strtoull(argv[++i], nullptr, 10);
      if (args.inflight < 1) args.inflight = 1;
    } else if (std::strcmp(argv[i], "--queue-depth") == 0 && i + 1 < argc) {
      args.queue_depth = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (args.queue_depth < 1) {
        std::fprintf(stderr, "--queue-depth wants a positive integer\n");
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--completion-mode") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "polling") == 0) {
        args.completion_mode = sim::CompletionMode::kPolling;
      } else if (std::strcmp(mode, "interrupt") == 0) {
        args.completion_mode = sim::CompletionMode::kInterrupt;
      } else {
        std::fprintf(stderr,
                     "unknown --completion-mode (want polling|interrupt)\n");
        std::exit(2);
      }
      args.has_completion_mode = true;
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      args.workload = argv[++i];
      args.workload_spec = kv::make_workload_preset(args.workload);
      if (!args.workload_spec.has_value()) {
        std::fprintf(stderr, "unknown --workload (want %s)\n",
                     kv::workload_preset_names());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--quick] [--seed N] [--csv-prefix P] [--threads N] "
          "[--metrics-json FILE] [--codec identity|prefix|lz] "
          "[--clients K] [--inflight D] [--queue-depth N] "
          "[--completion-mode polling|interrupt] [--workload %s]\n",
          argv[0], kv::workload_preset_names());
      std::exit(0);
    }
  }
  // The default prefix points into results/; create the directory so a
  // fresh checkout (or a custom DIR/ prefix) can write CSVs immediately.
  const std::filesystem::path dir =
      std::filesystem::path(args.csv_prefix).parent_path();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  return args;
}

/// Write `reg`'s JSON snapshot to `path`; returns false (with a message on
/// stderr) if the file cannot be written.
inline bool write_metrics_json(const stats::MetricsRegistry& reg,
                               const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write metrics JSON to %s\n", path.c_str());
    return false;
  }
  const std::string json = reg.to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("metrics JSON written to %s\n", path.c_str());
  return true;
}

inline void banner(const char* what, const char* paper_ref) {
  std::printf("damkit reproduction bench: %s\n", what);
  std::printf("paper reference: %s (Bender et al., SPAA '19)\n", paper_ref);
}

}  // namespace damkit::bench
