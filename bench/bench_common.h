// Shared helpers for the bench binaries: a tiny flag parser (--quick
// scales everything down; --seed sets determinism) and a banner printer
// so every bench states what it reproduces.
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

inline void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--quick] [--seed N] [--csv-prefix P] [--threads N] "
               "[--metrics-json FILE] [--codec identity|prefix|lz] "
               "[--queue-depth N] [--completion-mode polling|interrupt] "
               "[--workload %s]\n",
               argv0, kv::workload_preset_names());
}

[[noreturn]] inline void usage_error(const char* argv0,
                                     const std::string& msg) {
  std::fprintf(stderr, "%s\n", msg.c_str());
  print_usage(stderr, argv0);
  std::exit(2);
}

/// Parses the shared bench flags. An unknown flag, a flag missing its
/// value, or a bad value prints the usage text and exits 2, so a typo
/// cannot run a bench on defaults.
inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto is = [flag](const char* name) {
      return std::strcmp(flag, name) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage_error(argv[0], std::string(flag) + " wants a value");
      }
      return argv[++i];
    };
    if (is("--quick")) {
      args.quick = true;
    } else if (is("--help")) {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else if (is("--seed")) {
      args.seed = std::strtoull(value(), nullptr, 10);
    } else if (is("--csv-prefix")) {
      args.csv_prefix = value();
    } else if (is("--threads")) {
      args.threads = static_cast<int>(std::strtol(value(), nullptr, 10));
      if (args.threads < 1) args.threads = 1;
    } else if (is("--metrics-json")) {
      args.metrics_json = value();
    } else if (is("--codec")) {
      const auto parsed = blockdev::parse_codec_kind(value());
      if (!parsed.has_value()) {
        usage_error(argv[0], "unknown --codec (want identity|prefix|lz)");
      }
      args.codec = *parsed;
    } else if (is("--queue-depth")) {
      args.queue_depth = static_cast<int>(std::strtol(value(), nullptr, 10));
      if (args.queue_depth < 1) {
        usage_error(argv[0], "--queue-depth wants a positive integer");
      }
    } else if (is("--completion-mode")) {
      const char* mode = value();
      if (std::strcmp(mode, "polling") == 0) {
        args.completion_mode = sim::CompletionMode::kPolling;
      } else if (std::strcmp(mode, "interrupt") == 0) {
        args.completion_mode = sim::CompletionMode::kInterrupt;
      } else {
        usage_error(argv[0],
                    "unknown --completion-mode (want polling|interrupt)");
      }
      args.has_completion_mode = true;
    } else if (is("--workload")) {
      args.workload = value();
      args.workload_spec = kv::make_workload_preset(args.workload);
      if (!args.workload_spec.has_value()) {
        usage_error(argv[0], std::string("unknown --workload (want ") +
                                 kv::workload_preset_names() + ")");
      }
    } else {
      usage_error(argv[0], std::string("unknown flag ") + flag);
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
