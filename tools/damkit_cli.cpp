// damkit — command-line front end.
//
//   damkit devices                         list calibrated device profiles
//   damkit fit hdd <index>                 run §4.2 and fit the affine model
//   damkit fit ssd <index>                 run §4.1 and fit the PDAM
//   damkit fit mq                          sweep the MQ testbed, fit MqModel
//   damkit optimize <alpha> [entry_bytes]  Cor 6/7/12 design guidance
//   damkit trace stats <file.csv>          analyze a recorded IO trace
//   damkit trace replay <file.csv> <hdd-index|ssd:index>  what-if replay
//   damkit metrics [...]                   run a demo workload, dump metrics
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "damkit.h"

namespace {

using namespace damkit;

int usage() {
  std::puts(
      "usage:\n"
      "  damkit devices\n"
      "  damkit fit hdd <index 0-4>\n"
      "  damkit fit ssd <index 0-3>\n"
      "  damkit fit mq\n"
      "  damkit optimize <alpha-per-entry> [entry_bytes]\n"
      "  damkit trace stats <file.csv>\n"
      "  damkit trace replay <file.csv> <hdd:IDX | ssd:IDX>\n"
      "  damkit metrics [--engine btree|betree|opt-betree|lsm|pdam]\n"
      "                 [--codec identity|prefix|lz] [--shards N]\n"
      "                 [--device hdd|ssd|mq-ssd|hdd:IDX|ssd:IDX] [--ops N]\n"
      "                 [--json FILE] [--trace FILE]\n"
      "                 [--fault-seed SEED] [--fault-rate R]\n"
      "                 [--clients K] [--inflight D]\n"
      "                 [--queue-depth N] [--completion-mode "
      "polling|interrupt]\n"
      "                 [--wal] [--crash-at IO]\n"
      "                 [--workload ycsb-a..ycsb-f|shift|olap]\n"
      "\n"
      "  --workload swaps the demo loop for a named scenario (YCSB core\n"
      "  workloads A-F, a time-shifting Zipfian hot set, or an OLTP mix\n"
      "  with periodic OLAP scan bursts), driven through WorkloadRunner\n"
      "  with a result digest.\n"
      "  --wal wraps the engine in the write-ahead log + snapshot layer\n"
      "  (crash-consistent durability; off by default). --crash-at N kills\n"
      "  the device at its N-th checked IO, then reboots and recovers —\n"
      "  requires --wal.\n"
      "  --device mq-ssd is the multi-queue NVMe model (per-client SQ/CQ\n"
      "  pairs); --queue-depth and --completion-mode tune its admission\n"
      "  bound and completion cost (they also apply to plain ssd profiles,\n"
      "  which ignore them).");
  return 2;
}

int cmd_devices() {
  Table hdds({"#", "HDD", "year", "capacity", "rpm", "expected s (ms)",
              "t (us/4K)"});
  const auto hdd_profiles = sim::paper_hdd_profiles();
  for (size_t i = 0; i < hdd_profiles.size(); ++i) {
    const auto& h = hdd_profiles[i];
    hdds.add_row({strfmt("%zu", i), h.name, strfmt("%d", h.year),
                  format_bytes(h.capacity_bytes), strfmt("%.0f", h.rpm),
                  strfmt("%.1f", h.expected_setup_s() * 1e3),
                  strfmt("%.1f",
                         h.expected_transfer_s_per_byte() * 4096 * 1e6)});
  }
  std::fputs(hdds.to_string().c_str(), stdout);

  Table ssds({"#", "SSD", "capacity", "channels", "dies", "saturated MB/s"});
  const auto ssd_profiles = sim::paper_ssd_profiles();
  for (size_t i = 0; i < ssd_profiles.size(); ++i) {
    const auto& s = ssd_profiles[i];
    ssds.add_row({strfmt("%zu", i), s.name, format_bytes(s.capacity_bytes),
                  strfmt("%d", s.channels), strfmt("%d", s.total_dies()),
                  strfmt("%.0f", s.saturated_read_bps() / 1e6)});
  }
  std::fputs(ssds.to_string().c_str(), stdout);
  std::puts("(testbed profiles: sim::testbed_hdd_profile(), "
            "sim::testbed_ssd_profile(), sim::testbed_mq_profile())");
  return 0;
}

int cmd_fit_hdd(size_t index) {
  const auto profiles = sim::paper_hdd_profiles();
  if (index >= profiles.size()) return usage();
  std::printf("running the Table-2 microbenchmark on %s ...\n",
              profiles[index].name.c_str());
  const auto res =
      harness::run_affine_experiment(profiles[index], {});
  std::printf("affine fit: s = %.4f s, t = %.1f us/4KiB, alpha = %.4f, "
              "R^2 = %.4f\n",
              res.fit.s, res.fit.t_per_4k * 1e6, res.fit.alpha, res.fit.r2);
  std::printf("half-bandwidth point: %s\n",
              format_bytes(static_cast<uint64_t>(
                               res.fit.s / res.fit.t_per_byte))
                  .c_str());
  return 0;
}

int cmd_fit_ssd(size_t index) {
  const auto profiles = sim::paper_ssd_profiles();
  if (index >= profiles.size()) return usage();
  std::printf("running the Table-1 microbenchmark on %s (1 GiB/thread, "
              "p = 1..64) ...\n",
              profiles[index].name.c_str());
  const auto res = harness::run_pdam_experiment(profiles[index], {});
  std::printf("PDAM fit: P = %.1f, saturated = %.0f MB/s, R^2 = %.3f\n",
              res.fit.p, res.fit.saturated_mbps, res.fit.r2);
  for (const auto& s : res.samples) {
    std::printf("  p=%2d  %8.2f s\n", s.threads, s.seconds);
  }
  return 0;
}

int cmd_fit_mq() {
  const sim::SsdConfig profile = sim::testbed_mq_profile();
  std::printf("running the §4.1-style closed-loop sweep on %s "
              "(1..64 clients) ...\n",
              profile.name.c_str());
  const auto res = harness::run_mq_experiment(profile, {});
  std::printf("MQ fit:   l0 = %.0f us, beta = %.1f us/client, saturated = "
              "%.1fk IOPS, R^2 = %.4f\n",
              res.fit.l0_s * 1e6, res.fit.beta_s * 1e6,
              res.fit.saturated_iops / 1e3, res.fit.r2);
  std::printf("PDAM refit on the same sweep: P = %.1f (R^2 = %.3f) — "
              "compare the mid-range rows below\n",
              res.pdam_fit.p, res.pdam_fit.r2);
  const double t1 = res.samples.empty() ? 1.0 : res.samples[0].seconds;
  for (const auto& s : res.samples) {
    std::printf("  q=%2d  %8.3f s  (%.2fx the single-client time)\n",
                s.clients, s.seconds, s.seconds / t1);
  }
  return 0;
}

int cmd_optimize(double alpha, double entry_bytes) {
  if (alpha <= 0.0 || alpha >= 0.5) {
    std::puts("alpha must be in (0, 0.5): it is t/s per entry");
    return 2;
  }
  const auto to_bytes = [&](double elems) {
    return format_bytes(static_cast<uint64_t>(elems * entry_bytes));
  };
  std::printf("alpha = %g per entry (%g-byte entries)\n", alpha, entry_bytes);
  std::printf("half-bandwidth point (Cor 6):   %s\n",
              to_bytes(model::half_bandwidth_node_size(alpha)).c_str());
  std::printf("optimal B-tree node (Cor 7):    %s\n",
              to_bytes(model::optimal_btree_node_size(alpha)).c_str());
  const auto c = model::optimal_betree_choice(alpha);
  std::printf("Cor 12 Be-tree: fanout %.0f, node %s\n", c.fanout,
              to_bytes(c.node_size).c_str());
  model::TreeParams p;
  p.alpha = alpha;
  std::printf("insert speedup over the optimal B-tree: %.1fx\n",
              model::corollary12_insert_speedup(p));
  return 0;
}

int cmd_trace_stats(const char* path) {
  const sim::IoTrace trace = sim::IoTrace::load(path);
  std::printf("%zu IOs, %s total\n", trace.size(),
              format_bytes(trace.total_bytes()).c_str());
  std::printf("sequential fraction: %.1f%%\n",
              trace.sequential_fraction() * 100.0);
  std::printf("mean inter-IO gap:   %s\n",
              format_bytes(static_cast<uint64_t>(trace.mean_seek_bytes()))
                  .c_str());
  return 0;
}

int cmd_trace_replay(const char* path, const std::string& target) {
  const sim::IoTrace trace = sim::IoTrace::load(path);
  const auto colon = target.find(':');
  if (colon == std::string::npos) return usage();
  const std::string kind = target.substr(0, colon);
  const size_t index = std::strtoul(target.c_str() + colon + 1, nullptr, 10);
  sim::SimTime t = 0;
  std::string name;
  if (kind == "hdd") {
    const auto profiles = sim::paper_hdd_profiles();
    if (index >= profiles.size()) return usage();
    sim::HddDevice dev(profiles[index]);
    t = sim::replay_trace(dev, trace);
    name = dev.name();
  } else if (kind == "ssd") {
    const auto profiles = sim::paper_ssd_profiles();
    if (index >= profiles.size()) return usage();
    sim::SsdDevice dev(profiles[index]);
    t = sim::replay_trace(dev, trace);
    name = dev.name();
  } else {
    return usage();
  }
  std::printf("replay on %s: %.3f simulated seconds (%zu IOs)\n",
              name.c_str(), sim::to_seconds(t), trace.size());
  return 0;
}

// MQ knobs a --device spec may override. queue_depth 0 and an empty
// completion_mode keep the profile's defaults; plain SSD/HDD models
// ignore both.
struct DeviceOverrides {
  int queue_depth = 0;
  std::string completion_mode;

  // Returns false on an unknown completion mode.
  bool apply(sim::SsdConfig& profile) const {
    if (queue_depth > 0) profile.queue_depth = queue_depth;
    if (completion_mode == "polling") {
      profile.completion_mode = sim::CompletionMode::kPolling;
    } else if (completion_mode == "interrupt") {
      profile.completion_mode = sim::CompletionMode::kInterrupt;
    } else if (!completion_mode.empty()) {
      return false;
    }
    return true;
  }
};

// Build the device named by `spec`: "hdd"/"ssd"/"mq-ssd" (testbed
// profiles) or "hdd:IDX"/"ssd:IDX" (paper profiles). Returns nullptr on a
// bad spec.
std::unique_ptr<sim::Device> make_device(const std::string& spec,
                                         const DeviceOverrides& over = {}) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  if (kind == "hdd") {
    auto profile = sim::testbed_hdd_profile();
    if (colon != std::string::npos) {
      const auto profiles = sim::paper_hdd_profiles();
      const size_t index =
          std::strtoul(spec.c_str() + colon + 1, nullptr, 10);
      if (index >= profiles.size()) return nullptr;
      profile = profiles[index];
    }
    return std::make_unique<sim::HddDevice>(profile);
  }
  if (kind == "ssd") {
    auto profile = sim::testbed_ssd_profile();
    if (colon != std::string::npos) {
      const auto profiles = sim::paper_ssd_profiles();
      const size_t index =
          std::strtoul(spec.c_str() + colon + 1, nullptr, 10);
      if (index >= profiles.size()) return nullptr;
      profile = profiles[index];
    }
    if (!over.apply(profile)) return nullptr;
    return std::make_unique<sim::SsdDevice>(profile);
  }
  if (kind == "mq-ssd" && colon == std::string::npos) {
    auto profile = sim::testbed_mq_profile();
    if (!over.apply(profile)) return nullptr;
    return std::make_unique<sim::MqSsdDevice>(profile);
  }
  return nullptr;
}

// Canned demo workload: load any of the five engines (or a sharded
// composition of them) through the EngineFactory, run a mixed read/write
// phase, and checkpoint, collecting metrics from every layer it touched.
// With --fault-seed the device is wrapped in a FaultInjectingDevice and
// failed ops are counted instead of aborting: every injected fault is
// either retried away by the engine or surfaced (and counted) as a failed
// operation — never an abort.
int cmd_metrics(int argc, char** argv) {
  std::string device_spec = "ssd";
  std::string json_path;
  std::string trace_path;
  kv::EngineKind kind = kv::EngineKind::kBeTree;
  // Unset keeps the factory default (kDefault → DAMKIT_CODEC → identity).
  blockdev::CodecKind codec = blockdev::CodecKind::kDefault;
  size_t shards = 1;
  uint64_t ops = 20000;
  uint64_t fault_seed = 0;  // 0 = fault injection off
  double fault_rate = 0.01;
  uint64_t clients = 1;  // > 1 serves through run_concurrent
  uint64_t inflight = 4;
  DeviceOverrides overrides;  // --queue-depth / --completion-mode
  bool use_wal = false;   // wrap the engine in the durability layer
  uint64_t crash_at = 0;  // kill the device at this checked IO (0 = never)
  std::string workload;   // named preset; empty keeps the legacy demo loop
  std::optional<kv::WorkloadSpec> preset;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    if (arg == "--device" && has_next) {
      device_spec = argv[++i];
    } else if (arg == "--engine" && has_next) {
      const std::optional<kv::EngineKind> parsed =
          kv::parse_engine_kind(argv[++i]);
      if (!parsed.has_value()) return usage();
      kind = *parsed;
    } else if (arg == "--codec" && has_next) {
      const std::optional<blockdev::CodecKind> parsed =
          blockdev::parse_codec_kind(argv[++i]);
      if (!parsed.has_value()) return usage();
      codec = *parsed;
    } else if (arg == "--shards" && has_next) {
      shards = std::strtoul(argv[++i], nullptr, 10);
      if (shards == 0) return usage();
    } else if (arg == "--ops" && has_next) {
      ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--json" && has_next) {
      json_path = argv[++i];
    } else if (arg == "--trace" && has_next) {
      trace_path = argv[++i];
    } else if (arg == "--fault-seed" && has_next) {
      fault_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--fault-rate" && has_next) {
      fault_rate = std::strtod(argv[++i], nullptr);
    } else if (arg == "--clients" && has_next) {
      clients = std::strtoull(argv[++i], nullptr, 10);
      if (clients == 0) return usage();
    } else if (arg == "--inflight" && has_next) {
      inflight = std::strtoull(argv[++i], nullptr, 10);
      if (inflight == 0) return usage();
    } else if (arg == "--queue-depth" && has_next) {
      overrides.queue_depth =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (overrides.queue_depth < 1) return usage();
    } else if (arg == "--completion-mode" && has_next) {
      overrides.completion_mode = argv[++i];
      if (overrides.completion_mode != "polling" &&
          overrides.completion_mode != "interrupt") {
        return usage();
      }
    } else if (arg == "--workload" && has_next) {
      workload = argv[++i];
      preset = kv::make_workload_preset(workload);
      if (!preset.has_value()) {
        std::fprintf(stderr, "unknown --workload (want %s)\n",
                     kv::workload_preset_names());
        return usage();
      }
    } else if (arg == "--wal") {
      use_wal = true;
    } else if (arg == "--crash-at" && has_next) {
      crash_at = std::strtoull(argv[++i], nullptr, 10);
      if (crash_at == 0) return usage();
    } else {
      return usage();
    }
  }
  // A crash demo without the durability layer has nothing to recover.
  if (crash_at != 0 && !use_wal) return usage();
  std::unique_ptr<sim::Device> inner = make_device(device_spec, overrides);
  if (inner == nullptr || ops == 0) return usage();
  if (fault_rate < 0.0 || fault_rate > 1.0) return usage();

  std::unique_ptr<sim::FaultInjectingDevice> faulty;
  if (fault_seed != 0 || crash_at != 0) {
    sim::FaultConfig fcfg;
    fcfg.seed = fault_seed != 0 ? fault_seed : 1;
    if (fault_seed != 0) {
      fcfg.read_error_rate = fault_rate;
      fcfg.write_error_rate = fault_rate;
      fcfg.torn_write_rate = fault_rate / 4.0;
      fcfg.latency_spike_rate = fault_rate;
    }
    fcfg.crash_at_io = crash_at;
    faulty = std::make_unique<sim::FaultInjectingDevice>(*inner, fcfg);
  }
  sim::Device& dev = (faulty != nullptr)
                         ? static_cast<sim::Device&>(*faulty)
                         : *inner;

  stats::TraceBuffer events;
  dev.set_event_trace(&events);
  sim::IoContext io(dev);

  kv::EngineConfig config;
  config.betree.node_bytes = 256 * 1024;
  config.betree.cache_bytes = 4 * 1024 * 1024;
  config.codec = codec;
  kv::ShardedConfig sharded;
  sharded.shards = shards;
  const auto make_inner = [&]() {
    return kv::make_sharded_engine(kind, dev, io, config, sharded);
  };
  wal::DurabilityConfig durability;
  std::unique_ptr<kv::Dictionary> tree = make_inner();
  if (use_wal) {
    durability = wal::default_durability_config(inner->capacity_bytes());
    tree = wal::make_durable(std::move(tree), dev, io, durability);
  }
  tree->set_event_trace(&events);

  uint64_t get_hits = 0;
  uint64_t failed_ops = 0;
  std::optional<harness::ConcurrentRunResult> served;
  std::optional<harness::WorkloadRunResult> seq_run;
  if (clients > 1) {
    // Concurrent serving demo: bulk-load, then serve a mixed workload to
    // k clients with the requested admission depth, replaying the
    // concurrent timeline on a fresh same-spec device.
    harness::WorkloadRunner runner(*tree, io);
    kv::WorkloadSpec wspec;
    if (preset.has_value()) {
      wspec = *preset;
    } else {
      wspec.value_bytes = 100;
      wspec.get_weight = 0.4;
      wspec.put_weight = 0.4;
      wspec.delete_weight = 0.05;
      wspec.scan_weight = 0.05;
      wspec.upsert_weight = 0.1;
      wspec.scan_length = 50;
    }
    wspec.key_space = ops * 4;
    wspec.seed = 42;
    runner.bulk_load(ops / 2, wspec);
    harness::ConcurrentRunOptions copts;
    copts.clients = clients;
    copts.inflight = inflight;
    copts.fallible = true;
    copts.replay_device_factory = [&device_spec, &overrides] {
      return make_device(device_spec, overrides);
    };
    if (const auto* ssd = dynamic_cast<const sim::SsdDevice*>(inner.get())) {
      const sim::SsdConfig scfg = ssd->config();
      copts.lanes = static_cast<size_t>(scfg.total_dies());
      copts.lane_of = [scfg](uint64_t offset) {
        return static_cast<size_t>(scfg.die_of(offset));
      };
    }
    served = runner.run_concurrent(wspec, ops, copts);
    get_hits = served->base.get_hits;
    failed_ops = served->base.failed_ops;
  } else if (preset.has_value()) {
    // Named-scenario demo: bulk-load, then drive the preset through the
    // generic runner (same path the cross-engine differential pins).
    kv::WorkloadSpec wspec = *preset;
    wspec.key_space = ops * 4;
    wspec.seed = 42;
    harness::WorkloadRunner runner(*tree, io);
    runner.bulk_load(ops / 2, wspec);
    harness::WorkloadRunOptions wopts;
    wopts.fallible = true;
    seq_run = runner.run(wspec, ops, wopts);
    get_hits = seq_run->get_hits;
    failed_ops = seq_run->failed_ops;
  } else {
    harness::PutGetSpec spec;
    spec.puts = ops;
    spec.gets = ops / 4;
    spec.key_modulus = ops * 4;
    spec.value_bytes = 100;
    spec.seed = 42;
    spec.key_of = [](uint64_t k) {
      return strfmt("key%012llu", static_cast<unsigned long long>(k));
    };
    spec.scans = 1;
    spec.scan_limit = 100;
    spec.tolerate_failures = faulty != nullptr;
    const harness::PutGetResult run = harness::run_put_get(*tree, spec);
    get_hits = run.get_hits;
    failed_ops = run.failed_ops;
  }
  // The armed crash can fire during the workload or inside the final
  // checkpoint below; either way the recovery path is the same.
  bool crashed = faulty != nullptr && faulty->crashed();
  if (!crashed) {
    const Status ckpt = harness::checkpoint_with_retries(*tree, 100);
    crashed = faulty != nullptr && faulty->crashed();
    if (!crashed) DAMKIT_CHECK_OK(ckpt);
  }
  if (crashed) {
    // The armed crash fired: drop the dead in-memory state, reboot the
    // device, and rebuild from the durable bytes alone — the same path
    // the crash-soak harness exercises.
    std::printf("crash: device died at checked IO %llu; rebooting and "
                "recovering from WAL + snapshot ...\n",
                static_cast<unsigned long long>(crash_at));
    tree->abandon();
    tree.reset();
    faulty->reboot();
    wal::RecoveryReport report;
    auto recovered =
        wal::DurableEngine::recover(make_inner, dev, io, durability, &report);
    DAMKIT_CHECK(recovered.ok());
    tree = std::move(*recovered);
    std::printf("recovery: %llu snapshot entries (lsn %llu), %llu WAL "
                "records replayed, durable lsn %llu, torn tail %s, "
                "%llu stale records\n",
                static_cast<unsigned long long>(report.snapshot_entries),
                static_cast<unsigned long long>(report.snapshot_lsn),
                static_cast<unsigned long long>(report.replayed_records),
                static_cast<unsigned long long>(report.durable_lsn),
                report.torn_tail ? "yes" : "no",
                static_cast<unsigned long long>(report.stale_records));
    // The checkpoint must land before the tree is destroyed (the
    // destructor treats dirty state as a programming error); the device
    // is healthy again after reboot().
    DAMKIT_CHECK_OK(harness::checkpoint_with_retries(*tree, 100));
  }

  stats::MetricsRegistry reg;
  dev.export_metrics(reg, "device.");
  tree->export_metrics(reg, std::string(kv::engine_kind_name(kind)) + ".");
  if (served.has_value()) {
    reg.set("serve.clients", static_cast<double>(clients));
    reg.set("serve.inflight", static_cast<double>(inflight));
    served->export_metrics(reg, "serve.");
  }

  if (served.has_value()) {
    std::printf(
        "serving: %llu ops, %llu clients (depth %llu) on %s (%s, %zu "
        "shard%s)\n",
        static_cast<unsigned long long>(ops),
        static_cast<unsigned long long>(clients),
        static_cast<unsigned long long>(inflight), dev.name().c_str(),
        std::string(kv::engine_kind_name(kind)).c_str(), shards,
        shards == 1 ? "" : "s");
    std::printf(
        "concurrent: %.3f s simulated (speedup %.2fx, %.0f ops/s), "
        "latency p50 %llu us, p99 %llu us, p999 %llu us\n",
        sim::to_seconds(served->concurrent_elapsed), served->speedup(),
        served->throughput_ops_per_sec(),
        static_cast<unsigned long long>(served->latency.percentile(50.0) /
                                        sim::kNsPerUs),
        static_cast<unsigned long long>(served->latency.percentile(99.0) /
                                        sim::kNsPerUs),
        static_cast<unsigned long long>(served->latency.percentile(99.9) /
                                        sim::kNsPerUs));
  } else if (seq_run.has_value()) {
    std::printf(
        "workload '%s': %llu ops (%llu puts, %llu gets [%llu hits], "
        "%llu deletes, %llu scans, %llu upserts), digest %llu on %s "
        "(%s, %zu shard%s)\n",
        workload.c_str(), static_cast<unsigned long long>(ops),
        static_cast<unsigned long long>(seq_run->puts),
        static_cast<unsigned long long>(seq_run->gets),
        static_cast<unsigned long long>(seq_run->get_hits),
        static_cast<unsigned long long>(seq_run->erases),
        static_cast<unsigned long long>(seq_run->scans),
        static_cast<unsigned long long>(seq_run->upserts),
        static_cast<unsigned long long>(seq_run->digest), dev.name().c_str(),
        std::string(kv::engine_kind_name(kind)).c_str(), shards,
        shards == 1 ? "" : "s");
  } else {
    std::printf("workload: %llu puts, %llu gets (%llu hits), 1 scan on %s "
                "(%s, %zu shard%s)\n",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(ops / 4),
                static_cast<unsigned long long>(get_hits),
                dev.name().c_str(),
                std::string(kv::engine_kind_name(kind)).c_str(), shards,
                shards == 1 ? "" : "s");
  }
  if (faulty != nullptr) {
    std::printf("faults: seed %llu, %llu injected "
                "(%llu read, %llu write, %llu torn, %llu spikes), "
                "%llu retries, %llu give-ups, %llu failed ops\n",
                static_cast<unsigned long long>(fault_seed),
                static_cast<unsigned long long>(
                    faulty->fault_stats().injected_errors()),
                static_cast<unsigned long long>(
                    faulty->fault_stats().injected_read_errors),
                static_cast<unsigned long long>(
                    faulty->fault_stats().injected_write_errors),
                static_cast<unsigned long long>(
                    faulty->fault_stats().injected_torn_writes),
                static_cast<unsigned long long>(
                    faulty->fault_stats().injected_latency_spikes),
                static_cast<unsigned long long>(
                    tree->retry_counters().retries),
                static_cast<unsigned long long>(
                    tree->retry_counters().give_ups),
                static_cast<unsigned long long>(failed_ops));
  }
  std::printf("simulated time: %.3f s\n\n", sim::to_seconds(io.now()));

  Table counters({"counter", "value"});
  reg.for_each_counter([&](const std::string& name, uint64_t value) {
    counters.add_row({name, strfmt("%llu",
                                   static_cast<unsigned long long>(value))});
  });
  std::fputs(counters.to_string().c_str(), stdout);

  Table gauges({"gauge", "value"});
  reg.for_each_gauge([&](const std::string& name, double value) {
    gauges.add_row({name, strfmt("%.6g", value)});
  });
  std::fputs(gauges.to_string().c_str(), stdout);

  Table histos({"histogram", "count", "mean", "p50", "p99", "max"});
  reg.for_each_histogram([&](const std::string& name, const Histogram& h) {
    histos.add_row({name,
                    strfmt("%llu", static_cast<unsigned long long>(h.count())),
                    strfmt("%.1f", h.mean()),
                    strfmt("%llu",
                           static_cast<unsigned long long>(h.percentile(50))),
                    strfmt("%llu",
                           static_cast<unsigned long long>(h.percentile(99))),
                    strfmt("%llu",
                           static_cast<unsigned long long>(h.max()))});
  });
  std::fputs(histos.to_string().c_str(), stdout);

  if (!json_path.empty()) {
    const std::string json = reg.to_json();
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("metrics JSON written to %s\n", json_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!events.dump_jsonl(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("%zu trace events written to %s\n", events.size(),
                trace_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "devices") return cmd_devices();
  if (cmd == "fit" && argc == 3 && std::strcmp(argv[2], "mq") == 0) {
    return cmd_fit_mq();
  }
  if (cmd == "fit" && argc == 4) {
    const size_t index = std::strtoul(argv[3], nullptr, 10);
    if (std::strcmp(argv[2], "hdd") == 0) return cmd_fit_hdd(index);
    if (std::strcmp(argv[2], "ssd") == 0) return cmd_fit_ssd(index);
  }
  if (cmd == "optimize" && (argc == 3 || argc == 4)) {
    return cmd_optimize(std::strtod(argv[2], nullptr),
                        argc == 4 ? std::strtod(argv[3], nullptr) : 128.0);
  }
  if (cmd == "trace" && argc >= 4 && std::strcmp(argv[2], "stats") == 0) {
    return cmd_trace_stats(argv[3]);
  }
  if (cmd == "trace" && argc == 5 && std::strcmp(argv[2], "replay") == 0) {
    return cmd_trace_replay(argv[3], argv[4]);
  }
  if (cmd == "metrics") return cmd_metrics(argc, argv);
  return usage();
}
