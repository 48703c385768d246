// perfbench: per-engine host throughput and tails on one named workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics, measured with only the outer
// timing decorator in place. --trace 1 runs every engine twice, untraced
// and traced (their rounds interleaved), checks that both passes agree bit
// for bit on digests and simulated metrics, writes the traced pass's spans
// to DIR/trace-NAME.jsonl, and prints the per-layer metrics. The last line
// of stdout is always the result object.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine_run.h"
#include "reference.h"
#include "stats/metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace kv = damkit::kv;
namespace sim = damkit::sim;

constexpr int kUntracedSetups = 3;  // setup_s is their median

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_build/out";
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// ---------------------------------------------------------------------------
// Statistics helpers
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for no values.
double quantile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

/// Mean of the middle half of `v` (the interquartile mean): as robust to
/// a few disturbed rounds as the median, with less noise of its own.
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quantile of a log-bucketed histogram, interpolated within the bucket
/// so that it is not pinned to bucket floors. damkit::Histogram splits
/// each power of two into 16 sub-buckets (values below 16 exactly).
double histogram_quantile(const damkit::Histogram& h, double q) {
  const double target = q * static_cast<double>(h.count());
  double seen = 0.0;
  double result = static_cast<double>(h.max());
  bool done = false;
  h.for_each_bucket([&](int index, uint64_t floor, uint64_t count) {
    if (done) return;
    const auto c = static_cast<double>(count);
    if (seen + c >= target) {
      const int log2 = index / 16;
      const double width = index < 16 ? 1.0 : std::ldexp(1.0, log2 - 4);
      result = static_cast<double>(floor) + (target - seen) / c * width;
      done = true;
    }
    seen += c;
  });
  return result;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(uint64_t num, uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

bool is_read(OpKind kind) {
  return kind == OpKind::kGet || kind == OpKind::kScan;
}

/// Interquartile mean over rounds of a quantile of the host latency (ns)
/// of the op calls (each round's checkpoint excluded), optionally only
/// reads (want_read 1) or writes (0).
double round_latency(const EngineRun& r, double q, int want_read) {
  std::vector<double> per_round;
  size_t begin = 0;
  for (size_t round = 0; round < r.round_end.size(); ++round) {
    std::vector<uint64_t> v;
    for (size_t i = begin; i < r.round_end[round]; ++i) {
      const OpSample& s = r.log.samples[i];
      if (s.kind == OpKind::kFlush) continue;
      if (want_read >= 0 && is_read(s.kind) != (want_read == 1)) continue;
      v.push_back(s.host_ns);
    }
    if (!v.empty()) {
      per_round.push_back(quantile(std::move(v), q) /
                          r.round_slowdown[round]);
    }
    begin = r.round_end[round];
  }
  return per_round.empty() ? 0.0 : interquartile_mean(std::move(per_round));
}

/// Interquartile mean over rounds of round ops ÷ round wall.
double round_ops_per_s(const EngineRun& r) {
  std::vector<double> rates;
  size_t begin = 0;
  for (size_t i = 0; i < r.round_s.size(); ++i) {
    size_t ops = 0;
    for (size_t j = begin; j < r.round_end[i]; ++j) {
      if (r.log.samples[j].kind != OpKind::kFlush) ++ops;
    }
    rates.push_back(static_cast<double>(ops) / r.round_s[i] *
                    r.round_slowdown[i]);
    begin = r.round_end[i];
  }
  return interquartile_mean(std::move(rates));
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Runs = std::vector<EngineRun>;

/// Median host slowdown over every round (reported, not applied: each
/// round is normalized by its own).
double median_slowdown(const Runs& runs) {
  std::vector<double> all;
  for (const EngineRun& r : runs) {
    all.insert(all.end(), r.round_slowdown.begin(), r.round_slowdown.end());
  }
  return median(std::move(all));
}

std::vector<Metric> end_to_end(const Runs& runs) {
  std::vector<Metric> m;
  uint64_t ops = 0, device_written = 0, user_written = 0;
  sim::SimTime sim_total = 0;
  damkit::Histogram sim_latency;
  std::vector<double> setup_totals(runs.front().setup_s.size(), 0.0);
  for (const EngineRun& r : runs) {
    m.push_back({r.name + ".ops_per_s", round_ops_per_s(r), "ops/s"});
    m.push_back({r.name + ".p99_us", round_latency(r, 0.99, -1) / 1e3, "us"});
    ops += r.ops;
    sim_total += r.sim_elapsed;
    device_written += r.device.bytes_written;
    user_written += r.log.user_bytes_written;
    sim_latency.merge(r.sim_latency);
    for (size_t i = 0; i < setup_totals.size(); ++i) {
      setup_totals[i] += r.setup_s[i] / r.setup_slowdown[i];
    }
  }
  m.push_back({"setup_s", median(setup_totals), "s"});
  m.push_back({"sim_ops_per_s",
               static_cast<double>(ops) / sim::to_seconds(sim_total),
               "ops/sim_s"});
  m.push_back({"sim_p99_us", histogram_quantile(sim_latency, 0.99) / 1e3,
               "sim_us"});
  m.push_back({"write_amp", ratio(device_written, user_written), "ratio"});
  m.push_back({"rss_mb", peak_rss_mib(), "MiB"});
  return m;
}

/// Per-layer metrics: latencies and simulated rates from the untraced
/// pass, self times from the traced pass, counters from either (they are
/// identical, which the caller checks).
std::vector<Metric> per_layer(const Workload& w, const Runs& plain,
                              const Runs& traced) {
  std::vector<Metric> m;
  uint64_t ops = 0, store_ops = 0, failed = 0, ios = 0;
  std::array<uint64_t, kLayerCount> self{};
  double plain_wall = 0.0, traced_wall = 0.0, recover_s = 0.0;
  double encode_ns = 0.0, decode_ns = 0.0;
  int codec_timed = 0;
  sim::DeviceStats dev;
  sim::SimTime serial = 0, concurrent = 0;
  uint64_t stalls = 0, serve_batches = 0, serve_batch_ios = 0, lane_depth = 0;
  double gc_s = 0.0;
  std::map<std::string, uint64_t> sums;  // counter suffix -> total delta
  const char* kSummed[] = {
      "store.node_writes",   "store.bytes_read",     "store.bytes_written",
      "codec.encode_calls",  "codec.decode_calls",   "codec.raw_bytes",
      "codec.encoded_bytes", "io_retries",           "wal.records_appended",
      "wal.commits",         "wal.committed_bytes",
      "wal.checkpoints",     "snapshot.written_bytes"};

  for (size_t i = 0; i < traced.size(); ++i) {
    const EngineRun& p = plain[i];
    const EngineRun& t = traced[i];
    const std::string& e = t.name;
    const double n = static_cast<double>(t.ops);
    ops += t.ops;
    failed += t.failed;
    for (int l = 0; l < kLayerCount; ++l) self[l] += t.self_ns[l];
    for (const double x : p.round_s) plain_wall += x;
    for (const double x : t.round_s) traced_wall += x;
    recover_s += t.recover_s;
    ios += t.device.reads + t.device.writes;
    dev.busy_time += t.device.busy_time;
    dev.setup_time += t.device.setup_time;
    dev.transfer_time += t.device.transfer_time;
    dev.queue_wait += t.device.queue_wait;
    dev.batches += t.device.batches;
    dev.batch_ios += t.device.batch_ios;
    serial += t.serial_elapsed;
    concurrent += t.serial_elapsed == 0 ? 0 : t.sim_elapsed;
    stalls += t.admission_stalls;
    gc_s += t.gc_stolen_s;
    serve_batches += t.serve_batches;
    serve_batch_ios += t.serve_batch_ios;
    lane_depth = std::max(lane_depth, t.max_lane_depth);
    for (const char* suffix : kSummed) sums[suffix] += t.suffix_delta(suffix);
    if (t.encode_ns_per_kib > 0.0) {
      encode_ns += t.encode_ns_per_kib;
      decode_ns += t.decode_ns_per_kib;
      ++codec_timed;
    }

    m.push_back({e + ".p50_us", round_latency(p, 0.5, -1) / 1e3, "us"});
    m.push_back({e + ".read.p99_us",
                 round_latency(p, 0.99, 1) / 1e3, "us"});
    m.push_back({e + ".write.p99_us",
                 round_latency(p, 0.99, 0) / 1e3, "us"});
    m.push_back({e + ".self_ns_per_op",
                 static_cast<double>(t.self_ns[static_cast<int>(Layer::kEngine)]) /
                     n,
                 "ns"});
    m.push_back({e + ".sim_ops_per_s", n / sim::to_seconds(p.sim_elapsed),
                 "ops/sim_s"});
    m.push_back({e + ".height", static_cast<double>(t.height), "levels"});
    const uint64_t node_reads =
        e == "lsm" ? t.device.reads
                   : t.counter_delta("store.node_reads") +
                         t.counter_delta("store.touch_reads") +
                         t.counter_delta("store.span_reads") +
                         t.counter_delta("segment_reads") +
                         t.counter_delta("node_reads");
    m.push_back({e + ".node_reads_per_op", static_cast<double>(node_reads) / n,
                 "reads/op"});
    if (e == "betree" || e == "opt-betree") {
      m.push_back({e + ".flushes_per_kop",
                   1e3 * static_cast<double>(t.counter_delta("flushes")) / n,
                   "flushes/kop"});
      m.push_back({e + ".messages_moved_per_op",
                   static_cast<double>(t.counter_delta("messages_moved")) / n,
                   "msgs/op"});
    }
    if (e == "lsm") {
      m.push_back({"lsm.compactions",
                   static_cast<double>(t.counter_delta("compactions")),
                   "count"});
      m.push_back({"lsm.compaction_bytes_per_op",
                   static_cast<double>(t.counter_delta("compaction_bytes_out")) /
                       n,
                   "B/op"});
    }
    if (e == "btree") {
      m.push_back({"btree.splits_per_kop",
                   1e3 * static_cast<double>(t.counter_delta("splits")) / n,
                   "splits/kop"});
    }
    if (e == "btree" || e == "betree" || e == "opt-betree") {
      store_ops += t.ops;
      const uint64_t hits = t.counter_delta("cache.hits");
      const uint64_t misses = t.counter_delta("cache.misses");
      m.push_back({e + ".cache.hit_ratio", ratio(hits, hits + misses),
                   "ratio"});
      m.push_back({e + ".cache.evictions_per_op",
                   static_cast<double>(t.counter_delta("cache.evictions")) / n,
                   "evictions/op"});
      m.push_back({e + ".cache.writebacks_per_op",
                   static_cast<double>(
                       t.counter_delta("cache.dirty_writebacks")) /
                       n,
                   "writebacks/op"});
    }
  }

  const double n = static_cast<double>(ops);
  const double ns = static_cast<double>(store_ops);
  const auto per_op = [&](const char* suffix) {
    return static_cast<double>(sums[suffix]) / n;
  };
  m.push_back({"harness.self_ns_per_op",
               static_cast<double>(self[static_cast<int>(Layer::kHarness)]) / n,
               "ns"});
  m.push_back({"blockdev.node_writes_per_op",
               static_cast<double>(sums["store.node_writes"]) / ns,
               "writes/op"});
  m.push_back({"blockdev.bytes_read_per_op",
               static_cast<double>(sums["store.bytes_read"]) / ns, "B/op"});
  m.push_back({"blockdev.bytes_written_per_op",
               static_cast<double>(sums["store.bytes_written"]) / ns, "B/op"});
  const uint64_t raw = sums["codec.raw_bytes"];
  m.push_back({"blockdev.codec.ratio",
               raw == 0 ? 1.0 : ratio(sums["codec.encoded_bytes"], raw),
               "ratio"});
  m.push_back({"blockdev.codec.encode_calls_per_op",
               per_op("codec.encode_calls"), "calls/op"});
  m.push_back({"blockdev.codec.decode_calls_per_op",
               per_op("codec.decode_calls"), "calls/op"});
  m.push_back({"blockdev.codec.encode_ns_per_kib",
               codec_timed == 0 ? 0.0 : encode_ns / codec_timed, "ns/KiB"});
  m.push_back({"blockdev.codec.decode_ns_per_kib",
               codec_timed == 0 ? 0.0 : decode_ns / codec_timed, "ns/KiB"});
  m.push_back({"blockdev.io_retries",
               static_cast<double>(sums["io_retries"]), "count"});
  const double sim_self =
      static_cast<double>(self[static_cast<int>(Layer::kSim)]);
  m.push_back({"sim.self_ns_per_op", sim_self / n, "ns"});
  m.push_back({"sim.host_ns_per_io", ratio(sim_self, static_cast<double>(ios)),
               "ns"});
  m.push_back({"sim.ios_per_op", static_cast<double>(ios) / n, "ios/op"});
  m.push_back({"sim.busy_s", sim::to_seconds(dev.busy_time), "sim_s"});
  m.push_back({"sim.queue_wait_s", sim::to_seconds(dev.queue_wait), "sim_s"});
  m.push_back({"sim.setup_share",
               ratio(dev.setup_time, dev.setup_time + dev.transfer_time),
               "ratio"});
  m.push_back({"sim.batch_width_mean", ratio(dev.batch_ios, dev.batches),
               "ios"});
  m.push_back({"sim.admission_stalls", static_cast<double>(stalls), "count"});
  m.push_back({"sim.gc_stolen_s", gc_s, "sim_s"});
  m.push_back({"wal.self_ns_per_op",
               static_cast<double>(self[static_cast<int>(Layer::kWal)]) / n,
               "ns"});
  m.push_back({"wal.records_per_commit",
               ratio(sums["wal.records_appended"], sums["wal.commits"]),
               "records"});
  m.push_back({"wal.bytes_per_op", per_op("wal.committed_bytes"), "B/op"});
  m.push_back({"wal.checkpoints", static_cast<double>(sums["wal.checkpoints"]),
               "count"});
  m.push_back({"wal.snapshot_bytes_per_op", per_op("snapshot.written_bytes"),
               "B/op"});
  m.push_back({"wal.recover_s", recover_s, "s"});
  m.push_back({"serve.host_ns_per_op",
               w.concurrent() ? static_cast<double>(self[static_cast<int>(
                                    Layer::kHarness)]) /
                                    n
                              : 0.0,
               "ns"});
  m.push_back({"serve.speedup", ratio(serial, concurrent), "ratio"});
  m.push_back({"serve.ios_per_batch", ratio(serve_batch_ios, serve_batches),
               "ios"});
  m.push_back({"serve.max_lane_depth", static_cast<double>(lane_depth),
               "ios"});
  m.push_back({"trace.overhead_ratio", ratio(traced_wall, plain_wall),
               "ratio"});
  m.push_back({"failed_op_ratio", ratio(failed, ops), "ratio"});
  return m;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
        << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

std::string env_line(const Args& args) {
  std::ostringstream out;
  out << "{\"env\": {\"workload\": \"" << args.workload
      << "\", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
      << ", \"trace\": " << args.trace << ", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"DAMKIT_STATS\": "
      << (DAMKIT_STATS_ENABLED ? "true" : "false")
      << ", \"stats_collecting\": "
      << (damkit::stats::collecting() ? "true" : "false")
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << "}}";
  return out.str();
}

/// The kept spans of every engine, one JSON object per line; times are ns
/// from the start of that engine's first round.
bool write_trace(const std::string& path, const Runs& traced) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t base_id = 0;
  for (const EngineRun& r : traced) {
    if (r.spans.empty()) continue;
    const uint64_t t0 = r.spans.front().start_ns;
    for (size_t i = 0; i < r.spans.size(); ++i) {
      const Span& s = r.spans[i];
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%lld,\"layer\":\"%s\","
                   "\"engine\":\"%s\",\"op\":%llu,\"start_ns\":%llu,"
                   "\"end_ns\":%llu}\n",
                   static_cast<unsigned long long>(base_id + i),
                   s.parent < 0 ? -1LL
                                : static_cast<long long>(base_id) + s.parent,
                   s.layer == Layer::kEngine ? r.name.c_str()
                                             : layer_name(s.layer),
                   r.name.c_str(), static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.start_ns - t0),
                   static_cast<unsigned long long>(s.end_ns - t0));
    }
    base_id += r.spans.size();
  }
  return std::fclose(f) == 0;
}

/// The traced pass must not change what the program computes.
void check_transparent(const EngineRun& plain, const EngineRun& traced,
                       std::vector<std::string>* errors) {
  const auto same = [&](bool eq, const char* what) {
    if (!eq) {
      errors->push_back(traced.name + ": traced " + what +
                        " differs from untraced");
    }
  };
  same(plain.round_digests == traced.round_digests, "read digests");
  same(plain.state_digest == traced.state_digest, "state digest");
  same(plain.sim_elapsed == traced.sim_elapsed, "sim time");
  same(plain.device.bytes_written == traced.device.bytes_written &&
           plain.device.busy_time == traced.device.busy_time &&
           plain.device.reads == traced.device.reads,
       "device stats");
  same(plain.log.user_bytes_written == traced.log.user_bytes_written,
       "user bytes");
  same(plain.sim_latency.count() == traced.sim_latency.count() &&
           plain.sim_latency.sum() == traced.sim_latency.sum() &&
           plain.sim_latency.max() == traced.sim_latency.max(),
       "sim latency");
}

int run(const Args& args) {
  const std::optional<Workload> found = find_workload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const bool traced = args.trace == 1;
  std::printf("%s\n", env_line(args).c_str());
  std::fflush(stdout);

  // Streams and the sequential reference, one per engine (their op counts
  // differ), computed in parallel before anything is timed.
  std::vector<Streams> streams;
  for (size_t i = 0; i < kEngineCount; ++i) {
    const uint64_t per_round = std::max<uint64_t>(
        1, w.ops_per_second[i] * args.seconds / kRounds);
    streams.push_back(make_streams(w, args.seed, per_round));
  }
  std::vector<ReferenceResult> expect(kEngineCount);
  {
    std::vector<std::thread> workers;
    for (size_t i = 0; i < kEngineCount; ++i) {
      workers.emplace_back([&, i] {
        expect[i] = run_reference(streams[i].bulk_items, streams[i].all());
      });
    }
    for (std::thread& t : workers) t.join();
  }
  // The reference maps are gone; give their memory back and restart the
  // peak-RSS clock so rss_mb measures set-up, rounds, and checks.
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }

  // Set-up, one engine after another; all stay alive for the rounds.
  std::vector<std::unique_ptr<EngineBench>> plain, traced_benches;
  for (size_t i = 0; i < kEngineCount; ++i) {
    const kv::EngineKind kind = kv::kAllEngineKinds[i];
    plain.push_back(std::make_unique<EngineBench>(
        w, kind, streams[i], expect[i], traced ? 1 : kUntracedSetups, false));
    if (traced) {
      traced_benches.push_back(std::make_unique<EngineBench>(
          w, kind, streams[i], expect[i], 1, true));
    }
  }
  // Timed rounds, interleaved across engines (and across the untraced and
  // traced passes).
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t i = 0; i < kEngineCount; ++i) {
      plain[i]->run_round(r);
      if (traced) traced_benches[i]->run_round(r);
    }
  }

  Runs plain_runs, traced_runs;
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  const auto collect = [&](EngineBench& bench, Runs* out) {
    bench.finish();
    out->push_back(bench.result());
    const EngineRun& r = out->back();
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    attempted += r.ops;
    failed += r.failed;
  };
  for (size_t i = 0; i < kEngineCount; ++i) {
    collect(*plain[i], &plain_runs);
    plain[i].reset();
    if (traced) {
      collect(*traced_benches[i], &traced_runs);
      traced_benches[i].reset();
      check_transparent(plain_runs[i], traced_runs[i], &errors);
    }
    const EngineRun& p = plain_runs[i];
    std::printf("%-10s %9llu ops  %10.0f ops/s  sim %.4f s\n",
                p.name.c_str(), static_cast<unsigned long long>(p.ops),
                round_ops_per_s(p), sim::to_seconds(p.sim_elapsed));
  }

  std::printf("host slowdown vs nominal (median over rounds): %.4f\n",
              median_slowdown(plain_runs));
  std::vector<Metric> metrics;
  if (traced) {
    metrics = per_layer(w, plain_runs, traced_runs);
    const std::string path = args.out_dir + "/trace-" + w.name + ".jsonl";
    if (!write_trace(path, traced_runs)) {
      errors.push_back("cannot write " + path);
    }
  } else {
    metrics = end_to_end(plain_runs);
  }
  for (const std::string& e : errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  print_result(errors.empty() && failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  return perfbench::run(args);
}
