#include "engine_run.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "blockdev/codec.h"
#include "harness/crash.h"
#include "harness/workload_runner.h"
#include "sim/mq_ssd.h"
#include "wal/durable_engine.h"

namespace perfbench {

namespace kv = damkit::kv;
namespace sim = damkit::sim;
namespace wal = damkit::wal;
namespace harness = damkit::harness;

uint64_t EngineRun::counter_delta(const std::string& suffix) const {
  const std::string key = name + "." + suffix;
  const uint64_t a = after.has_counter(key) ? after.counter(key) : 0;
  const uint64_t b = before.has_counter(key) ? before.counter(key) : 0;
  return a - b;
}

uint64_t EngineRun::suffix_delta(const std::string& suffix) const {
  const std::string dotted = "." + suffix;
  uint64_t total = 0;
  after.for_each_counter([&](const std::string& key, uint64_t v) {
    if (key.ends_with(dotted)) total += v;
  });
  before.for_each_counter([&](const std::string& key, uint64_t v) {
    if (key.ends_with(dotted)) total -= v;
  });
  return total;
}

std::vector<StreamPart> Streams::all() const {
  std::vector<StreamPart> parts{warmup};
  parts.insert(parts.end(), rounds.begin(), rounds.end());
  return parts;
}

Streams make_streams(const Workload& w, uint64_t seed,
                     uint64_t ops_per_round) {
  Streams streams;
  streams.bulk_items = w.spec.key_space;
  // Stream k gets seed splitmix(seed + k): distinct, and a pure function
  // of the run's seed.
  const auto stream_seed = [seed](uint64_t k) {
    uint64_t x = seed + k * 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  streams.warmup = {w.spec, w.warmup_ops};
  streams.warmup.spec.seed = stream_seed(0);
  for (int r = 0; r < kRounds; ++r) {
    StreamPart part{w.spec, ops_per_round};
    part.spec.seed = stream_seed(static_cast<uint64_t>(r) + 1);
    streams.rounds.push_back(part);
  }
  return streams;
}

// Device, clock, and engine of one pass. In traced passes the device is
// a TimingDevice over the model, and a durable engine's inner engine
// sits behind a second TimingDictionary.
struct EngineBench::Stack {
  std::unique_ptr<sim::Device> model;
  std::unique_ptr<TimingDevice> probe;
  std::unique_ptr<sim::IoContext> io;
  std::unique_ptr<TimingDictionary> dict;

  sim::Device& device() { return probe ? *probe : *model; }
  /// Tear down engine first, device last.
  void reset() {
    dict.reset();
    io.reset();
    probe.reset();
    model.reset();
  }
};

namespace {

wal::DurabilityConfig durability_config(const Workload& w,
                                        const sim::Device& dev) {
  wal::DurabilityConfig cfg =
      wal::default_durability_config(dev.capacity_bytes());
  cfg.checkpoint_wal_bytes = w.checkpoint_wal_bytes;
  return cfg;
}

using Stack = EngineBench::Stack;

double slowdown(uint64_t calib_before, uint64_t calib_after) {
  return 0.5 * static_cast<double>(calib_before + calib_after) /
         kNominalCalibrationNs;
}

std::unique_ptr<Stack> build_stack(const Workload& w, kv::EngineKind kind,
                                   bool traced, SpanRecorder* recorder) {
  auto stack = std::make_unique<Stack>();
  Stack& s = *stack;
  s.model = make_device(w.device);
  if (traced) s.probe = std::make_unique<TimingDevice>(*s.model, recorder);
  s.io = std::make_unique<sim::IoContext>(s.device());
  std::unique_ptr<kv::Dictionary> engine =
      kv::make_engine(kind, s.device(), *s.io, w.engines);
  if (w.durable()) {
    if (traced) {
      engine = std::make_unique<TimingDictionary>(
          std::move(engine), *s.io, Layer::kEngine, nullptr, recorder);
    }
    engine = wal::make_durable(std::move(engine), s.device(), *s.io,
                               durability_config(w, s.device()));
  }
  s.dict = std::make_unique<TimingDictionary>(
      std::move(engine), *s.io, w.durable() ? Layer::kWal : Layer::kEngine,
      nullptr, traced ? recorder : nullptr);
  return stack;
}

sim::DeviceStats stats_delta(const sim::DeviceStats& a,
                             const sim::DeviceStats& b) {
  sim::DeviceStats d;
  d.reads = a.reads - b.reads;
  d.writes = a.writes - b.writes;
  d.bytes_read = a.bytes_read - b.bytes_read;
  d.bytes_written = a.bytes_written - b.bytes_written;
  d.busy_time = a.busy_time - b.busy_time;
  d.setup_time = a.setup_time - b.setup_time;
  d.transfer_time = a.transfer_time - b.transfer_time;
  d.queue_wait = a.queue_wait - b.queue_wait;
  d.batches = a.batches - b.batches;
  d.batch_ios = a.batch_ios - b.batch_ios;
  return d;
}

bool has_node_store(kv::EngineKind kind) {
  return kind == kv::EngineKind::kBTree || kind == kv::EngineKind::kBeTree ||
         kind == kv::EngineKind::kOptBeTree;
}

// Length of the codec frame at the front of `extent` (frames are
// self-delimiting: a raw_len header, then tokens until raw_len bytes are
// produced), or 0 when the bytes do not parse as a frame.
size_t frame_length(std::span<const uint8_t> extent) {
  using damkit::blockdev::get_uvarint;
  size_t pos = 0;
  uint64_t raw_len = 0;
  if (!get_uvarint(extent, pos, &raw_len) || pos >= extent.size()) return 0;
  const uint8_t mode = extent[pos++];
  if (mode == 0) {
    return raw_len <= extent.size() - pos ? pos + raw_len : 0;
  }
  uint64_t produced = 0;
  for (;;) {
    uint64_t lit = 0, match = 0, distance = 0;
    if (!get_uvarint(extent, pos, &lit) || lit > extent.size() - pos) return 0;
    pos += lit;
    produced += lit;
    if (produced >= raw_len) return produced == raw_len ? pos : 0;
    if (!get_uvarint(extent, pos, &match) ||
        !get_uvarint(extent, pos, &distance)) {
      return 0;
    }
    produced += match;
  }
}

// Times the workload's codec on node images read back from the device
// (NodeStore slots start at offset 0, one frame at the front of each).
void time_codec(const Workload& w, kv::EngineKind kind, sim::Device& dev,
                EngineRun* run) {
  if (!has_node_store(kind)) return;
  const uint64_t node_bytes = kind == kv::EngineKind::kBTree
                                  ? w.engines.btree.node_bytes
                                  : w.engines.betree.node_bytes;
  const std::unique_ptr<damkit::blockdev::BlockCodec> codec =
      damkit::blockdev::make_codec(w.engines.codec);
  const bool framed =
      w.engines.codec != damkit::blockdev::CodecKind::kIdentity;
  std::vector<uint8_t> slot(node_bytes), raw, frame, back;
  uint64_t raw_bytes = 0, encode_ns = 0, decode_ns = 0;
  for (uint64_t i = 0; i < 32; ++i) {
    dev.read_bytes(i * node_bytes, slot);
    if (framed) {
      const size_t len = frame_length(slot);
      if (len == 0 || !codec->decode(std::span(slot).first(len), raw) ||
          raw.size() != node_bytes) {
        continue;
      }
    } else {
      raw = slot;
    }
    const uint64_t t0 = now_ns();
    codec->encode(raw, frame);
    const uint64_t t1 = now_ns();
    const bool ok = codec->decode(frame, back);
    const uint64_t t2 = now_ns();
    if (!ok || back != raw) {
      run->errors.push_back("codec round trip failed on a node image");
      return;
    }
    raw_bytes += raw.size();
    encode_ns += t1 - t0;
    decode_ns += t2 - t1;
  }
  if (raw_bytes == 0) return;
  const double kib = static_cast<double>(raw_bytes) / 1024.0;
  run->encode_ns_per_kib = static_cast<double>(encode_ns) / kib;
  run->decode_ns_per_kib = static_cast<double>(decode_ns) / kib;
}

void check_steady_state(const Workload& w, kv::EngineKind kind,
                        EngineRun* run) {
  for (const CycleRequirement& req : w.cycles) {
    if (req.engine != kind) continue;
    const uint64_t n = run->counter_delta(req.counter);
    if (n < req.min) {
      run->errors.push_back(run->name + "." + req.counter + " cycled " +
                            std::to_string(n) + " times in the timed phase (" +
                            std::to_string(req.min) + " needed)");
    }
  }
  if (w.min_hit_ratio > 0.0 && has_node_store(kind)) {
    const uint64_t hits = run->counter_delta("cache.hits");
    const uint64_t misses = run->counter_delta("cache.misses");
    const double ratio = static_cast<double>(hits) /
                         static_cast<double>(std::max<uint64_t>(1, hits + misses));
    if (ratio < w.min_hit_ratio) {
      run->errors.push_back(run->name + " pool hit ratio " +
                            std::to_string(ratio) + " after warm-up");
    }
  }
}

void check_codec(const Workload& w, kv::EngineKind kind, EngineRun* run) {
  if (kind == kv::EngineKind::kPdam) return;  // touch-only, no byte images
  const uint64_t encodes = run->suffix_delta("codec.encode_calls");
  const bool identity =
      w.engines.codec == damkit::blockdev::CodecKind::kIdentity;
  if (identity ? encodes != 0 : encodes == 0) {
    run->errors.push_back(run->name + " codec counters (" +
                          std::to_string(encodes) +
                          " encodes) do not match codec " +
                          std::string(damkit::blockdev::codec_kind_name(
                              w.engines.codec)));
  }
}

// Crash-free recovery: drop the engine without writing anything back,
// rebuild it from the device bytes alone, and compare with the reference
// at the recovered LSN.
void check_recovery(const Workload& w, kv::EngineKind kind,
                    const Streams& streams, const ReferenceResult& expect,
                    Stack& s, EngineRun* run) {
  s.dict->abandon();
  s.dict.reset();
  const wal::DurabilityConfig cfg = durability_config(w, s.device());
  const auto make_inner = [&] {
    return kv::make_engine(kind, s.device(), *s.io, w.engines);
  };
  wal::RecoveryReport report;
  const uint64_t t0 = now_ns();
  auto recovered =
      wal::DurableEngine::recover(make_inner, s.device(), *s.io, cfg, &report);
  run->recover_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (!recovered.ok()) {
    run->errors.push_back(run->name + " recovery failed: " +
                          std::string(recovered.status().message()));
    return;
  }
  const uint64_t lsn = (*recovered)->durable_mutations();
  const uint64_t want =
      lsn == expect.mutations
          ? expect.state_digest
          : run_reference(streams.bulk_items, streams.all(), lsn).state_digest;
  if (harness::state_digest(**recovered) != want) {
    run->errors.push_back(run->name + " recovered state at LSN " +
                          std::to_string(lsn) + " differs from the reference");
  }
}

}  // namespace

EngineBench::EngineBench(const Workload& w, kv::EngineKind kind,
                         const Streams& streams, const ReferenceResult& expect,
                         int setups, bool traced)
    : w_(w), kind_(kind), streams_(streams), expect_(expect), traced_(traced) {
  run_.name = std::string(kv::engine_kind_name(kind));
  // Set-up: construction, bulk load, sweep, warm-up. Every set-up but the
  // last is thrown away unflushed; the median of their times is setup_s.
  for (int i = 0; i < setups; ++i) {
    if (stack_) {
      stack_->dict->abandon();
      stack_->reset();
    }
    const uint64_t calib0 = calibration_ns();
    const uint64_t t0 = now_ns();
    stack_ = build_stack(w, kind, traced, &recorder_);
    harness::WorkloadRunner runner(*stack_->dict, *stack_->io);
    runner.bulk_load(streams.bulk_items, streams.warmup.spec);
    (void)harness::state_digest(*stack_->dict);  // every leaf through the pool
    harness::WorkloadRunOptions warm;
    warm.fallible = true;
    warm.flush_at_end = false;
    const harness::WorkloadRunResult r =
        runner.run(streams.warmup.spec, streams.warmup.ops, warm);
    run_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    run_.setup_slowdown.push_back(slowdown(calib0, calibration_ns()));
    if (r.digest != expect.digests.front() || r.failed_ops != 0) {
      run_.errors.push_back(run_.name + " warm-up diverged from the reference");
    }
  }
  uint64_t ops = 0;
  for (const StreamPart& part : streams.rounds) ops += part.ops;
  run_.log.samples.reserve(ops + streams.rounds.size());
  stack_->dict->export_metrics(run_.before, run_.name + ".");
  device0_ = stack_->model->stats();
}

EngineBench::~EngineBench() {
  if (stack_) stack_->reset();
}

void EngineBench::run_round(size_t r) {
  const StreamPart& part = streams_.rounds[r];
  Stack& s = *stack_;
  harness::WorkloadRunner runner(*s.dict, *s.io);
  std::vector<std::unique_ptr<sim::MqSsdDevice>> replay_models;
  const size_t first_sample = run_.log.samples.size();
  s.dict->set_log(&run_.log);
  const uint64_t calib0 = calibration_ns();
  recorder_.set_active(traced_);
  const uint64_t t0 = now_ns();
  const int64_t root =
      traced_ ? recorder_.open(Layer::kHarness, t0, true) : -1;
  harness::WorkloadRunResult result;
  if (w_.concurrent()) {
    const sim::SsdConfig mq = mq_profile_with_gc();
    harness::ConcurrentRunOptions copts;
    copts.clients = w_.clients;
    copts.inflight = w_.inflight;
    copts.fallible = true;
    copts.replay_device_factory = [&replay_models,
                                   mq]() -> std::unique_ptr<sim::Device> {
      replay_models.push_back(std::make_unique<sim::MqSsdDevice>(mq));
      return std::make_unique<TimingDevice>(*replay_models.back(), nullptr);
    };
    copts.lanes = static_cast<size_t>(mq.total_dies());
    copts.lane_of = [mq](uint64_t offset) {
      return static_cast<size_t>(mq.die_of(offset));
    };
    const harness::ConcurrentRunResult served =
        runner.run_concurrent(part.spec, part.ops, copts);
    result = served.base;
    run_.sim_elapsed += served.concurrent_elapsed;
    run_.serial_elapsed += served.base.sim_elapsed;
    run_.sim_latency.merge(served.latency);
    run_.serve_batches += served.batches;
    run_.serve_batch_ios += served.batch_ios;
    run_.max_lane_depth = std::max(run_.max_lane_depth, served.max_lane_depth);
  } else {
    harness::WorkloadRunOptions ropts;
    ropts.fallible = true;
    result = runner.run(part.spec, part.ops, ropts);
    run_.sim_elapsed += result.sim_elapsed;
  }
  const uint64_t t1 = now_ns();
  recorder_.set_active(false);
  s.dict->set_log(nullptr);
  run_.round_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  run_.round_slowdown.push_back(slowdown(calib0, calibration_ns()));
  run_.round_end.push_back(run_.log.samples.size());

  run_.ops += part.ops;
  run_.failed += result.failed_ops;
  run_.round_digests.push_back(result.digest);
  if (result.digest != expect_.digests[r + 1]) {
    run_.errors.push_back(run_.name + " round " + std::to_string(r) +
                          " read digest differs from the reference");
  }
  if (!w_.concurrent()) {
    for (size_t i = first_sample; i < run_.log.samples.size(); ++i) {
      const OpSample& op = run_.log.samples[i];
      if (op.kind != OpKind::kFlush) run_.sim_latency.record(op.sim_ns);
    }
  }
  for (const auto& m : replay_models) {
    run_.admission_stalls += m->admission_stalls();
    run_.gc_stolen_s += m->gc_stolen_seconds();
  }
  if (traced_) {
    recorder_.close(root, t1);
    const std::vector<Span>& spans = recorder_.spans();
    // Nesting makes every self time non-negative and their sum exactly
    // the round span: the layers partition the measured round.
    if (!spans_nest(spans)) {
      run_.errors.push_back(run_.name + ": spans of round " +
                            std::to_string(r) + " do not nest");
    }
    const std::vector<uint64_t> self = self_times(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      run_.self_ns[static_cast<size_t>(spans[i].layer)] += self[i];
    }
    // Keep whole rounds for the trace file until kKeptSpanOps op ids are
    // covered, parents re-indexed into the kept vector.
    if (spans.front().op < kKeptSpanOps) {
      const auto offset = static_cast<int64_t>(run_.spans.size());
      for (const Span& span : spans) {
        run_.spans.push_back(span);
        if (span.parent >= 0) run_.spans.back().parent += offset;
      }
    }
    recorder_.clear();
  }
}

void EngineBench::finish() {
  Stack& s = *stack_;
  run_.device = stats_delta(s.model->stats(), device0_);
  s.dict->export_metrics(run_.after, run_.name + ".");
  run_.height = s.dict->height();
  check_steady_state(w_, kind_, &run_);
  check_codec(w_, kind_, &run_);
  time_codec(w_, kind_, s.device(), &run_);
  run_.state_digest = harness::state_digest(*s.dict);
  if (run_.state_digest != expect_.state_digest) {
    run_.errors.push_back(run_.name +
                          " final state differs from the reference");
  }
  if (w_.durable()) {
    check_recovery(w_, kind_, streams_, expect_, s, &run_);
  }
}

}  // namespace perfbench
