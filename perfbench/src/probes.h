// Measurement probes that sit outside the library: a span recorder, a
// timing kv::Dictionary decorator, and a timing sim::Device decorator.
//
// Untraced runs use one TimingDictionary around the engine the runner
// drives and nothing else: two steady_clock reads per call plus one
// sample pushed to an OpLog. Traced runs add a second TimingDictionary
// between wal::DurableEngine and the inner engine and a TimingDevice
// between the engine and the real device model; every decorator then
// records a Span (layer, op id, parent, start, end) into the engine's
// SpanRecorder. The decorators forward every call unchanged, so digests
// and simulated time are identical with and without them.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "kv/dictionary.h"
#include "sim/device.h"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span layers, outermost first. kEngine covers the kv adapter, the tree,
/// its buffer pool, the blockdev store, and node parse/serialize: they
/// cannot be separated from outside the library.
enum class Layer : uint8_t { kHarness, kWal, kEngine, kSim };
inline constexpr int kLayerCount = 4;
const char* layer_name(Layer layer);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op = 0;      // op id shared by every span of one Dictionary call
  int64_t parent = -1;  // index into SpanRecorder::spans(), -1 = root
  Layer layer = Layer::kHarness;
};

/// In-memory span store with an open-span stack. Single-threaded: every
/// Dictionary call and device IO happens on the thread that drives the
/// engine (the serving layer applies all ops on its controller thread).
class SpanRecorder {
 public:
  /// Spans are only recorded while active (the timed phase).
  void set_active(bool on) { active_ = on; }
  bool active() const { return active_; }

  /// Opens a span whose parent is the innermost open span. A span opened
  /// with new_op starts a fresh op id; otherwise it inherits the parent's.
  int64_t open(Layer layer, uint64_t start_ns, bool new_op);
  void close(int64_t index, uint64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
  uint64_t next_op_ = 0;
  bool active_ = false;
};

/// True when every span is closed and lies inside its parent, and
/// siblings do not overlap (they are recorded in start order).
bool spans_nest(const std::vector<Span>& spans);

/// Per-span self time: duration minus the union of its children, which
/// (when spans_nest) lie inside it without overlap, so the union is their
/// sum.
std::vector<uint64_t> self_times(const std::vector<Span>& spans);

enum class OpKind : uint8_t { kGet, kPut, kErase, kUpsert, kScan, kFlush };

struct OpSample {
  uint64_t sim_ns = 0;   // IoContext::now() advance during the call
  uint32_t host_ns = 0;  // call duration
  OpKind kind = OpKind::kGet;
};

/// What the outer decorator saw: one sample per call, plus the user bytes
/// the mutations carried (write_amp's denominator).
struct OpLog {
  std::vector<OpSample> samples;
  uint64_t user_bytes_written = 0;
  void clear() {
    samples.clear();
    user_bytes_written = 0;
  }
};

/// Forwards every kv::Dictionary call to `inner`. With an OpLog it is the
/// outer decorator (times each call and counts user bytes); with a
/// SpanRecorder it records one span per call while the recorder is active.
class TimingDictionary final : public damkit::kv::Dictionary {
 public:
  TimingDictionary(std::unique_ptr<damkit::kv::Dictionary> inner,
                   damkit::sim::IoContext& io, Layer layer, OpLog* log,
                   SpanRecorder* recorder);

  void set_log(OpLog* log) { log_ = log; }

  std::string_view name() const override { return inner_->name(); }
  const damkit::kv::Capabilities& capabilities() const override {
    return inner_->capabilities();
  }

  void put(std::string_view key, std::string_view value) override;
  damkit::Status try_put(std::string_view key,
                         std::string_view value) override;
  std::optional<std::string> get(std::string_view key) override;
  damkit::StatusOr<std::optional<std::string>> try_get(
      std::string_view key) override;
  void erase(std::string_view key) override;
  damkit::Status try_erase(std::string_view key) override;
  void upsert(std::string_view key, int64_t delta) override;
  damkit::Status try_upsert(std::string_view key, int64_t delta) override;
  std::vector<std::pair<std::string, std::string>> range_scan(
      std::string_view lo, size_t limit) override;
  damkit::StatusOr<std::vector<std::pair<std::string, std::string>>>
  try_range_scan(std::string_view lo, size_t limit) override;
  void bulk_load(
      uint64_t count,
      const std::function<std::pair<std::string, std::string>(uint64_t)>&
          item) override {
    inner_->bulk_load(count, item);
  }
  void flush() override;
  damkit::Status checkpoint() override;
  void abandon() override { inner_->abandon(); }
  void set_retry_policy(const damkit::blockdev::RetryPolicy& policy) override {
    inner_->set_retry_policy(policy);
  }
  damkit::blockdev::RetryCounters retry_counters() const override {
    return inner_->retry_counters();
  }
  size_t height() const override { return inner_->height(); }
  double cache_hit_rate() const override { return inner_->cache_hit_rate(); }
  void check_invariants() override { inner_->check_invariants(); }
  void set_event_trace(damkit::stats::TraceBuffer* events) override {
    inner_->set_event_trace(events);
  }
  void export_metrics(damkit::stats::MetricsRegistry& reg,
                      std::string_view prefix) const override {
    inner_->export_metrics(reg, prefix);
  }

 private:
  template <class Call>
  auto timed(OpKind kind, uint64_t user_bytes, Call&& call);

  std::unique_ptr<damkit::kv::Dictionary> inner_;
  damkit::sim::IoContext* io_;
  Layer layer_;
  OpLog* log_;
  SpanRecorder* recorder_;
};

/// Delegates timing to the real model (built the way
/// sim::FaultInjectingDevice is: payload in this wrapper's own store, the
/// inner device's split folded into this device's stats) and records one
/// kSim span per submission while the recorder is active. With a null
/// recorder it is a pure pass-through, used to keep the serving layer's
/// replay device inspectable.
class TimingDevice final : public damkit::sim::Device {
 public:
  TimingDevice(damkit::sim::Device& inner, SpanRecorder* recorder);

  std::string name() const override { return inner_->name(); }

 protected:
  damkit::sim::IoCompletion submit_io(const damkit::sim::IoRequest& req,
                                      damkit::sim::SimTime now) override;
  std::vector<damkit::sim::IoCompletion> submit_batch_io(
      std::span<const damkit::sim::IoRequest> reqs,
      damkit::sim::SimTime now) override;

 private:
  damkit::sim::Device* inner_;
  SpanRecorder* recorder_;
};

/// Host speed probe: wall ns of a fixed unit of pointer-chasing and
/// hashing work, independent of damkit. Taken before and after each timed
/// round and set-up; its ratio to kNominalCalibrationNs is the host's
/// slowdown at that moment (other tenants, frequency), which host metrics
/// are divided out by.
uint64_t calibration_ns();
/// calibration_ns() on an idle 2.1 GHz Xeon vCPU (the reference speed
/// that normalized host metrics are expressed at).
inline constexpr double kNominalCalibrationNs = 4.4e6;

}  // namespace perfbench
