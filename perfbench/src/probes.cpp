#include "probes.h"

#include <utility>

namespace perfbench {

using damkit::Status;
using damkit::StatusOr;

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kHarness:
      return "harness";
    case Layer::kWal:
      return "wal";
    case Layer::kEngine:
      return "engine";
    case Layer::kSim:
      return "sim";
  }
  return "?";
}

int64_t SpanRecorder::open(Layer layer, uint64_t start_ns, bool new_op) {
  Span span;
  span.start_ns = start_ns;
  span.layer = layer;
  if (!stack_.empty()) {
    span.parent = stack_.back();
    span.op = spans_[static_cast<size_t>(span.parent)].op;
  }
  if (new_op || stack_.empty()) span.op = next_op_++;
  const auto index = static_cast<int64_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int64_t index, uint64_t end_ns) {
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
  stack_.pop_back();
}

bool spans_nest(const std::vector<Span>& spans) {
  // End of the latest child seen under each span so far.
  std::vector<uint64_t> child_end(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) return false;
    child_end[i] = s.start_ns;
    if (s.parent < 0) continue;
    const auto p = static_cast<size_t>(s.parent);
    if (p >= i || s.start_ns < child_end[p] || s.end_ns > spans[p].end_ns) {
      return false;
    }
    child_end[p] = s.end_ns;
  }
  return true;
}

std::vector<uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

// ---------------------------------------------------------------------------
// TimingDictionary
// ---------------------------------------------------------------------------

TimingDictionary::TimingDictionary(
    std::unique_ptr<damkit::kv::Dictionary> inner, damkit::sim::IoContext& io,
    Layer layer, OpLog* log, SpanRecorder* recorder)
    : inner_(std::move(inner)),
      io_(&io),
      layer_(layer),
      log_(log),
      recorder_(recorder) {}

template <class Call>
auto TimingDictionary::timed(OpKind kind, uint64_t user_bytes, Call&& call) {
  const bool spans = recorder_ != nullptr && recorder_->active();
  const damkit::sim::SimTime sim0 = io_->now();
  const uint64_t t0 = now_ns();
  const int64_t span =
      spans ? recorder_->open(layer_, t0, log_ != nullptr) : -1;
  auto result = call();
  const uint64_t t1 = now_ns();
  if (spans) recorder_->close(span, t1);
  if (log_ != nullptr) {
    log_->samples.push_back(
        {io_->now() - sim0, static_cast<uint32_t>(t1 - t0), kind});
    log_->user_bytes_written += user_bytes;
  }
  return result;
}

namespace {
// The infallible twins return void; give timed() a value to carry.
struct Done {};
}  // namespace

void TimingDictionary::put(std::string_view key, std::string_view value) {
  timed(OpKind::kPut, key.size() + value.size(), [&] {
    inner_->put(key, value);
    return Done{};
  });
}
Status TimingDictionary::try_put(std::string_view key,
                                 std::string_view value) {
  return timed(OpKind::kPut, key.size() + value.size(),
               [&] { return inner_->try_put(key, value); });
}
std::optional<std::string> TimingDictionary::get(std::string_view key) {
  return timed(OpKind::kGet, 0, [&] { return inner_->get(key); });
}
StatusOr<std::optional<std::string>> TimingDictionary::try_get(
    std::string_view key) {
  return timed(OpKind::kGet, 0, [&] { return inner_->try_get(key); });
}
void TimingDictionary::erase(std::string_view key) {
  timed(OpKind::kErase, key.size(), [&] {
    inner_->erase(key);
    return Done{};
  });
}
Status TimingDictionary::try_erase(std::string_view key) {
  return timed(OpKind::kErase, key.size(),
               [&] { return inner_->try_erase(key); });
}
void TimingDictionary::upsert(std::string_view key, int64_t delta) {
  timed(OpKind::kUpsert, key.size() + sizeof(int64_t), [&] {
    inner_->upsert(key, delta);
    return Done{};
  });
}
Status TimingDictionary::try_upsert(std::string_view key, int64_t delta) {
  return timed(OpKind::kUpsert, key.size() + sizeof(int64_t),
               [&] { return inner_->try_upsert(key, delta); });
}
std::vector<std::pair<std::string, std::string>> TimingDictionary::range_scan(
    std::string_view lo, size_t limit) {
  return timed(OpKind::kScan, 0,
               [&] { return inner_->range_scan(lo, limit); });
}
StatusOr<std::vector<std::pair<std::string, std::string>>>
TimingDictionary::try_range_scan(std::string_view lo, size_t limit) {
  return timed(OpKind::kScan, 0,
               [&] { return inner_->try_range_scan(lo, limit); });
}
void TimingDictionary::flush() {
  timed(OpKind::kFlush, 0, [&] {
    inner_->flush();
    return Done{};
  });
}
Status TimingDictionary::checkpoint() {
  return timed(OpKind::kFlush, 0, [&] { return inner_->checkpoint(); });
}

// ---------------------------------------------------------------------------
// TimingDevice
// ---------------------------------------------------------------------------

TimingDevice::TimingDevice(damkit::sim::Device& inner, SpanRecorder* recorder)
    : Device(inner.capacity_bytes()), inner_(&inner), recorder_(recorder) {}

damkit::sim::IoCompletion TimingDevice::submit_io(
    const damkit::sim::IoRequest& req, damkit::sim::SimTime now) {
  const bool spans = recorder_ != nullptr && recorder_->active();
  const int64_t span = spans ? recorder_->open(Layer::kSim, now_ns(), false)
                             : -1;
  const damkit::sim::DeviceStats& is = inner_->stats();
  const damkit::sim::SimTime setup0 = is.setup_time;
  const damkit::sim::SimTime transfer0 = is.transfer_time;
  const damkit::sim::IoCompletion c = inner_->submit(req, now);
  account(req, c, now, is.setup_time - setup0, is.transfer_time - transfer0);
  if (spans) recorder_->close(span, now_ns());
  return c;
}

std::vector<damkit::sim::IoCompletion> TimingDevice::submit_batch_io(
    std::span<const damkit::sim::IoRequest> reqs, damkit::sim::SimTime now) {
  const bool spans = recorder_ != nullptr && recorder_->active();
  const int64_t span = spans ? recorder_->open(Layer::kSim, now_ns(), false)
                             : -1;
  const damkit::sim::DeviceStats& is = inner_->stats();
  const damkit::sim::SimTime setup0 = is.setup_time;
  const damkit::sim::SimTime transfer0 = is.transfer_time;
  std::vector<damkit::sim::IoCompletion> cs = inner_->submit_batch(reqs, now);
  for (size_t i = 0; i < cs.size(); ++i) account(reqs[i], cs[i], now, 0, 0);
  // The affine split is only known batch-wide; fold it in once.
  stats_.setup_time += is.setup_time - setup0;
  stats_.transfer_time += is.transfer_time - transfer0;
  if (spans) recorder_->close(span, now_ns());
  return cs;
}

uint64_t calibration_ns() {
  // A 1 MiB table walked in one pseudo-random cycle: each step is one
  // dependent load plus a hash, the mix of cache misses and ALU work that
  // dominates the engines' in-memory paths.
  constexpr uint32_t kSlots = 1u << 18;
  constexpr uint32_t kSteps = 1u << 19;
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> order(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    std::vector<uint32_t> link(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) {
      link[order[i]] = order[(i + 1) % kSlots];
    }
    return link;
  }();
  const uint64_t t0 = now_ns();
  uint32_t at = 0;
  uint64_t h = 14695981039346656037ULL;
  for (uint32_t i = 0; i < kSteps; ++i) {
    at = next[at];
    h = (h ^ at) * 0x100000001b3ULL;
  }
  const uint64_t t1 = now_ns();
  // Keep the loop's result observable so it is not optimized away.
  static volatile uint64_t sink;
  sink = sink + h;
  return t1 - t0;
}

}  // namespace perfbench
