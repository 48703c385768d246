#include "blockdev/retry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/fault_injection.h"

namespace damkit::blockdev {
namespace {

constexpr uint64_t kCapacity = 1ULL << 30;
constexpr uint64_t kIo = 4096;
constexpr sim::SimTime kBackoff = 100;

// Serves every IO in zero time, so the caller's clock moves only by retry
// backoff. Records the offsets of each batch it serves.
class InstantDevice final : public sim::Device {
 public:
  InstantDevice() : sim::Device(kCapacity) {}
  std::string name() const override { return "instant"; }

  std::vector<std::vector<uint64_t>> batches;

 protected:
  sim::IoCompletion submit_io(const sim::IoRequest& req,
                              sim::SimTime now) override {
    (void)req;
    return {now, now};
  }
  std::vector<sim::IoCompletion> submit_batch_io(
      std::span<const sim::IoRequest> reqs, sim::SimTime now) override {
    std::vector<uint64_t>& offsets = batches.emplace_back();
    for (const sim::IoRequest& req : reqs) offsets.push_back(req.offset);
    return std::vector<sim::IoCompletion>(reqs.size(), {now, now});
  }
};

RetryPolicy policy(uint32_t max_attempts) {
  RetryPolicy p;
  p.max_attempts = max_attempts;
  p.backoff_ns = kBackoff;
  p.backoff_multiplier = 2.0;
  return p;
}

// Backoff paid before attempts 2..attempts: kBackoff * (1 + 2 + ...).
sim::SimTime backoff_for(uint64_t attempts) {
  if (attempts == 0) return 0;
  return kBackoff * ((sim::SimTime{1} << (attempts - 1)) - 1);
}

std::vector<sim::IoRequest> reads(size_t n) {
  std::vector<sim::IoRequest> reqs;
  for (size_t i = 0; i < n; ++i) {
    reqs.push_back({sim::IoKind::kRead, i * kIo, kIo});
  }
  return reqs;
}

TEST(WithRetriesTest, ChargesOneGrowingBackoffPerRetryThenGivesUp) {
  InstantDevice inner;
  sim::FaultConfig cfg;
  cfg.read_error_rate = 1.0;
  sim::FaultInjectingDevice dev(inner, cfg);
  sim::IoContext io(dev);
  RetryCounters counters;
  const Status s =
      with_retries(io, policy(4), &counters, /*retry_corruption=*/false,
                   [&] { return io.touch_read_checked(0, kIo); });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(io.now(), backoff_for(4));  // 100 + 200 + 400
  EXPECT_EQ(counters.retries, 3u);
  EXPECT_EQ(counters.give_ups, 1u);
  EXPECT_EQ(counters.retries + counters.give_ups,
            dev.fault_stats().injected_errors());
}

TEST(WithRetriesTest, RetriesCorruptionOnlyWhenAsked) {
  InstantDevice inner;
  sim::FaultConfig cfg;
  cfg.torn_write_rate = 1.0;
  sim::FaultInjectingDevice dev(inner, cfg);
  sim::IoContext io(dev);
  const auto write = [&](bool retry_corruption, RetryCounters* counters) {
    return with_retries(io, policy(3), counters, retry_corruption, [&] {
      return io.touch_write_checked(0, kIo);
    });
  };

  RetryCounters once;
  EXPECT_EQ(write(false, &once).code(), StatusCode::kCorruption);
  EXPECT_EQ(io.now(), 0u);
  EXPECT_EQ(once.retries, 0u);
  EXPECT_EQ(once.give_ups, 1u);

  RetryCounters retried;
  EXPECT_EQ(write(true, &retried).code(), StatusCode::kCorruption);
  EXPECT_EQ(io.now(), backoff_for(3));
  EXPECT_EQ(retried.retries, 2u);
  EXPECT_EQ(retried.give_ups, 1u);
  EXPECT_EQ(dev.fault_stats().injected_torn_writes, 4u);
}

TEST(WithRetriesTest, SeededTransientFaultsAreRetriedOrGivenUp) {
  InstantDevice inner;
  sim::FaultConfig cfg;
  cfg.seed = 11;
  cfg.read_error_rate = 0.4;
  sim::FaultInjectingDevice dev(inner, cfg);
  sim::IoContext io(dev);
  RetryCounters counters;
  sim::SimTime want_clock = 0;
  uint64_t failures = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t before = counters.retries;
    const Status s =
        with_retries(io, policy(3), &counters, /*retry_corruption=*/false,
                     [&] { return io.touch_read_checked(i * kIo, kIo); });
    if (!s.ok()) ++failures;
    want_clock += backoff_for(counters.retries - before + 1);
  }
  EXPECT_GT(counters.retries, 0u);
  EXPECT_GT(counters.give_ups, 0u);
  EXPECT_EQ(counters.give_ups, failures);
  EXPECT_EQ(io.now(), want_clock);
  EXPECT_EQ(counters.retries + counters.give_ups,
            dev.fault_stats().injected_errors());
}

TEST(WithBatchRetriesTest, ResubmitsOnlyFailedRequestsOneBackoffPerRound) {
  InstantDevice inner;
  sim::FaultConfig cfg;
  cfg.seed = 5;
  cfg.read_error_rate = 0.5;
  sim::FaultInjectingDevice dev(inner, cfg);
  sim::IoContext io(dev);
  const std::vector<sim::IoRequest> reqs = reads(64);
  BatchScratch scratch;
  RetryCounters counters;
  // Per round, the offsets of the requests that failed; and the failures
  // of the last round, which are the give-ups.
  std::vector<std::vector<uint64_t>> failed_in_round;
  std::vector<Status> last_round_failures;
  const Status s = with_batch_retries(
      io, policy(3), &counters, /*retry_corruption=*/false, reqs, scratch,
      [&](size_t i, const Status& st) {
        const size_t round = inner.batches.size() - 1;
        if (failed_in_round.size() <= round) failed_in_round.emplace_back();
        if (!st.ok()) {
          failed_in_round[round].push_back(reqs[i].offset);
          if (round == 2) last_round_failures.push_back(st);
        }
        return Status();
      });

  ASSERT_EQ(inner.batches.size(), 3u);  // the seed exhausts the attempts
  std::vector<uint64_t> all;
  for (const sim::IoRequest& r : reqs) all.push_back(r.offset);
  EXPECT_EQ(inner.batches[0], all);
  uint64_t resubmitted = 0;
  for (size_t r = 1; r < inner.batches.size(); ++r) {
    EXPECT_EQ(inner.batches[r], failed_in_round[r - 1]) << "round " << r;
    resubmitted += inner.batches[r].size();
  }
  EXPECT_EQ(io.now(), backoff_for(3));
  EXPECT_EQ(counters.retries, resubmitted);
  ASSERT_FALSE(last_round_failures.empty());
  EXPECT_EQ(counters.give_ups, last_round_failures.size());
  EXPECT_EQ(counters.retries + counters.give_ups,
            dev.fault_stats().injected_errors());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.message(), last_round_failures.front().message());
}

TEST(WithBatchRetriesTest, RetriesCorruptionOnlyWhenAsked) {
  InstantDevice inner;
  sim::FaultConfig cfg;
  cfg.torn_write_rate = 1.0;
  sim::FaultInjectingDevice dev(inner, cfg);
  sim::IoContext io(dev);
  std::vector<sim::IoRequest> writes = reads(4);
  for (sim::IoRequest& w : writes) w.kind = sim::IoKind::kWrite;
  BatchScratch scratch;
  const auto write = [&](bool retry_corruption, RetryCounters* counters) {
    return with_batch_retries(io, policy(3), counters, retry_corruption,
                              writes, scratch,
                              [](size_t, const Status&) { return Status(); });
  };

  RetryCounters once;
  EXPECT_EQ(write(false, &once).code(), StatusCode::kCorruption);
  EXPECT_EQ(inner.batches.size(), 1u);
  EXPECT_EQ(io.now(), 0u);
  EXPECT_EQ(once.retries, 0u);
  EXPECT_EQ(once.give_ups, 4u);

  RetryCounters retried;
  EXPECT_EQ(write(true, &retried).code(), StatusCode::kCorruption);
  EXPECT_EQ(inner.batches.size(), 4u);
  EXPECT_EQ(io.now(), backoff_for(3));
  EXPECT_EQ(retried.retries, 8u);
  EXPECT_EQ(retried.give_ups, 4u);
  EXPECT_EQ(dev.fault_stats().injected_torn_writes, 16u);
}

TEST(WithBatchRetriesTest, CompletionErrorAbandonsWithoutRetry) {
  InstantDevice inner;
  sim::FaultInjectingDevice dev(inner, sim::FaultConfig{});
  sim::IoContext io(dev);
  const std::vector<sim::IoRequest> reqs = reads(3);
  BatchScratch scratch;
  RetryCounters counters;
  size_t calls = 0;
  const Status s = with_batch_retries(
      io, policy(3), &counters, /*retry_corruption=*/true, reqs, scratch,
      [&](size_t i, const Status& st) {
        EXPECT_TRUE(st.ok());
        ++calls;
        if (i == 0) return Status();
        return Status::corruption("bad frame " + std::to_string(i));
      });
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.message(), "bad frame 1");
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(inner.batches.size(), 1u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(counters.give_ups, 0u);
}

TEST(WithBatchRetriesTest, InvalidRequestFailsBeforeAnyIo) {
  InstantDevice inner;
  sim::FaultInjectingDevice dev(inner, sim::FaultConfig{});
  sim::IoContext io(dev);
  std::vector<sim::IoRequest> reqs = reads(2);
  reqs[1].offset = kCapacity;  // past the end
  BatchScratch scratch;
  size_t calls = 0;
  const Status s = with_batch_retries(
      io, policy(3), nullptr, /*retry_corruption=*/false, reqs, scratch,
      [&](size_t, const Status&) {
        ++calls;
        return Status();
      });
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(inner.batches.empty());
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace damkit::blockdev
