// Tests for the batched submission path (Device::submit_batch and
// IoContext::submit_batch_checked): a batch of one must be bit-identical to the
// serial path, an SSD batch must exploit die parallelism per the PDAM, the
// HDD's NCQ window must reorder as its policy and depth say, an SSD batch
// must time the same under any reordering that keeps each die's order, and
// the nondecreasing-clock contract must abort loudly when violated.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/device.h"
#include "sim/hdd.h"
#include "sim/mq_ssd.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "sim/trace.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::sim {
namespace {

HddConfig hdd_config() {
  HddConfig cfg;
  cfg.name = "batch-test-hdd";
  cfg.capacity_bytes = 8ULL * kGiB;
  cfg.rpm = 7200;
  cfg.track_to_track_s = 0.001;
  cfg.full_stroke_s = 0.015;
  cfg.avg_bandwidth_bps = 150e6;
  cfg.track_bytes = kMiB;
  return cfg;
}

SsdConfig ssd_config(int channels, int dies_per_channel) {
  SsdConfig cfg;
  cfg.name = "batch-test-ssd";
  cfg.capacity_bytes = 4ULL * kGiB;
  cfg.channels = channels;
  cfg.dies_per_channel = dies_per_channel;
  cfg.page_bytes = 4096;
  cfg.stripe_bytes = 64 * kKiB;
  cfg.page_read_s = 50e-6;
  cfg.page_write_s = 200e-6;
  cfg.bus_s_per_page = 2e-6;
  cfg.command_overhead_s = 10e-6;
  return cfg;
}

TEST(BatchIoTest, HddBatchOfOneMatchesSerial) {
  const HddConfig cfg = hdd_config();
  HddDevice serial(cfg, 3);
  HddDevice batched(cfg, 3);  // same seed → same initial head position
  SimTime t = 0;
  Rng rng(9);
  for (int i = 0; i < 32; ++i) {
    const uint64_t off = rng.uniform(cfg.capacity_bytes / 4096) * 4096;
    const IoRequest req{IoKind::kRead, off, 4096};
    const IoCompletion a = serial.submit(req, t);
    const auto b = batched.submit_batch({&req, 1}, t);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a.start, b[0].start);
    EXPECT_EQ(a.finish, b[0].finish);
    t = a.finish;
  }
}

TEST(BatchIoTest, SsdBatchOfOneMatchesSerial) {
  const SsdConfig cfg = ssd_config(2, 2);
  SsdDevice serial(cfg);
  SsdDevice batched(cfg);
  SimTime t = 0;
  Rng rng(11);
  for (int i = 0; i < 32; ++i) {
    const uint64_t off = rng.uniform(cfg.capacity_bytes / 4096) * 4096;
    const IoRequest req{IoKind::kRead, off, 64 * kKiB};
    const IoCompletion a = serial.submit(req, t);
    const auto b = batched.submit_batch({&req, 1}, t);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(a.start, b[0].start);
    EXPECT_EQ(a.finish, b[0].finish);
    t = a.finish;
  }
}

TEST(BatchIoTest, IoContextBatchOfOneMatchesTouchRead) {
  const SsdConfig cfg = ssd_config(2, 2);
  SsdDevice dev_a(cfg);
  SsdDevice dev_b(cfg);
  IoContext serial(dev_a);
  IoContext batched(dev_b);
  std::vector<IoCompletion> cs;
  std::vector<Status> per_io;
  for (int i = 0; i < 8; ++i) {
    const IoRequest req{IoKind::kRead,
                        static_cast<uint64_t>(i) * 64 * kKiB, 64 * kKiB};
    ASSERT_TRUE(serial.touch_read_checked(req.offset, req.length).ok());
    ASSERT_TRUE(batched.submit_batch_checked({&req, 1}, &cs, &per_io).ok());
    EXPECT_EQ(serial.now(), batched.now());
  }
}

TEST(BatchIoTest, HddFifoBatchMatchesSerialLoop) {
  // With kFifo the batch serializes through the single actuator in
  // submission order, exactly like a serial loop that waits out each IO.
  HddConfig cfg = hdd_config();
  cfg.batch_policy = SchedPolicy::kFifo;
  HddDevice serial(cfg, 5);
  HddDevice batched(cfg, 5);
  std::vector<IoRequest> reqs;
  Rng rng(17);
  for (int i = 0; i < 16; ++i) {
    const uint64_t off = rng.uniform(cfg.capacity_bytes / 4096) * 4096;
    reqs.push_back({IoKind::kRead, off, 4096});
  }
  SimTime t = 0;
  std::vector<IoCompletion> expect;
  for (const IoRequest& r : reqs) {
    const IoCompletion c = serial.submit(r, t);
    expect.push_back(c);
    t = c.finish;
  }
  const auto got = batched.submit_batch(reqs, 0);
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start, expect[i].start) << "request " << i;
    EXPECT_EQ(got[i].finish, expect[i].finish) << "request " << i;
  }
}

TEST(BatchIoTest, HddSstfBatchNoSlowerThanFifo) {
  HddConfig fifo_cfg = hdd_config();
  fifo_cfg.batch_policy = SchedPolicy::kFifo;
  HddConfig sstf_cfg = hdd_config();
  sstf_cfg.batch_policy = SchedPolicy::kSstf;

  std::vector<IoRequest> reqs;
  Rng rng(23);
  for (int i = 0; i < 32; ++i) {
    const uint64_t off = rng.uniform(fifo_cfg.capacity_bytes / 4096) * 4096;
    reqs.push_back({IoKind::kRead, off, 4096});
  }
  HddDevice fifo(fifo_cfg, 7);
  HddDevice sstf(sstf_cfg, 7);
  SimTime fifo_done = 0, sstf_done = 0;
  for (const IoCompletion& c : fifo.submit_batch(reqs, 0)) {
    fifo_done = std::max(fifo_done, c.finish);
  }
  for (const IoCompletion& c : sstf.submit_batch(reqs, 0)) {
    sstf_done = std::max(sstf_done, c.finish);
  }
  // Seek-sorted service of a random window can only reduce total seeking.
  EXPECT_LE(sstf_done, fifo_done);
}

TEST(BatchIoTest, SsdBatchExploitsDieParallelism) {
  // The PDAM acceptance bar: P ≥ 8 independent IOs served as one batch
  // must run ≥ 1.5× faster than the serial one-at-a-time path. With 16
  // dies and 16 disjoint-die requests the win should be near-linear.
  const SsdConfig cfg = ssd_config(4, 4);  // P = 16 dies
  std::vector<IoRequest> reqs;
  for (int i = 0; i < 16; ++i) {
    // Consecutive stripes round-robin across all 16 dies.
    reqs.push_back({IoKind::kRead,
                    static_cast<uint64_t>(i) * cfg.stripe_bytes, 64 * kKiB});
  }
  SsdDevice serial_dev(cfg);
  IoContext serial(serial_dev);
  for (const IoRequest& r : reqs) {
    ASSERT_TRUE(serial.touch_read_checked(r.offset, r.length).ok());
  }
  const SimTime serial_elapsed = serial.now();

  SsdDevice batch_dev(cfg);
  IoContext batched(batch_dev);
  std::vector<IoCompletion> cs;
  std::vector<Status> per_io;
  ASSERT_TRUE(batched.submit_batch_checked(reqs, &cs, &per_io).ok());
  const SimTime batch_elapsed = batched.now();

  ASSERT_GT(batch_elapsed, 0u);
  const double speedup = static_cast<double>(serial_elapsed) /
                         static_cast<double>(batch_elapsed);
  EXPECT_GE(speedup, 1.5);
  EXPECT_GE(speedup, 8.0);  // disjoint dies: expect near the full P = 16
}

TEST(BatchIoTest, MultiStripeRequestsPayFullDispatchWeight) {
  // Regression for the first-stripe-only bucketing bug: batch dispatch
  // buckets requests by their FIRST stripe's die, but a w-stripe request
  // occupies w dies' worth of service. It must therefore consume w
  // round-robin credits (its bucket sits out the next w−1 rounds) instead
  // of letting its bucket claim a fresh slot every round and starve other
  // dies' requests on shared downstream resources.
  //
  // A slow host link serializes payloads in dispatch order, making that
  // order observable. Buckets: die 0 holds A (4-stripe) then B; die 1
  // holds C then D. Weighted round-robin dispatches A, C, D, B — die 1's
  // second request overtakes die 0's because A already spent die 0's
  // credit four rounds ahead. The buggy unweighted order was A, C, B, D.
  SsdConfig cfg = ssd_config(2, 2);
  cfg.link_bps = 1e6;  // 64 KiB ≈ 65 ms on the link: dominates flash time
  SsdDevice dev(cfg);
  const std::vector<IoRequest> reqs = {
      {IoKind::kRead, 0, 256 * kKiB},              // A: dies 0..3, bucket 0
      {IoKind::kRead, 4 * 64 * kKiB, 64 * kKiB},   // B: die 0
      {IoKind::kRead, 64 * kKiB, 64 * kKiB},       // C: die 1
      {IoKind::kRead, 5 * 64 * kKiB, 64 * kKiB},   // D: die 1
  };
  const std::vector<IoCompletion> cs = dev.submit_batch(reqs, 0);
  ASSERT_EQ(cs.size(), 4u);
  EXPECT_LT(cs[3].finish, cs[1].finish);  // D crosses the link before B
}

TEST(BatchIoTest, BatchAdvancesClockToMaxNotSum) {
  const SsdConfig cfg = ssd_config(4, 4);
  SsdDevice dev(cfg);
  IoContext io(dev);
  std::vector<IoRequest> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back({IoKind::kRead,
                    static_cast<uint64_t>(i) * cfg.stripe_bytes, 64 * kKiB});
  }
  std::vector<IoCompletion> cs;
  std::vector<Status> per_io;
  ASSERT_TRUE(io.submit_batch_checked(reqs, &cs, &per_io).ok());
  SimTime max_finish = 0;
  SimTime sum = 0;
  for (const IoCompletion& c : cs) {
    max_finish = std::max(max_finish, c.finish);
    sum += c.finish - c.start;
  }
  EXPECT_EQ(io.now(), max_finish);
  EXPECT_LT(io.now(), sum);  // strictly better than serial accumulation
}

// ---------------------------------------------------------------------------
// Disk scheduling (SchedulerTest): one batch of random reads queued at
// t = 0 on a disk whose NCQ window is `policy` over `depth` requests.
// ---------------------------------------------------------------------------

constexpr uint64_t kDiskBytes = 32ULL * kGiB;

HddConfig ncq_config(SchedPolicy policy, size_t depth) {
  HddConfig cfg;
  cfg.capacity_bytes = kDiskBytes;
  cfg.batch_policy = policy;
  cfg.queue_depth = depth;
  return cfg;
}

std::vector<IoRequest> random_reads(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<IoRequest> reqs;
  reqs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const uint64_t off = rng.uniform(kDiskBytes / 4096 - 1) * 4096;
    reqs.push_back({IoKind::kRead, off, 4096});
  }
  return reqs;
}

/// Latest finish of `reqs` submitted as one batch at t = 0.
SimTime ncq_makespan(SchedPolicy policy, size_t depth,
                     const std::vector<IoRequest>& reqs,
                     IoTrace* trace = nullptr) {
  HddDevice dev(ncq_config(policy, depth), 1);
  dev.set_trace(trace);
  SimTime makespan = 0;
  for (const IoCompletion& c : dev.submit_batch(reqs, 0)) {
    makespan = std::max(makespan, c.finish);
  }
  return makespan;
}

/// Times the arm changes sweep direction over a trace's service order.
uint64_t direction_reversals(const IoTrace& trace, uint64_t track_bytes) {
  uint64_t reversals = 0;
  int direction = 0;  // +1 toward higher tracks, -1 lower, 0 not yet moved
  const auto& recs = trace.records();
  for (size_t i = 1; i < recs.size(); ++i) {
    const uint64_t from = recs[i - 1].offset / track_bytes;
    const uint64_t to = recs[i].offset / track_bytes;
    if (from == to) continue;
    const int d = to > from ? 1 : -1;
    if (direction != 0 && d != direction) ++reversals;
    direction = d;
  }
  return reversals;
}

TEST(SchedulerTest, CompletesEverything) {
  HddDevice dev(ncq_config(SchedPolicy::kFifo, 1), 1);
  const auto reqs = random_reads(200, 3);
  const std::vector<IoCompletion> cs = dev.submit_batch(reqs, 0);
  ASSERT_EQ(cs.size(), 200u);
  for (const IoCompletion& c : cs) EXPECT_GT(c.finish, c.start);
  EXPECT_EQ(dev.stats().reads, 200u);
  EXPECT_EQ(dev.latency_histogram().count(), 200u);
}

TEST(SchedulerTest, FifoIgnoresQueueDepth) {
  const auto reqs = random_reads(300, 5);
  EXPECT_EQ(ncq_makespan(SchedPolicy::kFifo, 1, reqs),
            ncq_makespan(SchedPolicy::kFifo, 32, reqs));
}

TEST(SchedulerTest, SstfBeatsFifoWithDepth) {
  const auto reqs = random_reads(400, 7);
  const SimTime fifo = ncq_makespan(SchedPolicy::kFifo, 1, reqs);
  const SimTime sstf = ncq_makespan(SchedPolicy::kSstf, 32, reqs);
  EXPECT_LT(sstf, fifo * 7 / 10);  // > 30% faster at depth 32
}

TEST(SchedulerTest, ScanBeatsFifoWithDepth) {
  const auto reqs = random_reads(400, 9);
  const uint64_t track_bytes = HddConfig{}.track_bytes;
  IoTrace fifo_trace;
  IoTrace scan_trace;
  const SimTime fifo = ncq_makespan(SchedPolicy::kFifo, 1, reqs, &fifo_trace);
  const SimTime scan = ncq_makespan(SchedPolicy::kScan, 32, reqs, &scan_trace);
  EXPECT_LT(scan, fifo * 7 / 10);
  // The elevator sweeps: it reverses, but far less often than the
  // submission order's random walk does.
  const uint64_t scan_reversals =
      direction_reversals(scan_trace, track_bytes);
  EXPECT_GT(scan_reversals, 0u);
  EXPECT_LT(scan_reversals, direction_reversals(fifo_trace, track_bytes));
}

TEST(SchedulerTest, DeeperQueuesHelpMore) {
  const auto reqs = random_reads(400, 11);
  const SimTime serial = ncq_makespan(SchedPolicy::kSstf, 1, reqs);
  SimTime prev = serial;
  for (size_t depth : {4u, 16u, 64u}) {
    const SimTime t = ncq_makespan(SchedPolicy::kSstf, depth, reqs);
    EXPECT_LE(t, prev + prev / 50);  // monotone within 2% noise
    prev = t;
  }
  EXPECT_LT(prev, serial * 7 / 10);  // the window, not the batch, is the limit
}

TEST(SchedulerTest, DepthOneMatchesFifoRegardlessOfPolicy) {
  const auto reqs = random_reads(150, 13);
  const SimTime fifo = ncq_makespan(SchedPolicy::kFifo, 1, reqs);
  EXPECT_EQ(ncq_makespan(SchedPolicy::kSstf, 1, reqs), fifo);
  EXPECT_EQ(ncq_makespan(SchedPolicy::kScan, 1, reqs), fifo);
}

TEST(SchedulerTest, EmptyInput) {
  HddDevice dev(ncq_config(SchedPolicy::kScan, 8), 1);
  EXPECT_TRUE(dev.submit_batch({}, 0).empty());
  EXPECT_EQ(dev.stats().reads, 0u);
  EXPECT_EQ(dev.stats().busy_time, 0u);
}

TEST(SchedulerTest, PolicyNames) {
  EXPECT_STREQ(sched_policy_name(SchedPolicy::kFifo), "FIFO");
  EXPECT_STREQ(sched_policy_name(SchedPolicy::kSstf), "SSTF");
  EXPECT_STREQ(sched_policy_name(SchedPolicy::kScan), "SCAN");
}

TEST(SchedulerDeathTest, ZeroDepthRejected) {
  EXPECT_DEATH(HddDevice(ncq_config(SchedPolicy::kFifo, 0), 1), "");
}

// ---------------------------------------------------------------------------
// Die-order invariance: the SSD's batch dispatch buckets requests by die
// and keeps each bucket in batch order, so any reordering of a batch that
// keeps every die's requests in their original order is timed the same.
// serve::replay relies on this to hand the device its batch unsorted.
// ---------------------------------------------------------------------------

/// A seeded batch of reads and writes, some spanning several stripes,
/// spread over the client queue pairs.
std::vector<IoRequest> mixed_batch(const SsdConfig& cfg, Rng& rng) {
  std::vector<IoRequest> reqs;
  const size_t n = 1 + rng.uniform(40);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t pages = 1 + rng.uniform(48);  // up to 3 stripes of 64 KiB
    const uint64_t len = pages * cfg.page_bytes;
    const uint64_t off =
        rng.uniform((cfg.capacity_bytes - len) / cfg.page_bytes) *
        cfg.page_bytes;
    reqs.push_back({rng.uniform(4) == 0 ? IoKind::kWrite : IoKind::kRead, off,
                    len, static_cast<uint32_t>(rng.uniform(4))});
  }
  return reqs;
}

/// A random interleaving of `reqs` that keeps each die's requests in
/// their original relative order: order[j] is the original index of the
/// j-th request of the reordered batch.
std::vector<size_t> die_order_preserving_shuffle(
    const SsdConfig& cfg, const std::vector<IoRequest>& reqs, Rng& rng) {
  std::vector<std::vector<size_t>> by_die(
      static_cast<size_t>(cfg.total_dies()));
  for (size_t i = 0; i < reqs.size(); ++i) {
    by_die[static_cast<size_t>(cfg.die_of(reqs[i].offset))].push_back(i);
  }
  std::vector<size_t> head(by_die.size(), 0);
  std::vector<size_t> order;
  while (order.size() < reqs.size()) {
    const size_t die = rng.uniform(by_die.size());
    if (head[die] < by_die[die].size()) {
      order.push_back(by_die[die][head[die]++]);
    }
  }
  return order;
}

template <typename Dev>
void expect_die_order_invariance(const SsdConfig& cfg) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    Dev original(cfg);
    Dev reordered(cfg);
    SimTime now = 0;
    // Several batches per device, so queue, link and GC state carries.
    for (int batch = 0; batch < 4; ++batch) {
      const std::vector<IoRequest> reqs = mixed_batch(cfg, rng);
      const std::vector<size_t> order =
          die_order_preserving_shuffle(cfg, reqs, rng);
      std::vector<IoRequest> shuffled;
      for (const size_t i : order) shuffled.push_back(reqs[i]);
      const std::vector<IoCompletion> a = original.submit_batch(reqs, now);
      const std::vector<IoCompletion> b =
          reordered.submit_batch(shuffled, now);
      ASSERT_EQ(a.size(), reqs.size());
      ASSERT_EQ(b.size(), reqs.size());
      SimTime done = now;
      for (size_t j = 0; j < order.size(); ++j) {
        EXPECT_EQ(b[j].start, a[order[j]].start) << "request " << order[j];
        EXPECT_EQ(b[j].finish, a[order[j]].finish) << "request " << order[j];
        done = std::max(done, a[order[j]].finish);
      }
      now = now + (done - now) / 2;  // next batch overlaps this one's tail
    }
  }
}

TEST(BatchIoTest, SsdBatchTimingIgnoresCrossDieOrder) {
  SsdConfig cfg = ssd_config(2, 4);
  cfg.link_bps = 2e9;  // a shared link makes dispatch order observable
  expect_die_order_invariance<SsdDevice>(cfg);
}

TEST(BatchIoTest, MqSsdBatchTimingIgnoresCrossDieOrder) {
  SsdConfig cfg = testbed_mq_profile();
  cfg.gc_interval_s = 3e-3;  // GC bursts steal die time mid-batch
  cfg.gc_burst_s = 1e-3;
  expect_die_order_invariance<MqSsdDevice>(cfg);
}

TEST(BatchIoDeathTest, ClockMustNotRunBackwards) {
  SsdDevice dev(ssd_config(2, 2));
  dev.submit({IoKind::kRead, 0, 4096}, 1000);
  EXPECT_DEATH(dev.submit({IoKind::kRead, 0, 4096}, 500),
               "clock ran backwards");
}

TEST(BatchIoDeathTest, BatchClockMustNotRunBackwards) {
  HddDevice dev(hdd_config());
  const IoRequest req{IoKind::kRead, 0, 4096};
  dev.submit_batch({&req, 1}, 1000);
  EXPECT_DEATH(dev.submit_batch({&req, 1}, 999), "clock ran backwards");
}

}  // namespace
}  // namespace damkit::sim
