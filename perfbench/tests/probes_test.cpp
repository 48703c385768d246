// The probes must be transparent: a traced pass computes exactly what an
// untraced pass computes, and its layer self times partition each op's
// span exactly.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "engine_run.h"
#include "probes.h"
#include "reference.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace kv = damkit::kv;
namespace sim = damkit::sim;

// A workload shrunk to test size; the cycle checks need full-size runs.
Workload small(const char* name) {
  Workload w = *find_workload(name);
  w.spec.key_space = 3000;
  w.warmup_ops = 300;
  w.cycles.clear();
  w.min_hit_ratio = 0.0;
  return w;
}

struct Passes {
  EngineRun plain;
  EngineRun traced;
};

// Both passes over the same streams, rounds interleaved as in a run.
Passes run_both(const Workload& w, kv::EngineKind kind,
                uint64_t ops_per_round) {
  const Streams streams = make_streams(w, 11, ops_per_round);
  const ReferenceResult expect =
      run_reference(streams.bulk_items, streams.all());
  EngineBench plain(w, kind, streams, expect, 1, false);
  EngineBench traced(w, kind, streams, expect, 1, true);
  for (size_t r = 0; r < kRounds; ++r) {
    plain.run_round(r);
    traced.run_round(r);
  }
  plain.finish();
  traced.finish();
  return {plain.result(), traced.result()};
}

void expect_transparent(const Passes& p) {
  EXPECT_TRUE(p.plain.errors.empty()) << p.plain.errors.front();
  EXPECT_TRUE(p.traced.errors.empty()) << p.traced.errors.front();
  EXPECT_EQ(p.plain.round_digests, p.traced.round_digests);
  EXPECT_EQ(p.plain.state_digest, p.traced.state_digest);
  EXPECT_EQ(p.plain.sim_elapsed, p.traced.sim_elapsed);
  EXPECT_EQ(p.plain.device.bytes_written, p.traced.device.bytes_written);
  EXPECT_EQ(p.plain.device.busy_time, p.traced.device.busy_time);
  EXPECT_EQ(p.plain.log.user_bytes_written, p.traced.log.user_bytes_written);
  ASSERT_EQ(p.plain.log.samples.size(), p.traced.log.samples.size());
  for (size_t i = 0; i < p.plain.log.samples.size(); ++i) {
    ASSERT_EQ(p.plain.log.samples[i].sim_ns, p.traced.log.samples[i].sim_ns)
        << "op " << i;
  }
}

// Every op's self times (its own span and every span under it) add up to
// the op span, and each round's layers add up to its phase span.
void expect_partition(const EngineRun& traced) {
  const std::vector<Span>& spans = traced.spans;
  ASSERT_FALSE(spans.empty());
  ASSERT_TRUE(spans_nest(spans));
  const std::vector<uint64_t> self = self_times(spans);
  std::map<int64_t, uint64_t> round_self;          // root index -> sum
  std::map<uint64_t, uint64_t> op_self, op_span;  // op id -> ns
  std::vector<int64_t> root_of(spans.size());
  uint64_t rounds_total = 0, self_total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self_total += self[i];
    if (s.parent < 0) {
      ASSERT_EQ(s.layer, Layer::kHarness);
      root_of[i] = static_cast<int64_t>(i);
      rounds_total += s.end_ns - s.start_ns;
      round_self[root_of[i]] += self[i];
      continue;
    }
    root_of[i] = root_of[static_cast<size_t>(s.parent)];
    round_self[root_of[i]] += self[i];
    op_self[s.op] += self[i];
    if (spans[static_cast<size_t>(s.parent)].parent < 0) {
      op_span[s.op] = s.end_ns - s.start_ns;
    }
  }
  for (const auto& [root, ns] : round_self) {
    const Span& r = spans[static_cast<size_t>(root)];
    EXPECT_EQ(ns, r.end_ns - r.start_ns);
  }
  ASSERT_EQ(op_self.size(), op_span.size());
  for (const auto& [op, ns] : op_span) EXPECT_EQ(op_self[op], ns) << op;
  EXPECT_EQ(self_total, rounds_total);
  uint64_t layers = 0;
  for (const uint64_t ns : traced.self_ns) layers += ns;
  EXPECT_EQ(layers, rounds_total);
}

TEST(Probes, TracedDurablePassIsTransparentForEveryEngine) {
  const Workload w = small("ingest-durable");
  for (const kv::EngineKind kind : kv::kAllEngineKinds) {
    SCOPED_TRACE(std::string(kv::engine_kind_name(kind)));
    const Passes p = run_both(w, kind, 150);
    expect_transparent(p);
    expect_partition(p.traced);
    EXPECT_GT(p.traced.self_ns[static_cast<int>(Layer::kWal)], 0u);
    EXPECT_GT(p.traced.self_ns[static_cast<int>(Layer::kSim)], 0u);
  }
}

TEST(Probes, TracedScanPassIsTransparent) {
  const Workload w = small("scan-cold");
  const Passes p = run_both(w, kv::EngineKind::kBeTree, 20);
  expect_transparent(p);
  expect_partition(p.traced);
  EXPECT_EQ(p.traced.self_ns[static_cast<int>(Layer::kWal)], 0u);
}

TEST(Probes, TracedServingPassIsTransparent) {
  const Workload w = small("serve-mq");
  const Passes p = run_both(w, kv::EngineKind::kBTree, 150);
  expect_transparent(p);
  expect_partition(p.traced);
  EXPECT_GT(p.plain.sim_latency.count(), 0u);
  EXPECT_EQ(p.plain.sim_latency.count(), p.traced.sim_latency.count());
  EXPECT_EQ(p.plain.sim_latency.sum(), p.traced.sim_latency.sum());
  EXPECT_EQ(p.plain.serial_elapsed, p.traced.serial_elapsed);
}

TEST(Probes, TimingDeviceDelegatesTimingUnchanged) {
  sim::SsdDevice bare(sim::testbed_ssd_profile());
  sim::SsdDevice model(sim::testbed_ssd_profile());
  SpanRecorder recorder;
  recorder.set_active(true);
  TimingDevice probe(model, &recorder);
  sim::SimTime now = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const sim::IoRequest req{i % 3 == 0 ? sim::IoKind::kWrite
                                        : sim::IoKind::kRead,
                             (i * 7919 % 512) * 16384, 4096 * (1 + i % 4), 0};
    const sim::IoCompletion a = bare.submit(req, now);
    const sim::IoCompletion b = probe.submit(req, now);
    ASSERT_EQ(a.start, b.start);
    ASSERT_EQ(a.finish, b.finish);
    now += 1000;
  }
  const std::vector<sim::IoRequest> batch(8, {sim::IoKind::kRead, 0, 4096, 0});
  const auto ab = bare.submit_batch(batch, now);
  const auto bb = probe.submit_batch(batch, now);
  for (size_t i = 0; i < ab.size(); ++i) EXPECT_EQ(ab[i].finish, bb[i].finish);
  EXPECT_EQ(bare.stats().busy_time, probe.stats().busy_time);
  EXPECT_EQ(bare.stats().bytes_written, probe.stats().bytes_written);
  EXPECT_EQ(bare.stats().setup_time, probe.stats().setup_time);
  EXPECT_EQ(recorder.spans().size(), 201u);  // one per submission
}

TEST(Probes, SpansNestRejectsOverlapAndEscape) {
  // root [0,100] with children [10,40] and [50,90]; the second child has a
  // grandchild [60,70].
  std::vector<Span> spans = {{0, 100, 0, -1, Layer::kHarness},
                             {10, 40, 1, 0, Layer::kEngine},
                             {50, 90, 2, 0, Layer::kEngine},
                             {60, 70, 2, 2, Layer::kSim}};
  EXPECT_TRUE(spans_nest(spans));
  EXPECT_EQ(self_times(spans), (std::vector<uint64_t>{30, 30, 30, 10}));
  std::vector<Span> escape = spans;
  escape[3].end_ns = 95;  // grandchild ends after its parent
  EXPECT_FALSE(spans_nest(escape));
  std::vector<Span> overlap = spans;
  overlap[2].start_ns = 30;  // sibling starts before the previous one ends
  EXPECT_FALSE(spans_nest(overlap));
  std::vector<Span> open_span = spans;
  open_span[1].end_ns = 0;  // never closed
  EXPECT_FALSE(spans_nest(open_span));
}

TEST(Reference, UpsertAndScanFollowDictionarySemantics) {
  ReferenceDictionary ref;
  ref.put("a", "12345678");
  ref.upsert("a", 1);
  ref.upsert("b", 5);
  ref.put("c", "x");
  ref.erase("c");
  const auto rows = ref.range_scan("a", 10);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].first, "b");
  EXPECT_EQ(ref.mutations(), 5u);
}

}  // namespace
}  // namespace perfbench
