// Extension experiment: disk scheduling changes α, and α changes designs.
//
// The affine model's setup cost s is not a constant of the hardware — it
// is a property of the request stream the arm actually serves. With an
// NCQ-style window the drive serves the nearest request (SSTF/SCAN),
// shrinking the effective s. This bench measures s under each policy and
// queue depth, re-fits the affine model, and shows how the Corollary-7
// optimal B-tree node size moves — closing the loop from the paper's
// ref [3] (disk scheduling) to its §5 (node sizing).
#include <algorithm>
#include <vector>

#include "bench_common.h"
#include "harness/fitting.h"
#include "harness/report.h"
#include "model/tree_costs.h"
#include "sim/hdd.h"
#include "sim/profiles.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace {

using namespace damkit;

std::vector<sim::IoRequest> random_reads(uint64_t n, uint64_t io_bytes,
                                         uint64_t seed, uint64_t capacity) {
  Rng rng(seed);
  std::vector<sim::IoRequest> reqs;
  reqs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t off = rng.uniform(capacity / io_bytes - 1) * io_bytes;
    reqs.push_back({sim::IoKind::kRead, off, io_bytes});
  }
  return reqs;
}

/// Mean seconds per IO when the whole trace is queued at t = 0 on a disk
/// whose NCQ window (`policy` over `depth` pending requests) orders it:
/// the makespan (latest finish) over the IO count.
double seconds_per_io(sim::HddConfig hdd, sim::SchedPolicy policy,
                      size_t depth, uint64_t seed, uint64_t n,
                      uint64_t io_bytes, uint64_t trace_seed) {
  hdd.batch_policy = policy;
  hdd.queue_depth = depth;
  sim::HddDevice dev(hdd, seed);
  const std::vector<sim::IoRequest> reqs =
      random_reads(n, io_bytes, trace_seed, dev.capacity_bytes());
  sim::SimTime makespan = 0;
  for (const sim::IoCompletion& c : dev.submit_batch(reqs, 0)) {
    makespan = std::max(makespan, c.finish);
  }
  return sim::to_seconds(makespan) / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::banner("Disk scheduling vs the affine model (extension)",
                "§2.3 + ref [3] (Andrews-Bender-Zhang)");

  const sim::HddConfig hdd = sim::testbed_hdd_profile();
  const uint64_t n = args.quick ? 300 : 1000;

  // Part 1: effective per-IO time under each policy/depth (4 KiB reads).
  Table t({"policy", "queue depth", "ms per IO", "vs FIFO"});
  double fifo_ms = 0.0;
  for (const auto policy :
       {sim::SchedPolicy::kFifo, sim::SchedPolicy::kSstf,
        sim::SchedPolicy::kScan}) {
    for (const size_t depth : {size_t{1}, size_t{8}, size_t{32},
                               size_t{128}}) {
      if (policy == sim::SchedPolicy::kFifo && depth != 1) continue;
      const double ms =
          seconds_per_io(hdd, policy, depth, args.seed, n, 4096, args.seed) *
          1e3;
      if (policy == sim::SchedPolicy::kFifo) fifo_ms = ms;
      t.add_row({sim::sched_policy_name(policy), strfmt("%zu", depth),
                 strfmt("%.2f", ms), strfmt("%.2fx", fifo_ms / ms)});
    }
  }
  harness::emit("Effective per-IO time by scheduling policy", t,
                args.csv_prefix + "scheduling.csv");

  // Part 2: re-fit (s, t) under FIFO vs SCAN-32 and move Corollary 7.
  Table fit_table({"policy", "s (ms)", "t (us/4K)", "alpha",
                   "Cor-7 optimal node"});
  for (const auto& [name, policy, depth] :
       {std::tuple{"FIFO qd1", sim::SchedPolicy::kFifo, size_t{1}},
        std::tuple{"SCAN qd32", sim::SchedPolicy::kScan, size_t{32}}}) {
    std::vector<harness::AffineSample> samples;
    for (uint64_t io = 4 * kKiB; io <= 16 * kMiB; io *= 2) {
      samples.push_back(
          {io, seconds_per_io(hdd, policy, depth, args.seed,
                              args.quick ? 48 : 128, io, args.seed ^ io)});
    }
    const harness::AffineFit fit = fit_affine(samples);
    const double alpha_per_byte = fit.t_per_byte / fit.s;
    const double opt_elems =
        model::optimal_btree_node_size(alpha_per_byte * 128.0);  // per entry
    fit_table.add_row(
        {name, strfmt("%.1f", fit.s * 1e3), strfmt("%.1f", fit.t_per_4k * 1e6),
         strfmt("%.4f", fit.alpha),
         format_bytes(static_cast<uint64_t>(opt_elems * 128.0))});
  }
  harness::emit("Affine refit under scheduling; Corollary 7 moves",
                fit_table, args.csv_prefix + "scheduling_fit.csv");
  std::printf(
      "\nreading: reordering shrinks the effective setup cost s, raising "
      "alpha and shrinking the optimal B-tree node — the model's "
      "parameters belong to the (device x workload x scheduler) triple, "
      "not the device alone.\n");
  return 0;
}
