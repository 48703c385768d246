// The paper's ten artefacts in one run, in paper order: Tables 1-3,
// Figures 1-3, Lemmas 1, 3 and 13, and Theorem 9. Each section prints
// its table to stdout and writes the CSV under --csv-prefix; sweeps run
// their points on --threads host threads, so every CSV is byte-identical
// for any thread count.
//
// Measurements that several artefacts read run once: Table 1 and Figure
// 1 share one PDAM sweep per SSD, Table 2 and Lemma 1 one affine sweep
// per HDD. Exits 1 if Lemma 1's factor-of-2 envelope fails on any disk.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "harness/experiments.h"
#include "harness/report.h"
#include "model/dam.h"
#include "model/pdam.h"
#include "model/tree_costs.h"
#include "pdam_tree/pdam_btree.h"
#include "sim/profiles.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace {

using namespace damkit;
using PdamRows =
    std::vector<std::pair<std::string, harness::PdamExperimentResult>>;
using AffineRows =
    std::vector<std::pair<std::string, harness::AffineExperimentResult>>;

void banner(const char* what, const char* paper_ref) {
  std::printf("\n");
  bench::banner(what, paper_ref);
}

// Paper: 10 GiB per thread; fitted P and MB/s are volume-invariant.
uint64_t bytes_per_thread(const bench::BenchArgs& args) {
  return args.quick ? 64ULL * kMiB : 1ULL * kGiB;
}

// §4.1: p = 1..64 closed-loop random-read rounds (64 KiB IOs) on each SSD;
// P comes from segmented linear regression of total time vs p.
PdamRows run_pdam_sweeps(const bench::BenchArgs& args) {
  harness::PdamExperimentConfig cfg;
  cfg.bytes_per_thread = bytes_per_thread(args);
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  PdamRows rows;
  for (const sim::SsdConfig& ssd : sim::paper_ssd_profiles()) {
    rows.emplace_back(ssd.name, harness::run_pdam_experiment(ssd, cfg));
  }
  return rows;
}

// §4.2: 64 block-aligned random reads at each IO size from 4 KiB to
// 16 MiB on each HDD, fitted as seconds = s + t·bytes by OLS.
AffineRows run_affine_sweeps(const bench::BenchArgs& args) {
  harness::AffineExperimentConfig cfg;
  cfg.reads_per_size = args.quick ? 16 : 64;
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  AffineRows rows;
  for (const sim::HddConfig& hdd : sim::paper_hdd_profiles()) {
    rows.emplace_back(hdd.name + " (" + std::to_string(hdd.year) + ")",
                      harness::run_affine_experiment(hdd, cfg));
  }
  return rows;
}

// Table 1: P, the saturated throughput ∝PB and R² per SSD.
void table1(const bench::BenchArgs& args, const PdamRows& rows) {
  banner("Table 1 — PDAM parameters of four SSDs", "Table 1, §4.1");
  std::printf(
      "scale note: %s per thread (paper used 10 GiB; fitted P and MB/s are "
      "volume-invariant)\n",
      format_bytes(bytes_per_thread(args)).c_str());
  harness::emit("Table 1: P and saturated throughput per SSD",
                harness::make_pdam_table(rows),
                args.csv_prefix + "table1.csv");
  std::printf(
      "\npaper:     860 pro P=3.3 @530 MB/s | 970 pro P=5.5 @2500 | "
      "S55 P=2.9 @260 | Ultra II P=4.6 @520\n");
}

// Figure 1: the DAM predicts read time linear in p everywhere; the PDAM
// (and the devices) stay flat until p ≈ P and grow linearly after.
void fig1(const bench::BenchArgs& args, const PdamRows& rows) {
  banner("Figure 1 — read time vs thread count per SSD", "Figure 1, §4.1");
  harness::emit("Figure 1: seconds to read " +
                    format_bytes(bytes_per_thread(args)) + " per thread",
                harness::make_pdam_figure(rows), args.csv_prefix + "fig1.csv");

  // The headline claims: flat region error vs PDAM, and the DAM's
  // overestimate of roughly P at high thread counts.
  Table claims({"Device", "PDAM max err (p<=P)", "DAM overestimate @64"});
  for (const auto& [name, res] : rows) {
    const double base = res.samples.front().seconds;
    double max_err = 0.0;
    for (const auto& s : res.samples) {
      if (s.threads <= res.fit.p) {
        max_err = std::max(max_err, std::abs(s.seconds - base) / base);
      }
    }
    // DAM: time grows linearly from p=1 (no parallelism).
    const double dam_pred = base * res.samples.back().threads;
    const double dam_over = dam_pred / res.samples.back().seconds;
    claims.add_row({name, strfmt("%.0f%%", max_err * 100),
                    strfmt("%.1fx", dam_over)});
  }
  harness::emit("Figure 1 claims: PDAM accuracy and DAM error", claims,
                args.csv_prefix + "fig1_claims.csv");
  std::printf(
      "\npaper: PDAM predicts within 14%%; DAM overestimates by ~P "
      "(2.5-12x)\n");
}

// Table 2: s, t, α and R² per HDD, plus one disk's raw per-size series.
void table2(const bench::BenchArgs& args, const AffineRows& rows) {
  banner("Table 2 — affine parameters of five HDDs", "Table 2, §4.2");
  harness::emit("Table 2: s, t, alpha per HDD",
                harness::make_affine_table(rows),
                args.csv_prefix + "table2.csv");
  Table series({"IO size", "mean seconds"});
  for (const auto& s : rows.front().second.samples) {
    series.add_row({format_bytes(s.io_bytes), strfmt("%.4f", s.seconds)});
  }
  harness::emit("raw series for " + rows.front().first, series,
                args.csv_prefix + "table2_series.csv");
  std::printf(
      "\npaper:    s = .018/.015/.013/.012/.016, t(4K) = 21/33/41/35/26 us, "
      "alpha = .0012/.0022/.0031/.0029/.0017, R^2 ~ 0.999\n");
}

// Lemma 1: with B at the half-bandwidth point, the DAM approximates the
// IO cost within a factor of 2. Returns false if any disk falls outside.
bool lemma1(const bench::BenchArgs& args, const AffineRows& rows) {
  banner("Lemma 1 — DAM within 2x at the half-bandwidth point",
         "Lemma 1, §2.3");
  Table t({"Disk", "half-bw point", "max DAM/actual", "max actual/DAM",
           "within 2x"});
  const std::vector<sim::HddConfig> hdds = sim::paper_hdd_profiles();
  bool all_ok = true;
  for (size_t i = 0; i < rows.size(); ++i) {
    const harness::AffineExperimentResult& res = rows[i].second;
    // Parameterize both models from the same measurement, exactly as a
    // practitioner would: s and t from the regression, B = s/t.
    const double s = res.fit.s;
    const double t_byte = res.fit.t_per_byte;
    const auto half_bw = static_cast<uint64_t>(s / t_byte);
    const model::DamModel dam(half_bw);

    // Compare against the fitted affine curve (the device's systematic
    // cost); raw per-size sample means carry a few-percent seek-sampling
    // noise which is irrelevant to the model claim.
    double max_over = 0.0, max_under = 0.0;
    for (const auto& sample : res.samples) {
      const double actual =
          s + t_byte * static_cast<double>(sample.io_bytes);
      const double dam_pred = dam.predicted_seconds(
          dam.ios_for(sample.io_bytes), s, t_byte);
      max_over = std::max(max_over, dam_pred / actual);
      max_under = std::max(max_under, actual / dam_pred);
    }
    const bool ok = max_over <= 2.05 && max_under <= 2.05;
    all_ok = all_ok && ok;
    t.add_row({hdds[i].name, format_bytes(half_bw),
               strfmt("%.2fx", max_over), strfmt("%.2fx", max_under),
               ok ? "yes" : "NO"});
  }
  harness::emit("Lemma 1: DAM vs measured across IO sizes", t,
                args.csv_prefix + "dam_accuracy.csv");
  std::printf(
      "\npaper: a DAM with B = 1/alpha approximates any IO pattern within a "
      "factor of 2 in both directions.\n");
  return all_ok;
}

// Table 3 (analytic): the paper's cost formulas across node sizes, the
// optimal node sizes of Corollaries 6-7, and the Corollary 12 Bε-tree
// that matches B-tree queries while inserting Θ(log 1/α) faster.
void table3(const bench::BenchArgs& args) {
  using namespace damkit::model;
  banner("Table 3 — affine-model cost sensitivity", "Table 3, §5-6");

  // Working point: a disk with alpha per element. Elements are the unit:
  // with ~128-byte entries on a 2011-era disk (alpha ~ 0.003 per 4 KiB),
  // alpha per element ~ 1e-4.
  const double alpha = 1e-4;
  TreeParams p;
  p.alpha = alpha;
  p.n = 1e9;
  p.m = 1e6;

  Table t({"B (elements)", "B-tree op", "B^1/2-tree insert",
           "B^1/2-tree query", "Be-tree insert (F=16)",
           "Be-tree query naive", "Be-tree query opt (Thm 9)"});
  for (double b = 256; b <= 64.0 / alpha; b *= 4) {
    const double f16 = 16.0;
    t.add_row({strfmt("%.0f", b), strfmt("%.2f", btree_op_cost(p, b)),
               strfmt("%.3f", bhalf_tree_insert_cost(p, b)),
               strfmt("%.2f", bhalf_tree_query_cost(p, b)),
               strfmt("%.3f", betree_insert_cost(p, b, f16)),
               strfmt("%.2f", betree_query_cost_naive(p, b, f16)),
               strfmt("%.2f", betree_query_cost_optimized(p, b, f16))});
  }
  harness::emit("Table 3 instantiated: cost vs node size (alpha = 1e-4)", t,
                args.csv_prefix + "table3.csv");

  Table opt({"quantity", "value"});
  opt.add_row({"half-bandwidth point 1/alpha (Cor 6)",
               strfmt("%.0f elements", half_bandwidth_node_size(alpha))});
  opt.add_row({"optimal B-tree node (Cor 7)",
               strfmt("%.0f elements", optimal_btree_node_size(alpha))});
  const OptimalBetreeChoice c = optimal_betree_choice(alpha);
  opt.add_row({"Cor 12 fanout F = 1/(alpha ln 1/alpha)",
               strfmt("%.0f", c.fanout)});
  opt.add_row({"Cor 12 node size B = F^2",
               strfmt("%.0f elements", c.node_size)});
  opt.add_row({"Cor 12 insert speedup over optimal B-tree",
               strfmt("%.1fx (log 1/alpha = %.1f)",
                      corollary12_insert_speedup(p),
                      std::log(1.0 / alpha))});
  const double b_bt = optimal_btree_node_size(alpha);
  opt.add_row(
      {"Cor 12 query cost vs optimal B-tree",
       strfmt("%.2f vs %.2f", betree_query_cost_optimized(p, c.node_size,
                                                          c.fanout),
              btree_op_cost(p, b_bt))});
  harness::emit("Optimal parameter choices (Cor 6, 7, 12)", opt,
                args.csv_prefix + "table3_optima.csv");

  // Sensitivity headline: growing B 16x past the half-bandwidth point.
  const double b0 = 1.0 / alpha;
  Table sens({"structure", "cost @ B=1/alpha", "cost @ 16/alpha", "growth"});
  const double bt0 = btree_op_cost(p, b0), bt1 = btree_op_cost(p, 16 * b0);
  sens.add_row({"B-tree op", strfmt("%.2f", bt0), strfmt("%.2f", bt1),
                strfmt("%.1fx", bt1 / bt0)});
  const double bh0 = bhalf_tree_insert_cost(p, b0);
  const double bh1 = bhalf_tree_insert_cost(p, 16 * b0);
  sens.add_row({"B^1/2-tree insert", strfmt("%.3f", bh0),
                strfmt("%.3f", bh1), strfmt("%.1fx", bh1 / bh0)});
  const double bq0 = bhalf_tree_query_cost(p, b0);
  const double bq1 = bhalf_tree_query_cost(p, 16 * b0);
  sens.add_row({"B^1/2-tree query", strfmt("%.2f", bq0),
                strfmt("%.2f", bq1), strfmt("%.1fx", bq1 / bq0)});
  harness::emit("Sensitivity: 16x node growth (Cor 10)", sens,
                args.csv_prefix + "table3_sensitivity.csv");
  std::printf(
      "\npaper: B-tree cost grows ~linearly in B; B^1/2-tree grows ~sqrt(B) "
      "— Be-trees tolerate much larger nodes.\n");
}

// Figure 2 (the paper's BerkeleyDB experiment, §7 scaled): bulk-load,
// cap RAM at a quarter of the data, then time random point queries and
// random inserts at each node size on the testbed HDD.
void fig2(const bench::BenchArgs& args) {
  banner("Figure 2 — B-tree node-size sweep on HDD", "Figure 2, §7");
  harness::SweepConfig cfg;
  cfg.kind = kv::EngineKind::kBTree;
  cfg.node_sizes = {4 * kKiB, 16 * kKiB, 64 * kKiB, 256 * kKiB, 1 * kMiB};
  cfg.items = args.quick ? 200'000 : 1'000'000;
  cfg.queries = args.quick ? 200 : 1000;
  cfg.inserts = args.quick ? 200 : 1000;
  cfg.cache_ratio = 0.25;  // paper: 4 GiB RAM / 16 GiB data
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  std::printf(
      "scale note: %llu items x %zu B values (paper: 16 GB data); cache = "
      "data/4 as in the paper\n",
      static_cast<unsigned long long>(cfg.items), cfg.value_bytes);

  const auto res = run_nodesize_sweep(sim::testbed_hdd_profile(), cfg);
  harness::emit("Figure 2: BerkeleyDB-style B-tree, ms/op vs node size",
                harness::make_sweep_figure(res),
                args.csv_prefix + "fig2.csv");
  std::printf(
      "\npaper: optimum near 16-64 KiB; past it, query and insert cost grow "
      "roughly linearly with node size (20 -> 80 ms/op over the sweep).\n");
}

// Figure 3 (the paper's TokuDB experiment, compression off): the same
// sweep for a Bε-tree with F = √B, and its sensitivity against the
// B-tree under the same 16x node growth.
void fig3(const bench::BenchArgs& args) {
  banner("Figure 3 — Be-tree node-size sweep on HDD", "Figure 3, §7");
  harness::SweepConfig cfg;
  cfg.kind = kv::EngineKind::kBeTree;
  cfg.node_sizes = {64 * kKiB, 256 * kKiB, 1 * kMiB, 4 * kMiB};
  cfg.items = args.quick ? 200'000 : 1'000'000;
  cfg.queries = args.quick ? 150 : 600;
  cfg.inserts = args.quick ? 150 : 600;
  cfg.cache_ratio = 0.25;
  cfg.betree_fanout = 0;  // F = sqrt(B), the TokuDB-like epsilon = 1/2
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  std::printf(
      "scale note: %llu items (paper: 16 GB data); cache = data/4; "
      "F = sqrt(B)\n",
      static_cast<unsigned long long>(cfg.items));

  const auto res = run_nodesize_sweep(sim::testbed_hdd_profile(), cfg);
  harness::emit("Figure 3: TokuDB-style Be-tree, ms/op vs node size",
                harness::make_sweep_figure(res),
                args.csv_prefix + "fig3.csv");

  harness::SweepConfig bt = cfg;
  bt.kind = kv::EngineKind::kBTree;
  bt.node_sizes = {64 * kKiB, 1 * kMiB};
  const auto btres = run_nodesize_sweep(sim::testbed_hdd_profile(), bt);
  Table cmp({"structure", "insert growth 64KiB->1MiB",
             "query growth 64KiB->1MiB"});
  const auto growth = [&cmp](const char* name, const harness::SweepPoint& a,
                             const harness::SweepPoint& b) {
    cmp.add_row({name, strfmt("%.2fx", b.insert_ms / a.insert_ms),
                 strfmt("%.2fx", b.query_ms / a.query_ms)});
  };
  growth("B-tree", btres.points[0], btres.points[1]);
  growth("Be-tree", res.points[0], res.points[2]);
  harness::emit("Sensitivity: Be-tree vs B-tree under 16x node growth", cmp,
                args.csv_prefix + "fig3_sensitivity.csv");
  std::printf(
      "\npaper: Be-tree degrades only slightly at the next few larger node "
      "sizes; the B-tree degrades sharply (Figures 2 vs 3).\n");
}

// Lemma 3 vs Theorem 4(4): device bytes written per logical byte under
// random updates. The B-tree column grows linearly with node size; the
// Bε-tree column stays low and nearly flat.
void writeamp(const bench::BenchArgs& args) {
  banner("Write amplification — B-tree Θ(B) vs Be-tree O(F log)",
         "Lemma 3 / Theorem 4(4), §3");
  harness::WriteAmpConfig cfg;
  cfg.node_sizes = {16 * kKiB, 64 * kKiB, 256 * kKiB, 1 * kMiB};
  cfg.items = args.quick ? 60'000 : 300'000;
  cfg.updates = args.quick ? 1'500 : 8'000;
  cfg.seed = args.seed;
  cfg.threads = args.threads;

  Table t({"node size", "B-tree write amp", "Be-tree write amp", "ratio"});
  for (const auto& p :
       run_write_amp_experiment(sim::testbed_hdd_profile(), cfg)) {
    t.add_row({format_bytes(p.node_bytes),
               strfmt("%.1f", p.btree_write_amp),
               strfmt("%.1f", p.betree_write_amp),
               strfmt("%.1fx", p.btree_write_amp /
                                   std::max(p.betree_write_amp, 1e-9))});
  }
  harness::emit("Write amplification vs node size", t,
                args.csv_prefix + "writeamp.csv");
  std::printf(
      "\npaper: B-tree write amplification is linear in the node size; the "
      "Be-tree amortizes each flush over many messages.\n");
}

// Theorem 9: per-child buffer segments ≤ B/F, pivots delivered by the
// parent and basement-granularity leaf reads make a point query cost
// (1 + αB/F + αF) per level instead of (1 + αB), without hurting inserts.
// The "query IO" columns show the mechanism directly.
void thm9(const bench::BenchArgs& args) {
  banner("Theorem 9 — optimized Be-tree vs standard Be-tree",
         "Theorem 9 / Corollaries 11-12, §6");
  harness::SweepConfig cfg;
  cfg.kind = kv::EngineKind::kBeTree;
  cfg.node_sizes = {256 * kKiB, 1 * kMiB, 4 * kMiB};
  cfg.items = args.quick ? 150'000 : 600'000;
  cfg.queries = args.quick ? 150 : 400;
  cfg.inserts = args.quick ? 150 : 400;
  cfg.cache_ratio = 0.25;
  cfg.betree_fanout = 0;  // sqrt(B)
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  const auto std_res = run_nodesize_sweep(sim::testbed_hdd_profile(), cfg);
  cfg.kind = kv::EngineKind::kOptBeTree;
  const auto opt_res = run_nodesize_sweep(sim::testbed_hdd_profile(), cfg);

  Table t({"node size", "std query ms", "opt query ms", "query speedup",
           "std insert ms", "opt insert ms", "std query IO", "opt query IO"});
  for (size_t i = 0; i < cfg.node_sizes.size(); ++i) {
    const harness::SweepPoint& s = std_res.points[i];
    const harness::SweepPoint& o = opt_res.points[i];
    t.add_row({format_bytes(s.node_bytes), strfmt("%.2f", s.query_ms),
               strfmt("%.2f", o.query_ms),
               strfmt("%.2fx", s.query_ms / o.query_ms),
               strfmt("%.2f", s.insert_ms), strfmt("%.2f", o.insert_ms),
               format_bytes(static_cast<uint64_t>(s.query_io_bytes)),
               format_bytes(static_cast<uint64_t>(o.query_io_bytes))});
  }
  harness::emit("Theorem 9: sub-node query IOs across node sizes", t,
                args.csv_prefix + "opt_betree.csv");
  std::printf(
      "\npaper: query IO per level drops from 1+aB to 1+aB/F+aF — a win "
      "once aB >> 1 (nodes past the half-bandwidth point, the regime "
      "Corollaries 11-12 put Be-trees in), while inserts stay within a "
      "constant. At small B the setup cost dominates both designs and "
      "segment-granular caching can even lose slightly. This is the "
      "TokuDB basement-node design explained (§6).\n");
}

// Lemma 13 / §8: a B-tree with P·B nodes in van Emde Boas block order
// achieves throughput Ω(k / log_{PB/k} N) for any k ≤ P clients. Sweeps
// k under the PDAM scheduler for the vEB layout and the BFS ablation,
// next to the model and the fixed-size alternatives Lemma 13 dominates.
void lemma13(const bench::BenchArgs& args) {
  banner("Lemma 13 — PDAM B-tree with vEB nodes vs client count",
         "Lemma 13, §8");
  const uint64_t n = args.quick ? 1ULL << 18 : 1ULL << 22;
  const int p = 16;
  const uint64_t block = 1024;

  Rng rng(args.seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.next() >> 1;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  pdam_tree::PdamTreeConfig veb_cfg;
  veb_cfg.parallelism = p;
  veb_cfg.block_bytes = block;
  veb_cfg.slot_bytes = 16;
  veb_cfg.layout = pdam_tree::NodeLayout::kVeb;
  pdam_tree::PdamTreeConfig bfs_cfg = veb_cfg;
  bfs_cfg.layout = pdam_tree::NodeLayout::kBfs;

  const model::PdamModel model(p, block);
  const std::vector<int> clients = {1, 2, 4, 8, 16, 32};
  const uint64_t queries = args.quick ? 200 : 1000;
  const harness::PdamQueryRun veb = harness::run_pdam_tree_queries(
      keys, veb_cfg, clients, queries, args.seed + 1);
  const harness::PdamQueryRun bfs = harness::run_pdam_tree_queries(
      keys, bfs_cfg, clients, queries, args.seed + 1);
  DAMKIT_CHECK(veb.oracle_ok && bfs.oracle_ok);

  Table t({"clients k", "vEB q/step", "BFS q/step", "model Om(k/log)",
           "small-node q/step", "big-plain q/step"});
  const auto n_keys = static_cast<double>(keys.size());
  for (size_t i = 0; i < clients.size(); ++i) {
    const int k = clients[i];
    const double kk = std::min<double>(k, p);
    t.add_row({strfmt("%d", k),
               strfmt("%.3f", veb.points[i].result.throughput()),
               strfmt("%.3f", bfs.points[i].result.throughput()),
               strfmt("%.3f", model.veb_btree_throughput(kk, n_keys)),
               strfmt("%.3f", model.small_node_throughput(k, n_keys)),
               strfmt("%.3f", model.big_plain_node_throughput(k, n_keys))});
  }
  harness::emit("Lemma 13: query throughput vs concurrent clients", t,
                args.csv_prefix + "lemma13.csv");
  std::printf(
      "\npaper: with vEB nodes of size PB, one client gets the big-node "
      "optimum, P clients get the small-node optimum, and intermediate k "
      "degrades gracefully — no re-tuning.\n");
  std::printf("geometry: H=%d pivot levels, node height %d, %llu blocks/node\n",
              veb.global_height, veb.node_height,
              static_cast<unsigned long long>(veb.node_blocks));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);

  const PdamRows pdam = run_pdam_sweeps(args);
  table1(args, pdam);
  fig1(args, pdam);
  const AffineRows affine = run_affine_sweeps(args);
  table2(args, affine);
  const bool lemma1_ok = lemma1(args, affine);
  table3(args);
  fig2(args);
  fig3(args);
  writeamp(args);
  thm9(args);
  lemma13(args);

  if (!lemma1_ok) {
    std::fprintf(stderr, "Lemma 1: the DAM left the factor-of-2 envelope\n");
    return 1;
  }
  return 0;
}
