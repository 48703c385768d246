// Dictionary shootout: B-tree vs Bε-tree vs optimized Bε-tree vs
// LSM-tree on one device, one data set, four workloads.
//
// This is the §3/§6 landscape in one table: write-optimized structures
// (Bε, LSM) insert orders of magnitude faster than the B-tree at a
// modest point-query premium, the Theorem-9 Bε-tree removes most of that
// premium, and range scans favour big-leaf structures.
#include <memory>

#include "bench_common.h"
#include "harness/report.h"
#include "kv/engine.h"
#include "kv/slice.h"
#include "sim/profiles.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace {

using namespace damkit;

struct Result {
  double load_ms;
  double insert_ms;
  double query_ms;
  double scan_mbps;
  double write_amp;
};

struct Workload {
  uint64_t items;
  uint64_t inserts;
  uint64_t queries;
  int scans;
  uint32_t scan_len;
  size_t value_bytes = 100;
  uint64_t seed = 42;
};

Result run(const Workload& w, sim::HddDevice& dev, sim::IoContext& io,
           kv::Dictionary& dict) {
  Result r{};
  Rng rng(w.seed);
  const auto scan_bytes = [&dict](std::string_view lo, size_t n) {
    uint64_t bytes = 0;
    for (const auto& [k, v] : dict.range_scan(lo, n)) {
      bytes += k.size() + v.size();
    }
    return bytes;
  };
  // Load (random order — the realistic ingest case the paper motivates).
  {
    const sim::SimTime t0 = io.now();
    for (uint64_t i = 0; i < w.items; ++i) {
      const uint64_t id = i * 2654435761 % (2 * w.items);
      dict.put(kv::encode_key(id, 16), kv::make_value(id, w.value_bytes));
    }
    dict.flush();
    r.load_ms = sim::to_seconds(io.now() - t0) * 1e3 /
                static_cast<double>(w.items);
  }
  // Sustained random inserts.
  {
    dev.clear_stats();
    const sim::SimTime t0 = io.now();
    for (uint64_t i = 0; i < w.inserts; ++i) {
      const uint64_t id = rng.uniform(2 * w.items);
      dict.put(kv::encode_key(id, 16), kv::make_value(id ^ i, w.value_bytes));
    }
    dict.flush();
    r.insert_ms = sim::to_seconds(io.now() - t0) * 1e3 /
                  static_cast<double>(w.inserts);
    r.write_amp = static_cast<double>(dev.stats().bytes_written) /
                  (static_cast<double>(w.inserts) * (16.0 + w.value_bytes));
  }
  // Point queries over loaded ids.
  {
    const sim::SimTime t0 = io.now();
    for (uint64_t i = 0; i < w.queries; ++i) {
      const uint64_t id =
          (rng.uniform(w.items)) * 2654435761 % (2 * w.items);
      if (!dict.get(kv::encode_key(id, 16)).has_value()) {
        std::fprintf(stderr, "missing key\n");
        std::abort();
      }
    }
    r.query_ms = sim::to_seconds(io.now() - t0) * 1e3 /
                 static_cast<double>(w.queries);
  }
  // Range scans.
  {
    const sim::SimTime t0 = io.now();
    uint64_t bytes = 0;
    for (int s = 0; s < w.scans; ++s) {
      const uint64_t start = rng.uniform(w.items);
      bytes += scan_bytes(kv::encode_key(start, 16), w.scan_len);
    }
    // A pool that holds the whole tree scans in zero sim time: report 0,
    // not a division by zero.
    const double scan_s = sim::to_seconds(io.now() - t0);
    r.scan_mbps =
        scan_s > 0.0 ? static_cast<double>(bytes) / scan_s / 1e6 : 0.0;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(argc, argv);
  bench::banner("Dictionary shootout — B-tree / Be-tree / Thm-9 / LSM",
                "§3, §6 (write-optimization landscape)");

  Workload w;
  w.items = args.quick ? 60'000 : 250'000;
  w.inserts = args.quick ? 2'000 : 8'000;
  w.queries = args.quick ? 150 : 400;
  w.scans = args.quick ? 10 : 25;
  w.scan_len = 5'000;
  w.seed = args.seed;
  const uint64_t cache =
      std::max<uint64_t>(w.items * (16 + w.value_bytes) / 4, 4 * kMiB);
  // A descent pins a parent while it loads a child, so a pool must hold
  // two nodes whatever the data size. Only big-node contenders reach this
  // floor; the smallest one keeps their pool nearest the others' budget.
  constexpr uint64_t kMinPoolNodes = 2;

  Table t({"structure", "load (ms/op)", "insert (ms/op)", "query (ms/op)",
           "scan MB/s", "insert write amp"});

  struct Contender {
    const char* label;
    kv::EngineKind kind;
    uint64_t node_bytes;
  };
  const Contender contenders[] = {
      {"B-tree 64 KiB", kv::EngineKind::kBTree, 64 * kKiB},  // Fig-2 optimum
      {"Be-tree 1 MiB", kv::EngineKind::kBeTree, 1 * kMiB},  // Fig-3 regime
      // Thm 9 pays off once alpha*B >> 1.
      {"Thm-9 Be 4 MiB", kv::EngineKind::kOptBeTree, 4 * kMiB},
      {"LSM 2 MiB SST", kv::EngineKind::kLsm, 2 * kMiB},
  };
  for (const Contender& c : contenders) {
    sim::HddDevice dev(sim::testbed_hdd_profile(), w.seed);
    sim::IoContext io(dev);
    const uint64_t pool = std::max(cache, kMinPoolNodes * c.node_bytes);
    kv::EngineConfig cfg;
    cfg.btree.node_bytes = c.node_bytes;
    cfg.btree.cache_bytes = pool;
    cfg.betree.node_bytes = c.node_bytes;
    cfg.betree.cache_bytes = pool;
    cfg.lsm.memtable_bytes = 4 * kMiB;
    cfg.lsm.sstable_target_bytes = c.node_bytes;
    cfg.lsm.level1_bytes = 40 * kMiB;
    const auto dict = kv::make_engine(c.kind, dev, io, cfg);
    const Result r = run(w, dev, io, *dict);
    t.add_row({c.label, strfmt("%.3f", r.load_ms), strfmt("%.3f", r.insert_ms),
               strfmt("%.2f", r.query_ms), strfmt("%.1f", r.scan_mbps),
               strfmt("%.1f", r.write_amp)});
  }

  damkit::harness::emit("Shootout on the testbed HDD", t,
                        args.csv_prefix + "shootout.csv");
  std::printf(
      "\nexpected shape: write-optimized structures (Be, LSM) load and "
      "insert orders of magnitude faster than the B-tree; the B-tree's "
      "point queries are cheapest, the Thm-9 Be-tree nearly matches them; "
      "big-leaf structures scan near disk bandwidth.\n");
  return 0;
}
