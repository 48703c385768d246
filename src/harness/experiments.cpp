#include "harness/experiments.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "harness/parallel.h"

#include "kv/engine.h"
#include "kv/slice.h"
#include "kv/workload.h"
#include "sim/closed_loop.h"
#include "sim/mq_ssd.h"
#include "util/bytes.h"

namespace damkit::harness {

namespace {

std::vector<uint64_t> default_io_ladder() {
  std::vector<uint64_t> sizes;
  for (uint64_t s = 4 * kKiB; s <= 16 * kMiB; s *= 2) sizes.push_back(s);
  return sizes;
}

}  // namespace

AffineExperimentResult run_affine_experiment(const sim::HddConfig& hdd,
                                             AffineExperimentConfig config) {
  if (config.io_sizes.empty()) config.io_sizes = default_io_ladder();
  AffineExperimentResult result;
  result.samples.resize(config.io_sizes.size());
  parallel_sweep(config.io_sizes.size(), config.threads, [&](size_t i) {
    const uint64_t io_bytes = config.io_sizes[i];
    // Fresh device per size: each round starts from quiescent hardware,
    // exactly like re-running the microbenchmark binary.
    sim::HddDevice dev(hdd, config.seed);
    sim::ClosedLoopConfig cl;
    cl.clients = 1;
    cl.ios_per_client = static_cast<uint64_t>(config.reads_per_size);
    cl.io_bytes = io_bytes;
    cl.seed = config.seed ^ io_bytes;
    const sim::ClosedLoopResult r = sim::run_closed_loop(dev, cl);
    AffineSample sample;
    sample.io_bytes = io_bytes;
    sample.seconds = sim::to_seconds(r.makespan) /
                     static_cast<double>(r.total_ios);
    result.samples[i] = sample;
  });
  result.fit = fit_affine(result.samples);
  return result;
}

PdamExperimentResult run_pdam_experiment(const sim::SsdConfig& ssd,
                                         PdamExperimentConfig config) {
  PdamExperimentResult result;
  result.samples.resize(config.thread_counts.size());
  parallel_sweep(config.thread_counts.size(), config.threads, [&](size_t i) {
    const int threads = config.thread_counts[i];
    sim::SsdDevice dev(ssd);
    sim::ClosedLoopConfig cl;
    cl.clients = threads;
    cl.ios_per_client = config.bytes_per_thread / config.io_bytes;
    cl.io_bytes = config.io_bytes;
    cl.seed = config.seed + static_cast<uint64_t>(threads);
    const sim::ClosedLoopResult r = sim::run_closed_loop(dev, cl);
    PdamSample sample;
    sample.threads = threads;
    sample.seconds = sim::to_seconds(r.makespan);
    sample.total_bytes = r.total_bytes;
    result.samples[i] = sample;
  });
  result.fit = fit_pdam(result.samples);
  return result;
}

MqExperimentResult run_mq_experiment(const sim::SsdConfig& ssd,
                                     MqExperimentConfig config) {
  MqExperimentResult result;
  result.samples.resize(config.client_counts.size());
  result.pdam_samples.resize(config.client_counts.size());
  parallel_sweep(config.client_counts.size(), config.threads, [&](size_t i) {
    const int clients = config.client_counts[i];
    sim::MqSsdDevice dev(ssd);
    sim::ClosedLoopConfig cl;
    cl.clients = clients;
    cl.ios_per_client = config.ios_per_client;
    cl.io_bytes = config.io_bytes;
    cl.seed = config.seed + static_cast<uint64_t>(clients);
    const sim::ClosedLoopResult r = sim::run_closed_loop(dev, cl);
    MqSample sample;
    sample.clients = clients;
    sample.seconds = sim::to_seconds(r.makespan);
    sample.total_ios = r.total_ios;
    result.samples[i] = sample;
    result.pdam_samples[i] = PdamSample{
        clients, sample.seconds, r.total_bytes};
  });
  result.fit = fit_mq(result.samples);
  result.pdam_fit = fit_pdam(result.pdam_samples);
  return result;
}

namespace {

/// EngineConfig for one sweep point: `node_bytes` mapped onto each
/// engine's natural node/run granularity, cache sized by the sweep.
kv::EngineConfig sweep_engine_config(const SweepConfig& config,
                                     uint64_t node_bytes,
                                     uint64_t effective_cache) {
  kv::EngineConfig ecfg;
  ecfg.btree.node_bytes = node_bytes;
  ecfg.btree.cache_bytes = effective_cache;
  ecfg.betree.node_bytes = node_bytes;
  ecfg.betree.cache_bytes = effective_cache;
  ecfg.betree.target_fanout = config.betree_fanout;
  ecfg.betree.pivot_estimate_bytes = config.key_bytes + 8;
  // LSM: the sorted-run granularity plays the node-size role.
  ecfg.lsm.memtable_bytes = std::max<uint64_t>(node_bytes, 4 * kKiB);
  ecfg.lsm.sstable_target_bytes = std::max<uint64_t>(node_bytes, 4 * kKiB);
  ecfg.lsm.block_bytes = std::min<uint64_t>(node_bytes, 4 * kKiB);
  ecfg.lsm.level1_bytes = std::max<uint64_t>(node_bytes * 8, 64 * kKiB);
  // PDAM: a P·B node of roughly node_bytes.
  ecfg.pdam.tree.block_bytes = std::max<uint64_t>(
      512, node_bytes / static_cast<uint64_t>(ecfg.pdam.tree.parallelism));
  ecfg.pdam.buffer_bytes = effective_cache;
  return ecfg;
}

}  // namespace

SweepResult run_nodesize_sweep(const sim::HddConfig& hdd, SweepConfig config) {
  DAMKIT_CHECK(!config.node_sizes.empty());
  SweepResult result;

  kv::WorkloadSpec spec;
  spec.key_space = config.items;
  spec.key_bytes = config.key_bytes;
  spec.value_bytes = config.value_bytes;

  const uint64_t entry_bytes =
      config.key_bytes + config.value_bytes + 6;  // leaf framing
  const uint64_t data_bytes = config.items * entry_bytes;
  const auto cache_bytes = static_cast<uint64_t>(
      config.cache_ratio * static_cast<double>(data_bytes));

  result.points.resize(config.node_sizes.size());
  parallel_sweep(config.node_sizes.size(), config.threads, [&](size_t pi) {
    const uint64_t node_bytes = config.node_sizes[pi];
    sim::HddDevice dev(hdd, config.seed);
    sim::IoContext io(dev);
    // The cache must hold at least a root-to-leaf path; beyond that the
    // configured data ratio governs (the paper's 4 GiB RAM / 16 GiB data).
    const uint64_t effective_cache = std::max(cache_bytes, node_bytes * 4);
    const std::unique_ptr<kv::Dictionary> dict = kv::make_engine(
        config.kind, dev, io,
        sweep_engine_config(config, node_bytes, effective_cache));

    dict->bulk_load(config.items, [&spec](uint64_t i) {
      kv::BulkItem item = kv::bulk_item(i, spec);
      return std::make_pair(std::move(item.key), std::move(item.value));
    });

    Rng rng(config.seed ^ node_bytes);
    SweepPoint point;
    point.node_bytes = node_bytes;
    point.height = dict->height();

    // Random point queries over loaded keys.
    {
      dev.clear_stats();
      const sim::SimTime before = io.now();
      for (uint64_t q = 0; q < config.queries; ++q) {
        const uint64_t id = rng.uniform(config.items);
        const bool ok =
            dict->get(kv::encode_key(id, config.key_bytes)).has_value();
        DAMKIT_CHECK_MSG(ok, "loaded key missing during sweep");
      }
      point.query_ms = sim::to_seconds(io.now() - before) * 1e3 /
                       static_cast<double>(config.queries);
      const sim::DeviceStats& st = dev.stats();
      point.query_io_bytes = st.reads == 0
                                 ? 0.0
                                 : static_cast<double>(st.bytes_read) /
                                       static_cast<double>(st.reads);
    }

    // Random inserts (overwrites of uniform keys, the paper's procedure).
    // The timed window includes the final cache flush: at steady state
    // every dirtied node is eventually written back, so charging the
    // write-back to the inserts approximates the sustained per-op cost.
    {
      dev.clear_stats();
      const sim::SimTime before = io.now();
      for (uint64_t u = 0; u < config.inserts; ++u) {
        const uint64_t id = rng.uniform(config.items);
        dict->put(kv::encode_key(id, config.key_bytes),
                  kv::make_value(id ^ 0x5a5a, config.value_bytes));
      }
      dict->flush();
      point.insert_ms = sim::to_seconds(io.now() - before) * 1e3 /
                        static_cast<double>(config.inserts);
      const uint64_t logical =
          config.inserts * (config.key_bytes + config.value_bytes);
      point.write_amp = static_cast<double>(dev.stats().bytes_written) /
                        static_cast<double>(logical);
    }
    point.cache_hit_rate = dict->cache_hit_rate();
    result.points[pi] = point;
  });

  // Affine overlays (the fitted model lines of Figures 2–3): per-IO cost
  // s + t·x with the device's expected parameters, times the number of
  // uncached levels; one scale constant calibrated at the first point.
  const double s = hdd.expected_setup_s();
  const double t = hdd.expected_transfer_s_per_byte();
  const double m_items =
      std::max(1.0, static_cast<double>(cache_bytes) /
                        static_cast<double>(entry_bytes));
  const double n_items = static_cast<double>(config.items);
  auto levels = [&](double fanout) {
    if (n_items <= m_items) return 1.0;
    return std::max(1.0, std::log(n_items / m_items) / std::log(fanout));
  };

  std::vector<double> raw_q, raw_i;
  for (const SweepPoint& p : result.points) {
    const double b = static_cast<double>(p.node_bytes);
    const double b_elems =
        std::max(2.0, b / static_cast<double>(entry_bytes));
    switch (config.kind) {
      // B-tree-shaped overlay: one node-sized IO per uncached level. The
      // LSM and PDAM engines fall back to the same shape (sorted-run /
      // PB-node reads per level), calibrated at the first point like the
      // others.
      case kv::EngineKind::kBTree:
      case kv::EngineKind::kLsm:
      case kv::EngineKind::kPdam: {
        const double l = levels(b_elems);
        raw_q.push_back((s + t * b) * l * 1e3);
        raw_i.push_back((s + t * b) * l * 1e3);
        break;
      }
      case kv::EngineKind::kBeTree:
      case kv::EngineKind::kOptBeTree: {
        const double f = (config.betree_fanout > 0)
                             ? static_cast<double>(config.betree_fanout)
                             : std::sqrt(b / static_cast<double>(
                                                 config.key_bytes + 8));
        const double l = levels(std::max(2.0, f));
        if (config.kind == kv::EngineKind::kBeTree) {
          raw_q.push_back((s + t * b) * l * 1e3);
        } else {
          raw_q.push_back((s + t * (b / f + f * 32.0)) * l * 1e3);
        }
        raw_i.push_back((s + t * b) * (f / b_elems) * l * 1e3);
        break;
      }
    }
  }
  const double qs = (raw_q[0] > 0.0) ? result.points[0].query_ms / raw_q[0]
                                     : 1.0;
  const double is = (raw_i[0] > 0.0) ? result.points[0].insert_ms / raw_i[0]
                                     : 1.0;
  for (size_t i = 0; i < raw_q.size(); ++i) {
    result.affine_query_ms.push_back(raw_q[i] * qs);
    result.affine_insert_ms.push_back(raw_i[i] * is);
  }
  return result;
}

std::vector<WriteAmpPoint> run_write_amp_experiment(const sim::HddConfig& hdd,
                                                    WriteAmpConfig config) {
  DAMKIT_CHECK(!config.node_sizes.empty());
  kv::WorkloadSpec spec;
  spec.key_space = config.items;
  spec.key_bytes = config.key_bytes;
  spec.value_bytes = config.value_bytes;
  const uint64_t entry_bytes = config.key_bytes + config.value_bytes + 6;
  const auto cache_bytes = static_cast<uint64_t>(
      config.cache_ratio * static_cast<double>(config.items * entry_bytes));
  const uint64_t logical =
      config.updates * (config.key_bytes + config.value_bytes);

  std::vector<WriteAmpPoint> out(config.node_sizes.size());
  parallel_sweep(config.node_sizes.size(), config.threads, [&](size_t pi) {
    const uint64_t node_bytes = config.node_sizes[pi];
    WriteAmpPoint point;
    point.node_bytes = node_bytes;
    const uint64_t effective_cache = std::max(cache_bytes, node_bytes * 4);

    const auto measure = [&](kv::EngineKind kind) {
      sim::HddDevice dev(hdd, config.seed);
      sim::IoContext io(dev);
      kv::EngineConfig ecfg;
      ecfg.btree.node_bytes = node_bytes;
      ecfg.btree.cache_bytes = effective_cache;
      ecfg.betree.node_bytes = node_bytes;
      ecfg.betree.cache_bytes = effective_cache;
      ecfg.betree.pivot_estimate_bytes = config.key_bytes + 8;
      const std::unique_ptr<kv::Dictionary> dict =
          kv::make_engine(kind, dev, io, ecfg);
      dict->bulk_load(config.items, [&spec](uint64_t i) {
        kv::BulkItem item = kv::bulk_item(i, spec);
        return std::make_pair(std::move(item.key), std::move(item.value));
      });
      dev.clear_stats();
      Rng rng(config.seed);
      for (uint64_t u = 0; u < config.updates; ++u) {
        const uint64_t id = rng.uniform(config.items);
        dict->put(kv::encode_key(id, config.key_bytes),
                  kv::make_value(id ^ u, config.value_bytes));
      }
      dict->flush();
      return static_cast<double>(dev.stats().bytes_written) /
             static_cast<double>(logical);
    };
    point.btree_write_amp = measure(kv::EngineKind::kBTree);
    point.betree_write_amp = measure(kv::EngineKind::kBeTree);
    out[pi] = point;
  });
  return out;
}

PdamQueryRun run_pdam_tree_queries(const std::vector<uint64_t>& sorted_keys,
                                   const pdam_tree::PdamTreeConfig& config,
                                   const std::vector<int>& client_counts,
                                   uint64_t queries_per_client,
                                   uint64_t seed) {
  const pdam_tree::PdamBTree tree(sorted_keys, config);
  PdamQueryRun run;
  run.global_height = tree.global_height();
  run.node_height = tree.node_height();
  run.node_blocks = tree.node_blocks();
  run.keys = sorted_keys.size();
  for (const int k : client_counts) {
    PdamQueryPoint point;
    point.clients = k;
    point.result = tree.run_queries(k, queries_per_client, seed);
    run.points.push_back(point);
  }
  // Oracle sweep (pure host CPU, no simulated time): the step-driven
  // clients must answer lower_bound exactly. Probes stay within
  // [0, max key]: past the last key the padded descent parks at the final
  // leaf, a rank plain lower_bound cannot express.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const uint64_t back = sorted_keys.back();
  for (int i = 0; i < 64 && run.oracle_ok; ++i) {
    const uint64_t probe =
        (i % 2 == 0) ? sorted_keys[rng.uniform(sorted_keys.size())]
                     : rng.next() % (back + (back != ~0ULL ? 1 : 0));
    const auto expect = static_cast<uint64_t>(
        std::lower_bound(sorted_keys.begin(), sorted_keys.end(), probe) -
        sorted_keys.begin());
    run.oracle_ok = tree.lower_bound(probe) == expect;
  }
  return run;
}

}  // namespace damkit::harness
