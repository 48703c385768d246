#include "harness/workload_runner.h"

#include <map>
#include <set>
#include <utility>

#include "kv/slice.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/table.h"

namespace damkit::harness {

void WorkloadRunner::bulk_load(uint64_t items, const kv::WorkloadSpec& spec) {
  dict_->bulk_load(items, [&spec](uint64_t i) {
    kv::BulkItem item = kv::bulk_item(i, spec);
    return std::make_pair(std::move(item.key), std::move(item.value));
  });
}

WorkloadRunResult WorkloadRunner::run(const kv::WorkloadSpec& spec,
                                      uint64_t ops,
                                      const WorkloadRunOptions& options) {
  return drive(spec, ops, options, nullptr);
}

ConcurrentRunResult WorkloadRunner::run_concurrent(
    const kv::WorkloadSpec& spec, uint64_t ops,
    const ConcurrentRunOptions& options) {
  DataPhase data;
  WorkloadRunResult base = drive(spec, ops, options, &data);
  ConcurrentRunResult result{serve::replay(data.chains, options),
                             std::move(base), data.elapsed};
  if (!options.replay_device_factory) {
    // Nothing replayed: the concurrent timeline is the serial one.
    result.concurrent_elapsed = result.serial_elapsed;
  }
  return result;
}

WorkloadRunResult WorkloadRunner::drive(const kv::WorkloadSpec& spec,
                                        uint64_t ops,
                                        const WorkloadRunOptions& options,
                                        DataPhase* recorded) {
  WorkloadRunResult result;
  kv::OpGenerator gen(spec);
  // Holds only the current op's records: cleared once its chain is built.
  sim::IoTrace trace;
  if (recorded != nullptr) {
    io_->device().set_trace(&trace);
    recorded->chains.reserve(ops);
  }
  const sim::SimTime before = io_->now();

  const kv::ApplyOptions apply_options{options.fallible};
  kv::ApplyScratch scratch;  // key/value buffers reused across all ops
  for (uint64_t i = 0; i < ops; ++i) {
    kv::apply_op(*dict_, gen.next(), i, spec, apply_options, &result.digest,
                 &result, &scratch);
    if (recorded != nullptr) {
      recorded->chains.push_back(serve::build_io_chain(trace.records()));
      trace.clear();
    }
  }
  if (recorded != nullptr) {
    io_->device().set_trace(nullptr);
    recorded->elapsed = io_->now() - before;
  }

  if (options.flush_at_end) {
    if (options.fallible) {
      if (!checkpoint_with_retries(*dict_, 200).ok()) ++result.failed_ops;
    } else {
      dict_->flush();
    }
  }
  result.sim_elapsed = io_->now() - before;
  return result;
}

double ConcurrentRunResult::speedup() const {
  if (concurrent_elapsed == 0) return 1.0;
  return static_cast<double>(serial_elapsed) /
         static_cast<double>(concurrent_elapsed);
}

double ConcurrentRunResult::throughput_ops_per_sec() const {
  const double secs = sim::to_seconds(concurrent_elapsed);
  if (secs <= 0.0) return 0.0;
  return static_cast<double>(base.ops()) / secs;
}

void ConcurrentRunResult::export_metrics(stats::MetricsRegistry& reg,
                                         std::string_view prefix) const {
  const std::string p(prefix);
  reg.add(p + "ops", base.ops());
  reg.add(p + "failed_ops", base.failed_ops);
  reg.add(p + "batches", batches);
  reg.add(p + "batch_ios", batch_ios);
  reg.set(p + "serial_seconds", sim::to_seconds(serial_elapsed));
  reg.set(p + "concurrent_seconds", sim::to_seconds(concurrent_elapsed));
  reg.set(p + "speedup", speedup());
  reg.set(p + "throughput_ops_per_sec", throughput_ops_per_sec());
  reg.set(p + "max_lane_depth", static_cast<double>(max_lane_depth));
  for (size_t i = 0; i < lane_ios.size(); ++i) {
    reg.add(p + strfmt("lane.%zu.ios", i), lane_ios[i]);
  }
  stats::export_histogram_summary(reg, p + "latency_ns", latency);
}

PutGetResult run_put_get(kv::Dictionary& dict, const PutGetSpec& spec) {
  DAMKIT_CHECK(spec.key_of != nullptr);
  DAMKIT_CHECK(spec.key_modulus > 0);
  PutGetResult result;
  // True when the op succeeded; a failure aborts unless tolerated.
  const auto settle = [&](const Status& status) {
    if (status.ok()) return true;
    if (!spec.tolerate_failures) DAMKIT_CHECK_OK(status);
    ++result.failed_ops;
    return false;
  };
  Rng rng(spec.seed);
  const std::string value(spec.value_bytes, 'v');
  for (uint64_t i = 0; i < spec.puts; ++i) {
    const std::string key = spec.key_of(rng.next() % spec.key_modulus);
    settle(dict.try_put(key, value));
  }
  for (uint64_t i = 0; i < spec.gets; ++i) {
    const std::string key = spec.key_of(rng.next() % spec.key_modulus);
    StatusOr<std::optional<std::string>> hit = dict.try_get(key);
    if (settle(hit.status()) && hit->has_value()) ++result.get_hits;
  }
  for (uint64_t i = 0; i < spec.scans; ++i) {
    settle(dict.try_range_scan(spec.key_of(0), spec.scan_limit).status());
  }
  return result;
}

Status checkpoint_with_retries(kv::Dictionary& dict, int max_attempts) {
  Status s = dict.checkpoint();
  for (int tries = 0; !s.ok() && tries < max_attempts; ++tries) {
    s = dict.checkpoint();
  }
  return s;
}

SoakReport run_fault_soak(kv::Dictionary& dict, const SoakSpec& spec) {
  std::map<std::string, std::string> expected;
  std::set<std::string> uncertain;  // failed mutation: old-or-new state
  SoakReport report;
  Rng rng(spec.seed);

  for (uint64_t i = 0; i < spec.ops; ++i) {
    const std::string key = kv::encode_key(rng.uniform(spec.key_space));
    const uint64_t dice = rng.uniform(10);
    if (dice < 6) {
      const std::string value = kv::make_value(rng.next(), spec.value_bytes);
      if (dict.try_put(key, value).ok()) {
        expected[key] = value;
        uncertain.erase(key);
        ++report.ok_ops;
      } else {
        uncertain.insert(key);
        ++report.failed_ops;
      }
    } else if (dice < 8) {
      if (dict.try_erase(key).ok()) {
        expected.erase(key);
        uncertain.erase(key);
        ++report.ok_ops;
      } else {
        uncertain.insert(key);
        ++report.failed_ops;
      }
    } else {
      StatusOr<std::optional<std::string>> got = dict.try_get(key);
      if (!got.ok()) {
        ++report.failed_ops;
      } else {
        ++report.ok_ops;
        if (uncertain.count(key) == 0) {
          const auto want = expected.find(key);
          if (want == expected.end()) {
            if (got->has_value()) {
              report.violations.push_back("phantom key " + key);
            }
          } else if (!got->has_value()) {
            report.violations.push_back("lost key " + key);
          } else if (**got != want->second) {
            report.violations.push_back("wrong value for key " + key);
          }
        }
      }
    }
  }

  // The checkpoint must eventually land (each attempt consumes fresh
  // fault draws, so a give-up does not repeat forever).
  const Status checkpoint =
      checkpoint_with_retries(dict, spec.checkpoint_attempts);
  report.checkpoint_ok = checkpoint.ok();
  if (!checkpoint.ok()) {
    report.violations.push_back("checkpoint never landed: " +
                                std::string(checkpoint.message()));
  }

  // Full verification sweep: every op that reported success is durable.
  // Reads can still fault; retry each key until the dictionary answers.
  for (const auto& [key, value] : expected) {
    if (uncertain.count(key) != 0) continue;
    StatusOr<std::optional<std::string>> got = dict.try_get(key);
    for (int tries = 0; !got.ok() && tries < spec.verify_read_attempts;
         ++tries) {
      got = dict.try_get(key);
    }
    if (!got.ok()) {
      report.violations.push_back("verify read kept failing for " + key);
    } else if (!got->has_value()) {
      report.violations.push_back("lost key " + key);
    } else if (**got != value) {
      report.violations.push_back("wrong value for key " + key);
    }
  }
  return report;
}

}  // namespace damkit::harness
