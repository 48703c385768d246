// The sequential reference every engine is checked against: a
// kv::Dictionary over std::map, driven through the same kv::apply_op as
// the engines, so equal digests mean the engine returned exactly what a
// plain ordered map returns for the same bulk set and op stream.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kv/dictionary.h"
#include "kv/workload.h"

namespace perfbench {

class ReferenceDictionary final : public damkit::kv::Dictionary {
 public:
  std::string_view name() const override { return "reference"; }
  const damkit::kv::Capabilities& capabilities() const override {
    return caps_;
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
          item) override;
  void flush() override {}
  damkit::Status checkpoint() override { return damkit::Status(); }
  void set_retry_policy(const damkit::blockdev::RetryPolicy&) override {}
  damkit::blockdev::RetryCounters retry_counters() const override {
    return {};
  }
  size_t height() const override { return 1; }
  double cache_hit_rate() const override { return 0.0; }
  void check_invariants() override {}
  void export_metrics(damkit::stats::MetricsRegistry&,
                      std::string_view) const override {}

  /// Mutations applied since bulk_load (the WAL's LSN clock).
  uint64_t mutations() const { return mutations_; }
  /// FNV-1a over every (key, value) pair in key order — the same digest
  /// harness::state_digest computes from an engine.
  uint64_t state_digest() const;

 private:
  std::map<std::string, std::string, std::less<>> map_;
  damkit::kv::Capabilities caps_;
  uint64_t mutations_ = 0;
};

/// One stream of a run: `ops` ops of `spec`, applied through apply_op.
struct StreamPart {
  damkit::kv::WorkloadSpec spec;
  uint64_t ops = 0;
};

struct ReferenceResult {
  std::vector<uint64_t> digests;  // read-result digest of each part
  uint64_t state_digest = 0;      // full contents after the last op applied
  uint64_t mutations = 0;         // mutations applied since the bulk load
};

/// Bulk-load keys [0, bulk_items) as WorkloadRunner::bulk_load does, then
/// apply `parts` in order, stopping once `mutation_limit` mutations have
/// been applied (the state a durable engine recovers to at that LSN).
ReferenceResult run_reference(uint64_t bulk_items,
                              const std::vector<StreamPart>& parts,
                              uint64_t mutation_limit = ~0ULL);

}  // namespace perfbench
