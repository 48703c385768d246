// The uniform dictionary interface the paper's comparative experiments
// (§5–§8) need: one workload driven against B-tree, Bε-tree, optimized
// Bε-tree, LSM-tree, and PDAM B-tree under one cost model.
//
// The trees implement this interface directly, so a call through
// kv::Dictionary charges exactly the simulated time of the tree's own
// code path (virtual dispatch is host-side only). Each engine implements
// only the fallible try_* ops and checkpoint(); the base defines the
// CHECK-on-error ops and flush once, on top of them, for every engine.
//
// Engines differ in what they support natively; the Capabilities
// descriptor records how each call is realized (e.g. a Bε-tree upsert is
// a blind message, a B-tree upsert is the base's read-modify-write with
// identical counter semantics).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "blockdev/retry.h"
#include "stats/metrics.h"
#include "stats/trace_buffer.h"
#include "util/status.h"

namespace damkit::kv {

/// How an engine realizes the Dictionary contract.
struct Capabilities {
  /// Upserts are blind messages (no read IO). When false the engine
  /// emulates upsert as read-modify-write with the same 8-byte LE counter
  /// semantics, so results agree across engines and only the cost differs.
  bool native_upsert = false;
  /// bulk_load writes each node once, bottom-up. When false the engine
  /// emulates it with an ingest loop (e.g. the LSM memtable path).
  bool native_bulk_load = true;
  /// This dictionary routes across shards (see kv::make_sharded_engine).
  bool sharded = false;
  int shard_count = 1;
};

/// Abstract ordered key-value dictionary over a simulated device.
///
/// Every op has one implementation: the try_* method, which surfaces a
/// Status once the engine's retry policy is exhausted and never aborts.
/// put/get/erase/upsert/range_scan are DAMKIT_CHECK_OK(try_*) and flush
/// is DAMKIT_CHECK_OK(checkpoint()), for the experiment paths that treat
/// any device error as fatal. They are virtual only so that decorators
/// outside the library can observe them; the one override in the library
/// is wal::DurableEngine::flush (a WAL commit without a snapshot).
class Dictionary {
 public:
  virtual ~Dictionary();

  Dictionary() = default;
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;

  /// Engine name ("btree", "betree", "opt-betree", "lsm", "pdam", ...).
  virtual std::string_view name() const = 0;
  virtual const Capabilities& capabilities() const = 0;

  virtual Status try_put(std::string_view key, std::string_view value) = 0;
  virtual void put(std::string_view key, std::string_view value);

  virtual StatusOr<std::optional<std::string>> try_get(
      std::string_view key) = 0;
  virtual std::optional<std::string> get(std::string_view key);

  /// Delete (blind: engines that know whether the key existed discard it).
  virtual Status try_erase(std::string_view key) = 0;
  virtual void erase(std::string_view key);

  /// Add `delta` to the 8-byte LE counter stored at `key` (absent = 0,
  /// wrap-around by design — kv::encode_counter/decode_counter). The
  /// default reads, modifies, and writes through try_get/try_put; engines
  /// with blind upserts override it.
  virtual Status try_upsert(std::string_view key, int64_t delta);
  virtual void upsert(std::string_view key, int64_t delta);

  /// Up to `limit` pairs with key >= `lo`, in key order.
  virtual StatusOr<std::vector<std::pair<std::string, std::string>>>
  try_range_scan(std::string_view lo, size_t limit) = 0;
  virtual std::vector<std::pair<std::string, std::string>> range_scan(
      std::string_view lo, size_t limit);

  /// Build from `count` items in strictly ascending key order; item(i)
  /// supplies the i-th pair. The dictionary must be empty.
  virtual void bulk_load(
      uint64_t count,
      const std::function<std::pair<std::string, std::string>(uint64_t)>&
          item) = 0;

  /// One fallible checkpoint attempt: write back all dirty state. Failed
  /// extents stay dirty (no data loss); calling again retries exactly the
  /// remaining set.
  virtual Status checkpoint() = 0;
  /// DAMKIT_CHECK_OK(checkpoint()).
  virtual void flush();

  /// Crash teardown: drop all dirty in-memory state WITHOUT writing it
  /// back, so a dictionary whose device died can be destroyed without
  /// tripping the flush-on-destruction aborts. The dictionary must not be
  /// used afterwards except for destruction; recovery builds a fresh one.
  /// Default is a no-op (engines with no deferred write-back state).
  virtual void abandon();

  virtual void set_retry_policy(const blockdev::RetryPolicy& policy) = 0;
  virtual blockdev::RetryCounters retry_counters() const = 0;

  /// Levels of the structure (B-tree height, LSM level count, PDAM
  /// node-levels per descent).
  virtual size_t height() const = 0;
  /// Buffer-pool hit rate, or 0 for engines without a node cache.
  virtual double cache_hit_rate() const = 0;

  /// Structural invariant check (test support); CHECK-aborts on violation.
  virtual void check_invariants() = 0;

  /// Structured-event sink for engines that emit events (nullptr
  /// disables; default no-op for engines without one).
  virtual void set_event_trace(stats::TraceBuffer* events);

  /// Export op counters, cache/store IO mix, and derived gauges under
  /// `prefix` (e.g. "btree.").
  virtual void export_metrics(stats::MetricsRegistry& reg,
                              std::string_view prefix) const = 0;
};

}  // namespace damkit::kv
