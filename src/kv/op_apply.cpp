#include "kv/op_apply.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "kv/slice.h"
#include "util/table.h"

namespace damkit::kv {

void fnv_mix(uint64_t* h, std::string_view bytes) {
  for (const char c : bytes) {
    *h ^= static_cast<uint8_t>(c);
    *h *= 0x100000001b3ULL;
  }
  *h ^= 0xff;  // separator so field boundaries are part of the digest
  *h *= 0x100000001b3ULL;
}

namespace {

// True when the op succeeded. A failure aborts unless the caller asked for
// failures to be counted.
bool settle(const Status& status, const ApplyOptions& options,
            ApplyCounters* counters) {
  if (status.ok()) return true;
  if (!options.fallible) DAMKIT_CHECK_OK(status);
  ++counters->failed_ops;
  return false;
}

}  // namespace

void apply_op(Dictionary& dict, const Op& op, uint64_t global_index,
              const WorkloadSpec& spec, const ApplyOptions& options,
              uint64_t* digest, ApplyCounters* counters,
              ApplyScratch* scratch) {
  std::string& key = scratch->key;
  encode_key_to(op.key_id, spec.key_bytes, &key);
  switch (op.type) {
    case OpType::kPut: {
      ++counters->puts;
      std::string& value = scratch->value;
      make_value_to(op.key_id + global_index, spec.value_bytes, &value);
      settle(dict.try_put(key, value), options, counters);
      break;
    }
    case OpType::kGet: {
      ++counters->gets;
      StatusOr<std::optional<std::string>> got = dict.try_get(key);
      if (!settle(got.status(), options, counters)) break;
      fnv_mix(digest, key);
      fnv_mix(digest, got->has_value() ? "1" : "0");
      if (got->has_value()) {
        ++counters->get_hits;
        fnv_mix(digest, **got);
      }
      break;
    }
    case OpType::kDelete: {
      ++counters->erases;
      settle(dict.try_erase(key), options, counters);
      break;
    }
    case OpType::kScan: {
      ++counters->scans;
      StatusOr<std::vector<std::pair<std::string, std::string>>> rows =
          dict.try_range_scan(key, op.scan_length);
      if (!settle(rows.status(), options, counters)) break;
      fnv_mix(digest, strfmt("scan:%zu", rows->size()));
      for (const auto& [k, v] : *rows) {
        fnv_mix(digest, k);
        fnv_mix(digest, v);
      }
      break;
    }
    case OpType::kUpsert: {
      ++counters->upserts;
      const auto delta = static_cast<int64_t>(op.key_id % 1000 + 1);
      settle(dict.try_upsert(key, delta), options, counters);
      break;
    }
  }
}

}  // namespace damkit::kv
