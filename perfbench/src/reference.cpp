#include "reference.h"

#include "betree/message.h"
#include "kv/op_apply.h"

namespace perfbench {

using damkit::Status;
using damkit::StatusOr;

void ReferenceDictionary::put(std::string_view key, std::string_view value) {
  ++mutations_;
  auto it = map_.find(key);
  if (it == map_.end()) {
    map_.emplace(std::string(key), std::string(value));
  } else {
    it->second.assign(value);
  }
}
Status ReferenceDictionary::try_put(std::string_view key,
                                    std::string_view value) {
  put(key, value);
  return Status();
}

std::optional<std::string> ReferenceDictionary::get(std::string_view key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}
StatusOr<std::optional<std::string>> ReferenceDictionary::try_get(
    std::string_view key) {
  return get(key);
}

void ReferenceDictionary::erase(std::string_view key) {
  ++mutations_;
  const auto it = map_.find(key);
  if (it != map_.end()) map_.erase(it);
}
Status ReferenceDictionary::try_erase(std::string_view key) {
  erase(key);
  return Status();
}

void ReferenceDictionary::upsert(std::string_view key, int64_t delta) {
  ++mutations_;
  auto it = map_.find(key);
  const uint64_t current =
      it == map_.end() ? 0 : damkit::betree::decode_counter(it->second);
  std::string next =
      damkit::betree::encode_counter(current + static_cast<uint64_t>(delta));
  if (it == map_.end()) {
    map_.emplace(std::string(key), std::move(next));
  } else {
    it->second = std::move(next);
  }
}
Status ReferenceDictionary::try_upsert(std::string_view key, int64_t delta) {
  upsert(key, delta);
  return Status();
}

std::vector<std::pair<std::string, std::string>>
ReferenceDictionary::range_scan(std::string_view lo, size_t limit) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (auto it = map_.lower_bound(lo); it != map_.end() && rows.size() < limit;
       ++it) {
    rows.emplace_back(it->first, it->second);
  }
  return rows;
}
StatusOr<std::vector<std::pair<std::string, std::string>>>
ReferenceDictionary::try_range_scan(std::string_view lo, size_t limit) {
  return range_scan(lo, limit);
}

void ReferenceDictionary::bulk_load(
    uint64_t count,
    const std::function<std::pair<std::string, std::string>(uint64_t)>& item) {
  map_.clear();
  for (uint64_t i = 0; i < count; ++i) map_.insert(map_.end(), item(i));
  mutations_ = 0;
}

uint64_t ReferenceDictionary::state_digest() const {
  uint64_t h = damkit::kv::kFnvOffsetBasis;
  for (const auto& [k, v] : map_) {
    damkit::kv::fnv_mix(&h, k);
    damkit::kv::fnv_mix(&h, v);
  }
  return h;
}

namespace {

void load_bulk(ReferenceDictionary& ref, uint64_t items,
               const damkit::kv::WorkloadSpec& spec) {
  ref.bulk_load(items, [&spec](uint64_t i) {
    damkit::kv::BulkItem item = damkit::kv::bulk_item(i, spec);
    return std::make_pair(std::move(item.key), std::move(item.value));
  });
}

}  // namespace

ReferenceResult run_reference(uint64_t bulk_items,
                              const std::vector<StreamPart>& parts,
                              uint64_t mutation_limit) {
  ReferenceDictionary ref;
  load_bulk(ref, bulk_items, parts.front().spec);
  damkit::kv::ApplyCounters counters;
  damkit::kv::ApplyScratch scratch;
  const damkit::kv::ApplyOptions fallible{true};
  ReferenceResult result;
  for (const StreamPart& part : parts) {
    uint64_t digest = damkit::kv::kFnvOffsetBasis;
    damkit::kv::OpGenerator gen(part.spec);
    // Reads after the last allowed mutation cannot change the state.
    for (uint64_t i = 0; i < part.ops && ref.mutations() < mutation_limit;
         ++i) {
      damkit::kv::apply_op(ref, gen.next(), i, part.spec, fallible, &digest,
                           &counters, &scratch);
    }
    result.digests.push_back(digest);
  }
  result.state_digest = ref.state_digest();
  result.mutations = ref.mutations();
  return result;
}

}  // namespace perfbench
