#include "kv/dictionary.h"

#include "kv/codec.h"

namespace damkit::kv {

Dictionary::~Dictionary() = default;

void Dictionary::put(std::string_view key, std::string_view value) {
  DAMKIT_CHECK_OK(try_put(key, value));
}

std::optional<std::string> Dictionary::get(std::string_view key) {
  StatusOr<std::optional<std::string>> value = try_get(key);
  DAMKIT_CHECK_OK(value.status());
  return *std::move(value);
}

void Dictionary::erase(std::string_view key) {
  DAMKIT_CHECK_OK(try_erase(key));
}

Status Dictionary::try_upsert(std::string_view key, int64_t delta) {
  StatusOr<std::optional<std::string>> current = try_get(key);
  DAMKIT_RETURN_IF_ERROR(current.status());
  const uint64_t base = current->has_value() ? decode_counter(**current) : 0;
  return try_put(key, encode_counter(base + static_cast<uint64_t>(delta)));
}

void Dictionary::upsert(std::string_view key, int64_t delta) {
  DAMKIT_CHECK_OK(try_upsert(key, delta));
}

std::vector<std::pair<std::string, std::string>> Dictionary::range_scan(
    std::string_view lo, size_t limit) {
  StatusOr<std::vector<std::pair<std::string, std::string>>> rows =
      try_range_scan(lo, limit);
  DAMKIT_CHECK_OK(rows.status());
  return *std::move(rows);
}

void Dictionary::flush() { DAMKIT_CHECK_OK(checkpoint()); }

void Dictionary::abandon() {}

void Dictionary::set_event_trace(stats::TraceBuffer* /*events*/) {}

}  // namespace damkit::kv
