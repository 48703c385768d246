#include "kv/codec.h"

namespace damkit::kv {

std::string encode_counter(uint64_t v) {
  std::string out(8, '\0');
  store_u64(reinterpret_cast<uint8_t*>(out.data()), v);
  return out;
}

uint64_t decode_counter(std::string_view v) {
  if (v.size() != 8) return 0;  // non-counter values count as zero
  return load_u64(reinterpret_cast<const uint8_t*>(v.data()));
}

}  // namespace damkit::kv
