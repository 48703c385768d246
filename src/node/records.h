// The two record formats every ordered node stores in a SlottedPage.
//
//   leaf  record: [u16 klen][u32 vlen][key][value]
//   pivot record: [u16 klen][key]
//
// B-tree and Bε-tree leaves/pivots and the PDAM engine's base run all use
// these exact bytes, so this header is their one encoder and parser. Each
// format offers its byte size, an encoder writing into a slot allocated at
// that size, the length of an encoded record (the SlottedPage LenOf
// walker), and zero-copy key (and value) views of a record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#include "util/bytes.h"

namespace damkit::node {

namespace leaf_record {

inline uint64_t bytes(size_t klen, size_t vlen) { return 2 + 4 + klen + vlen; }

inline void encode(uint8_t* p, std::string_view key, std::string_view value) {
  store_u16(p, static_cast<uint16_t>(key.size()));
  store_u32(p + 2, static_cast<uint32_t>(value.size()));
  std::memcpy(p + 6, key.data(), key.size());
  std::memcpy(p + 6 + key.size(), value.data(), value.size());
}

inline size_t length(const uint8_t* p) {
  return size_t{6} + load_u16(p) + load_u32(p + 2);
}

inline std::string_view key(std::string_view rec) {
  return rec.substr(6, load_u16(reinterpret_cast<const uint8_t*>(rec.data())));
}

inline std::string_view value(std::string_view rec) {
  return rec.substr(6 + load_u16(reinterpret_cast<const uint8_t*>(rec.data())));
}

}  // namespace leaf_record

namespace pivot_record {

inline uint64_t bytes(size_t klen) { return 2 + klen; }

inline void encode(uint8_t* p, std::string_view key) {
  store_u16(p, static_cast<uint16_t>(key.size()));
  std::memcpy(p + 2, key.data(), key.size());
}

inline size_t length(const uint8_t* p) { return size_t{2} + load_u16(p); }

inline std::string_view key(std::string_view rec) { return rec.substr(2); }

}  // namespace pivot_record

}  // namespace damkit::node
