#include "betree/message.h"

#include "util/status.h"

namespace damkit::betree {

std::optional<std::string> apply_message(std::optional<std::string> base,
                                         const Message& msg) {
  switch (msg.kind) {
    case MessageKind::kPut:
      return msg.payload;
    case MessageKind::kTombstone:
      return std::nullopt;
    case MessageKind::kUpsert: {
      const uint64_t current = base.has_value() ? decode_counter(*base) : 0;
      const uint64_t delta = decode_counter(msg.payload);
      return encode_counter(current + delta);  // wrap-around by design
    }
  }
  DAMKIT_CHECK_MSG(false, "unknown message kind");
  return std::nullopt;
}

}  // namespace damkit::betree
