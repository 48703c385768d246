#include "blockdev/codec.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "util/status.h"

namespace damkit::blockdev {

namespace {

constexpr uint8_t kModeRaw = 0;
constexpr uint8_t kModeTokens = 1;

// Fibonacci hash of the next 4/8 bytes at `p` into `bits` buckets.
inline uint32_t hash4(const uint8_t* p, int bits) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - bits);
}
inline uint32_t hash8(const uint8_t* p, int bits) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return static_cast<uint32_t>((v * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
}

// Index of the first differing byte of two words loaded from memory, given
// their nonzero XOR.
inline size_t first_diff_byte(uint64_t diff) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<size_t>(std::countr_zero(diff)) / 8;
  } else {
    return static_cast<size_t>(std::countl_zero(diff)) / 8;
  }
}

// Length of the common prefix of `a` and `b` (b < a), stopping at `end`.
inline size_t match_length(const uint8_t* a, const uint8_t* b,
                           const uint8_t* end) {
  const uint8_t* const start = a;
  while (end - a >= 8) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a, 8);
    std::memcpy(&y, b, 8);
    if (x != y) return static_cast<size_t>(a - start) + first_diff_byte(x ^ y);
    a += 8;
    b += 8;
  }
  while (a < end && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<size_t>(a - start);
}

// Emit [lit][match] token pairs. `emit_match(len, dist)` follows each
// literal run except the final one.
class TokenWriter {
 public:
  TokenWriter(std::span<const uint8_t> raw, std::vector<uint8_t>& out)
      : raw_(raw), out_(&out) {}

  void emit_match(size_t pos, size_t len, size_t dist) {
    put_uvarint(*out_, pos - lit_start_);
    out_->insert(out_->end(), raw_.begin() + static_cast<ptrdiff_t>(lit_start_),
                 raw_.begin() + static_cast<ptrdiff_t>(pos));
    put_uvarint(*out_, len);
    put_uvarint(*out_, dist);
    lit_start_ = pos + len;
  }

  void finish() {
    put_uvarint(*out_, raw_.size() - lit_start_);
    out_->insert(out_->end(), raw_.begin() + static_cast<ptrdiff_t>(lit_start_),
                 raw_.end());
  }

 private:
  std::span<const uint8_t> raw_;
  std::vector<uint8_t>* out_;
  size_t lit_start_ = 0;
};

}  // namespace

std::string_view codec_kind_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kIdentity:
      return "identity";
    case CodecKind::kPrefix:
      return "prefix";
    case CodecKind::kLz:
      return "lz";
    case CodecKind::kDefault:
      return "default";
  }
  return "unknown";
}

std::optional<CodecKind> parse_codec_kind(std::string_view name) {
  for (const CodecKind kind : kAllCodecKinds) {
    if (codec_kind_name(kind) == name) return kind;
  }
  if (name == "default") return CodecKind::kDefault;
  return std::nullopt;
}

CodecKind resolve_codec_kind(CodecKind kind) {
  if (kind != CodecKind::kDefault) return kind;
  const char* env = std::getenv("DAMKIT_CODEC");
  if (env != nullptr && *env != '\0') {
    const std::optional<CodecKind> parsed = parse_codec_kind(env);
    if (parsed.has_value() && *parsed != CodecKind::kDefault) return *parsed;
  }
  return CodecKind::kIdentity;
}

void CodecStats::export_metrics(stats::MetricsRegistry& reg,
                                std::string_view prefix) const {
  const std::string p(prefix);
  reg.add(p + "encode_calls", encode_calls);
  reg.add(p + "decode_calls", decode_calls);
  reg.add(p + "raw_bytes", raw_bytes);
  reg.add(p + "encoded_bytes", encoded_bytes);
  reg.add(p + "raw_fallbacks", raw_fallbacks);
  reg.set(p + "ratio", ratio());
  reg.set(p + "bytes_saved", static_cast<double>(bytes_saved()));
}

void PositionTable::begin(size_t n, int bits) {
  if (slots.empty() || n >= UINT32_MAX - next) {
    slots.assign(size_t{1} << bits, 0);
    next = 1;
  }
  base = next;
  next += static_cast<uint32_t>(n);
}

BlockCodec::~BlockCodec() = default;

void BlockCodec::encode(std::span<const uint8_t> raw,
                        std::vector<uint8_t>& out) const {
  DAMKIT_CHECK_MSG(raw.size() <= kMaxFrameRawBytes,
                   "codec input " << raw.size() << " exceeds the frame limit");
  out.clear();
  put_uvarint(out, raw.size());
  out.push_back(kModeTokens);
  const size_t header = out.size();
  bool tokens = encode_tokens(raw, out);
  // A token stream no smaller than the input is worse than storing raw.
  if (tokens && out.size() - header >= raw.size()) tokens = false;
  if (!tokens) {
    out.resize(header);
    out[header - 1] = kModeRaw;
    out.insert(out.end(), raw.begin(), raw.end());
    ++stats_.raw_fallbacks;
  }
  ++stats_.encode_calls;
  stats_.raw_bytes += raw.size();
  stats_.encoded_bytes += out.size();
}

bool BlockCodec::decode(std::span<const uint8_t> frame,
                        std::vector<uint8_t>& out,
                        uint64_t max_raw_len) const {
  ++stats_.decode_calls;
  size_t pos = 0;
  uint64_t raw_len = 0;
  if (!get_uvarint(frame, pos, &raw_len)) return false;
  if (raw_len > max_raw_len) return false;  // before any allocation
  if (pos >= frame.size()) return false;  // mode byte is always present
  const uint8_t mode = frame[pos++];
  if (mode == kModeRaw) {
    if (frame.size() - pos != raw_len) return false;  // exact: no trailing
    out.assign(frame.begin() + static_cast<ptrdiff_t>(pos), frame.end());
    return true;
  }
  if (mode != kModeTokens) return false;
  out.resize(raw_len);
  uint8_t* const dst = out.data();
  size_t produced = 0;
  // The stream is [lit][match]...[lit]: every match is followed by another
  // literal run, and the final run may be empty (the encoder always closes
  // with one).
  for (;;) {
    uint64_t lit_len = 0;
    if (!get_uvarint(frame, pos, &lit_len)) return false;
    if (lit_len > raw_len - produced || frame.size() - pos < lit_len) {
      return false;
    }
    if (lit_len != 0) std::memcpy(dst + produced, frame.data() + pos, lit_len);
    pos += lit_len;
    produced += lit_len;
    if (produced == raw_len) return pos == frame.size();
    uint64_t match_len = 0;
    uint64_t dist = 0;
    if (!get_uvarint(frame, pos, &match_len)) return false;
    if (!get_uvarint(frame, pos, &dist)) return false;
    if (match_len == 0 || dist == 0 || dist > produced ||
        match_len > raw_len - produced) {
      return false;
    }
    uint8_t* const to = dst + produced;
    const uint8_t* const from = to - dist;
    if (dist == 1) {
      std::memset(to, *from, match_len);  // a run of one byte
    } else {
      // An overlapping match (dist < match_len) repeats the `dist` bytes
      // before it. Each copy reads only bytes already written and doubles
      // the repeated prefix; a non-overlapping match is one copy.
      size_t done = 0;
      while (done < match_len) {
        const size_t n = std::min<size_t>(match_len - done, dist + done);
        std::memcpy(to + done, from, n);
        done += n;
      }
    }
    produced += match_len;
  }
}

bool IdentityCodec::encode_tokens(std::span<const uint8_t> raw,
                                  std::vector<uint8_t>& out) const {
  (void)raw;
  (void)out;
  return false;  // always frame verbatim
}

bool PrefixDeltaCodec::encode_tokens(std::span<const uint8_t> raw,
                                     std::vector<uint8_t>& out) const {
  constexpr size_t kMinMatch = 8;
  constexpr int kHashBits = 15;
  if (raw.size() < kMinMatch) return false;
  last_.begin(raw.size(), kHashBits);
  const uint32_t base = last_.base;
  const uint8_t* const data = raw.data();
  const uint8_t* const end = data + raw.size();
  TokenWriter tokens(raw, out);
  size_t pos = 0;
  const size_t limit = raw.size() - kMinMatch;
  while (pos <= limit) {
    uint32_t& slot = last_.slots[hash8(data + pos, kHashBits)];
    const uint32_t candidate = slot;
    slot = base + static_cast<uint32_t>(pos);
    if (last_.holds(candidate)) {
      const size_t from = candidate - base;
      const size_t len = match_length(data + pos, data + from, end);
      if (len >= kMinMatch) {
        tokens.emit_match(pos, len, pos - from);
        if (len == raw.size() - pos) break;  // nothing left to search
        // Seed the table sparsely inside the match so the *next* record's
        // shared prefix still finds this one.
        for (size_t i = pos + 1; i + kMinMatch <= pos + len; i += kMinMatch) {
          last_.slots[hash8(data + i, kHashBits)] =
              base + static_cast<uint32_t>(i);
        }
        pos += len;
        continue;
      }
    }
    ++pos;
  }
  tokens.finish();
  return true;
}

bool LzCodec::encode_tokens(std::span<const uint8_t> raw,
                            std::vector<uint8_t>& out) const {
  constexpr size_t kMinMatch = 4;
  constexpr int kHashBits = 15;
  constexpr int kMaxChain = 32;
  if (raw.size() < kMinMatch) return false;
  head_.begin(raw.size(), kHashBits);
  if (prev_.size() < raw.size()) prev_.resize(raw.size());
  const uint32_t base = head_.base;
  const uint8_t* const data = raw.data();
  const uint8_t* const end = data + raw.size();
  // prev_[p] is written when p is inserted, before any chain can reach p,
  // so stale entries from earlier calls are never read.
  const auto insert = [&](size_t p) {
    uint32_t& slot = head_.slots[hash4(data + p, kHashBits)];
    prev_[p] = slot;
    slot = base + static_cast<uint32_t>(p);
  };
  TokenWriter tokens(raw, out);
  size_t pos = 0;
  const size_t limit = raw.size() - kMinMatch;
  while (pos <= limit) {
    // The first candidate with the longest match wins. One that differs at
    // byte best_len cannot beat the best, and nothing beats a match that
    // reaches the end of the input; skipping either leaves the frame as a
    // full walk of the chain would make it.
    const size_t room = raw.size() - pos;
    size_t best_len = 0;
    size_t best_pos = 0;
    uint32_t candidate = head_.slots[hash4(data + pos, kHashBits)];
    for (int depth = 0; head_.holds(candidate) && depth < kMaxChain;
         ++depth) {
      const size_t from = candidate - base;
      candidate = prev_[from];
      if (data[from + best_len] != data[pos + best_len]) continue;
      const size_t len = match_length(data + pos, data + from, end);
      if (len > best_len) {
        best_len = len;
        best_pos = from;
        if (best_len == room) break;
      }
    }
    if (best_len >= kMinMatch) {
      tokens.emit_match(pos, best_len, pos - best_pos);
      if (best_len == room) break;  // nothing left to search or index
      const size_t stop = std::min(pos + best_len, limit + 1);
      for (size_t i = pos; i < stop; ++i) insert(i);
      pos += best_len;
    } else {
      insert(pos);
      ++pos;
    }
  }
  tokens.finish();
  return true;
}

std::unique_ptr<BlockCodec> make_codec(CodecKind kind) {
  switch (resolve_codec_kind(kind)) {
    case CodecKind::kIdentity:
      return std::make_unique<IdentityCodec>();
    case CodecKind::kPrefix:
      return std::make_unique<PrefixDeltaCodec>();
    case CodecKind::kLz:
      return std::make_unique<LzCodec>();
    case CodecKind::kDefault:
      break;  // unreachable: resolve_codec_kind never returns kDefault
  }
  DAMKIT_CHECK_MSG(false, "unresolved codec kind");
  return nullptr;
}

}  // namespace damkit::blockdev
