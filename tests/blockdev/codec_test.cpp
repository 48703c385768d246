#include "blockdev/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "betree/betree_node.h"
#include "blockdev/block_device.h"
#include "btree/btree_node.h"
#include "kv/slice.h"
#include "lsm/sstable.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::blockdev {
namespace {

std::vector<uint8_t> random_bytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.uniform(256));
  return out;
}

// A block of sorted fixed-width records with long shared prefixes — the
// shape both codecs are built for.
std::vector<uint8_t> sorted_records(size_t count) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i < count; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "user/%08zu/profile", i);
    out.insert(out.end(), key, key + std::strlen(key));
    out.insert(out.end(), 16, static_cast<uint8_t>(i & 0xff));
  }
  return out;
}

TEST(CodecKindTest, NamesRoundTrip) {
  for (const CodecKind kind : kAllCodecKinds) {
    const auto parsed = parse_codec_kind(codec_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(parse_codec_kind("default"), CodecKind::kDefault);
  EXPECT_FALSE(parse_codec_kind("zstd").has_value());
  EXPECT_FALSE(parse_codec_kind("").has_value());
}

TEST(CodecVarintTest, RoundTripBoundaryValues) {
  const uint64_t values[] = {0,     1,       127,        128,
                             16383, 16384,   0xffffffff, 1ull << 62,
                             UINT64_MAX};
  for (const uint64_t v : values) {
    std::vector<uint8_t> buf;
    put_uvarint(buf, v);
    size_t pos = 0;
    uint64_t back = 0;
    ASSERT_TRUE(get_uvarint(buf, pos, &back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(CodecVarintTest, TruncatedAndOverlongInputsFail) {
  std::vector<uint8_t> buf;
  put_uvarint(buf, UINT64_MAX);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(get_uvarint(std::span(buf.data(), cut), pos, &v));
  }
  // Eleven continuation bytes never terminate within the 64-bit budget.
  const std::vector<uint8_t> overlong(11, 0x80);
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(get_uvarint(overlong, pos, &v));
}

class CodecRoundTripTest : public testing::TestWithParam<CodecKind> {};

TEST_P(CodecRoundTripTest, RoundTripsVariedPayloads) {
  const auto codec = make_codec(GetParam());
  Rng rng(7);
  std::vector<std::vector<uint8_t>> payloads;
  payloads.push_back({});                                 // empty
  payloads.push_back({42});                               // single byte
  payloads.push_back(std::vector<uint8_t>(4096, 0));      // all zeros
  payloads.push_back(sorted_records(100));                // compressible
  payloads.push_back(random_bytes(rng, 4096));            // incompressible
  auto mixed = sorted_records(50);
  const auto noise = random_bytes(rng, 1000);
  mixed.insert(mixed.end(), noise.begin(), noise.end());
  payloads.push_back(std::move(mixed));
  for (const auto& raw : payloads) {
    std::vector<uint8_t> frame, back;
    codec->encode(raw, frame);
    ASSERT_TRUE(codec->decode(frame, back)) << raw.size();
    EXPECT_EQ(back, raw);
  }
}

TEST_P(CodecRoundTripTest, EveryTruncatedFrameFailsToDecode) {
  const auto codec = make_codec(GetParam());
  const auto raw = sorted_records(60);
  std::vector<uint8_t> frame, back;
  codec->encode(raw, frame);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(codec->decode(std::span(frame.data(), cut), back))
        << "torn frame of " << cut << "/" << frame.size()
        << " bytes decoded";
  }
}

TEST_P(CodecRoundTripTest, AnyKindDecodesAnyKindsFrames) {
  // The frame format is shared; kinds differ only in match search.
  const auto encoder = make_codec(GetParam());
  const auto raw = sorted_records(40);
  std::vector<uint8_t> frame;
  encoder->encode(raw, frame);
  for (const CodecKind other : kAllCodecKinds) {
    std::vector<uint8_t> back;
    ASSERT_TRUE(make_codec(other)->decode(frame, back));
    EXPECT_EQ(back, raw);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CodecRoundTripTest,
                         testing::ValuesIn(kAllCodecKinds),
                         [](const auto& info) {
                           return std::string(codec_kind_name(info.param));
                         });

TEST(CodecFrameTest, MalformedFramesAreRejectedNotAborted) {
  const auto codec = make_codec(CodecKind::kLz);
  std::vector<uint8_t> back;

  {  // Unknown mode byte.
    std::vector<uint8_t> frame;
    put_uvarint(frame, 4);
    frame.push_back(7);
    frame.insert(frame.end(), {1, 2, 3, 4});
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Raw payload shorter than the declared length.
    std::vector<uint8_t> frame;
    put_uvarint(frame, 100);
    frame.push_back(0);
    frame.insert(frame.end(), {1, 2, 3});
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Match before any output (dist > produced bytes).
    std::vector<uint8_t> frame;
    put_uvarint(frame, 8);
    frame.push_back(1);
    put_uvarint(frame, 0);  // no literals
    put_uvarint(frame, 8);  // match_len
    put_uvarint(frame, 1);  // dist 1 with empty output
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Zero distance.
    std::vector<uint8_t> frame;
    put_uvarint(frame, 8);
    frame.push_back(1);
    put_uvarint(frame, 2);
    frame.insert(frame.end(), {9, 9});
    put_uvarint(frame, 6);
    put_uvarint(frame, 0);
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Match overruns the declared raw length.
    std::vector<uint8_t> frame;
    put_uvarint(frame, 4);
    frame.push_back(1);
    put_uvarint(frame, 2);
    frame.insert(frame.end(), {9, 9});
    put_uvarint(frame, 6);  // 2 + 6 > 4
    put_uvarint(frame, 1);
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Trailing garbage after a complete reconstruction.
    const std::vector<uint8_t> raw{1, 2, 3, 4};
    std::vector<uint8_t> frame;
    codec->encode(raw, frame);
    frame.push_back(0xee);
    EXPECT_FALSE(codec->decode(frame, back));
  }
  {  // Empty frame.
    EXPECT_FALSE(codec->decode({}, back));
  }
  // Headers declaring 2^40 or 2^63 raw bytes, in both modes: decode must
  // refuse them against its bound before allocating anything.
  for (const uint64_t raw_len : {uint64_t{1} << 40, uint64_t{1} << 63}) {
    std::vector<uint8_t> raw_frame;
    put_uvarint(raw_frame, raw_len);
    raw_frame.push_back(0);
    raw_frame.insert(raw_frame.end(), {1, 2, 3});
    std::vector<uint8_t> token_frame;  // one literal, then one long run
    put_uvarint(token_frame, raw_len);
    token_frame.push_back(1);
    put_uvarint(token_frame, 1);
    token_frame.push_back(9);
    put_uvarint(token_frame, raw_len - 1);
    put_uvarint(token_frame, 1);
    put_uvarint(token_frame, 0);
    for (const auto* frame : {&raw_frame, &token_frame}) {
      EXPECT_FALSE(codec->decode(*frame, back)) << raw_len;
      EXPECT_FALSE(codec->decode(*frame, back, 64 * kKiB)) << raw_len;
    }
  }
  {  // The bound is inclusive.
    const std::vector<uint8_t> raw(4096, 5);
    std::vector<uint8_t> frame;
    codec->encode(raw, frame);
    EXPECT_FALSE(codec->decode(frame, back, raw.size() - 1));
    ASSERT_TRUE(codec->decode(frame, back, raw.size()));
    EXPECT_EQ(back, raw);
  }
}

TEST(CodecFrameTest, OverlappingMatchesReplayTheirOwnOutput) {
  // Every (dist, len) shape of a match — dist 1, dist < len, dist == len,
  // dist > len — against a byte-at-a-time expansion.
  Rng rng(3);
  const auto codec = make_codec(CodecKind::kLz);
  for (size_t lit = 1; lit <= 24; ++lit) {
    for (size_t dist = 1; dist <= lit; ++dist) {
      for (const size_t len : {size_t{1}, dist - 1, dist, dist + 1, 2 * dist,
                               3 * dist + 5, size_t{70}, size_t{1000}}) {
        if (len == 0) continue;
        std::vector<uint8_t> expect = random_bytes(rng, lit);
        for (size_t i = 0; i < len; ++i) {
          expect.push_back(expect[expect.size() - dist]);
        }
        const std::vector<uint8_t> tail = random_bytes(rng, 3);
        expect.insert(expect.end(), tail.begin(), tail.end());
        std::vector<uint8_t> frame;
        put_uvarint(frame, expect.size());
        frame.push_back(1);
        put_uvarint(frame, lit);
        frame.insert(frame.end(), expect.begin(), expect.begin() + lit);
        put_uvarint(frame, len);
        put_uvarint(frame, dist);
        put_uvarint(frame, tail.size());
        frame.insert(frame.end(), tail.begin(), tail.end());
        std::vector<uint8_t> back(7, 0xee);  // stale contents are replaced
        ASSERT_TRUE(codec->decode(frame, back))
            << "lit " << lit << " dist " << dist << " len " << len;
        ASSERT_EQ(back, expect)
            << "lit " << lit << " dist " << dist << " len " << len;
      }
    }
  }
}

TEST(CodecFrameTest, PrefixCodecCompressesSortedRecords) {
  const auto codec = make_codec(CodecKind::kPrefix);
  const auto raw = sorted_records(200);
  std::vector<uint8_t> frame;
  codec->encode(raw, frame);
  EXPECT_LT(frame.size(), raw.size() * 7 / 10)
      << "prefix truncation should remove most shared key prefixes";
  EXPECT_LT(codec->stats().ratio(), 0.7);
  EXPECT_EQ(codec->stats().bytes_saved(), raw.size() - frame.size());
}

TEST(CodecFrameTest, LzAtLeastMatchesPrefixOnRepetitiveData) {
  const auto raw = sorted_records(200);
  std::vector<uint8_t> prefix_frame, lz_frame;
  make_codec(CodecKind::kPrefix)->encode(raw, prefix_frame);
  make_codec(CodecKind::kLz)->encode(raw, lz_frame);
  EXPECT_LE(lz_frame.size(), prefix_frame.size());
}

TEST(CodecFrameTest, IncompressibleInputCostsOnlyTheHeader) {
  Rng rng(11);
  const auto raw = random_bytes(rng, 4096);
  for (const CodecKind kind : kAllCodecKinds) {
    const auto codec = make_codec(kind);
    std::vector<uint8_t> frame;
    codec->encode(raw, frame);
    EXPECT_LE(frame.size(), raw.size() + 6) << codec_kind_name(kind);
    EXPECT_EQ(codec->stats().raw_fallbacks, 1u)
        << "noise must fall back to a verbatim frame";
    std::vector<uint8_t> back;
    ASSERT_TRUE(codec->decode(frame, back));
    EXPECT_EQ(back, raw);
  }
}

TEST(CodecFrameTest, StatsAccumulateAndClear) {
  const auto codec = make_codec(CodecKind::kLz);
  const auto raw = sorted_records(50);
  std::vector<uint8_t> frame, back;
  codec->encode(raw, frame);
  codec->encode(raw, frame);
  ASSERT_TRUE(codec->decode(frame, back));
  EXPECT_EQ(codec->stats().encode_calls, 2u);
  EXPECT_EQ(codec->stats().decode_calls, 1u);
  EXPECT_EQ(codec->stats().raw_bytes, 2 * raw.size());
  EXPECT_GT(codec->stats().bytes_saved(), 0u);
  codec->clear_stats();
  EXPECT_EQ(codec->stats().encode_calls, 0u);
  EXPECT_EQ(codec->stats().ratio(), 1.0);
}

TEST(PositionTableTest, EarlierCallsReadEmptyAndTheTableResetsBeforeWrap) {
  PositionTable table;
  table.begin(100, 4);
  ASSERT_EQ(table.slots.size(), 16u);
  table.slots[3] = table.base + 99;
  EXPECT_TRUE(table.holds(table.slots[3]));
  table.begin(10, 4);
  EXPECT_FALSE(table.holds(table.slots[3])) << "a stale slot reads as set";
  table.slots[3] = table.base + 9;
  // A call whose positions would wrap 32 bits clears the table instead.
  table.next = UINT32_MAX - 5;
  table.slots[5] = table.next - 1;
  table.begin(10, 4);
  EXPECT_EQ(table.base, 1u);
  for (const uint32_t slot : table.slots) EXPECT_FALSE(table.holds(slot));
}

// ---------------------------------------------------------------------------
// Differential frames: the encoders below are the search as first written
// (one byte compared at a time, every chain walked to its 32-candidate
// limit, tables built per call). They are the spec the codecs' frames must
// match byte for byte, since every stored length and sim-time gauge is a
// function of those frames.
// ---------------------------------------------------------------------------

size_t spec_match_length(const uint8_t* a, const uint8_t* b,
                         const uint8_t* end) {
  const uint8_t* start = a;
  while (a < end && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<size_t>(a - start);
}

uint32_t spec_hash4(const uint8_t* p, int bits) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - bits);
}

uint32_t spec_hash8(const uint8_t* p, int bits) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return static_cast<uint32_t>((v * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
}

struct SpecTokens {
  std::span<const uint8_t> raw;
  std::vector<uint8_t>* out;
  size_t lit_start = 0;

  void emit_match(size_t pos, size_t len, size_t dist) {
    put_uvarint(*out, pos - lit_start);
    out->insert(out->end(), raw.begin() + static_cast<ptrdiff_t>(lit_start),
                raw.begin() + static_cast<ptrdiff_t>(pos));
    put_uvarint(*out, len);
    put_uvarint(*out, dist);
    lit_start = pos + len;
  }
  void finish() {
    put_uvarint(*out, raw.size() - lit_start);
    out->insert(out->end(), raw.begin() + static_cast<ptrdiff_t>(lit_start),
                raw.end());
  }
};

bool spec_prefix_tokens(std::span<const uint8_t> raw,
                        std::vector<uint8_t>& out) {
  constexpr size_t kMinMatch = 8;
  constexpr int kHashBits = 15;
  if (raw.size() < kMinMatch) return false;
  std::vector<uint32_t> last(1u << kHashBits, 0);
  std::vector<bool> seen(1u << kHashBits, false);
  const uint8_t* base = raw.data();
  const uint8_t* end = base + raw.size();
  SpecTokens tokens{raw, &out};
  size_t pos = 0;
  const size_t limit = raw.size() - kMinMatch;
  while (pos <= limit) {
    const uint32_t h = spec_hash8(base + pos, kHashBits);
    const size_t candidate = last[h];
    const bool have = seen[h];
    last[h] = static_cast<uint32_t>(pos);
    seen[h] = true;
    if (have) {
      const size_t len = spec_match_length(base + pos, base + candidate, end);
      if (len >= kMinMatch) {
        tokens.emit_match(pos, len, pos - candidate);
        for (size_t i = pos + 1; i + kMinMatch <= pos + len; i += kMinMatch) {
          const uint32_t hi = spec_hash8(base + i, kHashBits);
          last[hi] = static_cast<uint32_t>(i);
          seen[hi] = true;
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

bool spec_lz_tokens(std::span<const uint8_t> raw, std::vector<uint8_t>& out) {
  constexpr size_t kMinMatch = 4;
  constexpr int kHashBits = 15;
  constexpr int kMaxChain = 32;
  if (raw.size() < kMinMatch) return false;
  constexpr uint32_t kNil = 0xffffffffu;
  std::vector<uint32_t> head(1u << kHashBits, kNil);
  std::vector<uint32_t> prev(raw.size(), kNil);
  const uint8_t* base = raw.data();
  const uint8_t* end = base + raw.size();
  const auto insert = [&](size_t p) {
    const uint32_t h = spec_hash4(base + p, kHashBits);
    prev[p] = head[h];
    head[h] = static_cast<uint32_t>(p);
  };
  SpecTokens tokens{raw, &out};
  size_t pos = 0;
  const size_t limit = raw.size() - kMinMatch;
  while (pos <= limit) {
    size_t best_len = 0;
    size_t best_pos = 0;
    uint32_t candidate = head[spec_hash4(base + pos, kHashBits)];
    for (int depth = 0; candidate != kNil && depth < kMaxChain; ++depth) {
      const size_t len = spec_match_length(base + pos, base + candidate, end);
      if (len > best_len) {
        best_len = len;
        best_pos = candidate;
      }
      candidate = prev[candidate];
    }
    if (best_len >= kMinMatch) {
      tokens.emit_match(pos, best_len, pos - best_pos);
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

// BlockCodec::encode's framing around the spec search.
std::vector<uint8_t> spec_frame(CodecKind kind, std::span<const uint8_t> raw) {
  std::vector<uint8_t> out;
  put_uvarint(out, raw.size());
  out.push_back(1);
  const size_t header = out.size();
  bool tokens = kind == CodecKind::kLz ? spec_lz_tokens(raw, out)
                                       : spec_prefix_tokens(raw, out);
  if (tokens && out.size() - header >= raw.size()) tokens = false;
  if (!tokens) {
    out.resize(header);
    out[header - 1] = 0;
    out.insert(out.end(), raw.begin(), raw.end());
  }
  return out;
}

std::vector<uint8_t> padded(std::vector<uint8_t> image, size_t node_bytes) {
  EXPECT_LE(image.size(), node_bytes);
  image.resize(node_bytes, 0);  // NodeStore::pad_image's zero tail
  return image;
}

// A B-tree or Bε-tree leaf bulk-loaded with seeded keys and values up to
// `fill` of the node, serialized and padded the way NodeStore stores it.
template <typename Node>
std::vector<uint8_t> leaf_image(Rng& rng, size_t node_bytes, double fill) {
  auto leaf = Node::make_leaf();
  uint64_t id = rng.uniform(1u << 20);
  for (;;) {
    id += 1 + rng.uniform(8);
    const std::string key = kv::encode_key(id);
    const std::string value = kv::make_value(id, 8 + rng.uniform(120));
    if (leaf->byte_size() + Node::leaf_entry_bytes(key.size(), value.size()) >
        static_cast<uint64_t>(fill * static_cast<double>(node_bytes))) {
      break;
    }
    leaf->leaf_append(key, value);
  }
  std::vector<uint8_t> image;
  leaf->serialize(image);
  return padded(std::move(image), node_bytes);
}

// A Bε-tree internal node: seeded pivots, and puts, upserts and
// tombstones buffered for its children up to `fill` of the node.
std::vector<uint8_t> betree_internal_image(Rng& rng, size_t node_bytes,
                                           double fill) {
  auto node = betree::BeTreeNode::make_internal();
  node->internal_init(1000 + rng.uniform(1000));
  const size_t children = 2 + rng.uniform(14);
  for (size_t c = 1; c < children; ++c) {
    node->internal_insert(c - 1, kv::encode_key(c * 10'000),
                          1000 + rng.uniform(100'000));
  }
  const uint64_t budget =
      static_cast<uint64_t>(fill * static_cast<double>(node_bytes));
  for (;;) {
    betree::Message msg;
    const uint64_t id = rng.uniform(children * 10'000);
    msg.key = kv::encode_key(id);
    switch (rng.uniform(3)) {
      case 0:
        msg.kind = betree::MessageKind::kPut;
        msg.payload = kv::make_value(id, 8 + rng.uniform(100));
        break;
      case 1:
        msg.kind = betree::MessageKind::kUpsert;
        msg.payload.assign(8, static_cast<char>(rng.uniform(4)));
        break;
      default:
        msg.kind = betree::MessageKind::kTombstone;
        break;
    }
    if (node->byte_size() + msg.bytes() > budget) break;
    node->buffer_add(node->child_index(msg.key), msg);
  }
  std::vector<uint8_t> image;
  node->serialize(image);
  return padded(std::move(image), node_bytes);
}

// Records the raw blocks an SSTableBuilder frames, and stores them raw.
class BlockCapture final : public BlockCodec {
 public:
  CodecKind kind() const override { return CodecKind::kLz; }
  mutable std::vector<std::vector<uint8_t>> blocks;

 protected:
  bool encode_tokens(std::span<const uint8_t> raw,
                     std::vector<uint8_t>& out) const override {
    (void)out;
    blocks.emplace_back(raw.begin(), raw.end());
    return false;
  }
};

// The data blocks of a seeded SSTable built with `block_bytes` blocks.
std::vector<std::vector<uint8_t>> sstable_blocks(Rng& rng,
                                                 size_t block_bytes) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 1ULL * kGiB;
  sim::HddDevice dev(cfg);
  sim::IoContext io(dev);
  ByteArena arena(dev, 0);
  BlockCapture capture;
  lsm::SSTableBuilder builder(dev, io, arena, block_bytes, 10.0, 1, &capture);
  uint64_t id = rng.uniform(1u << 20);
  for (uint64_t bytes = 0; bytes < 3 * block_bytes;) {
    id += 1 + rng.uniform(8);
    lsm::Entry entry{kv::encode_key(id),
                     kv::make_value(id, 8 + rng.uniform(200)),
                     rng.uniform(10) == 0};
    bytes += entry.key.size() + entry.value.size() + 7;
    builder.add(std::move(entry));
  }
  builder.finish();
  return std::move(capture.blocks);
}

class CodecDifferentialTest : public testing::TestWithParam<CodecKind> {
 protected:
  // Encodes `raw` twice through the fixture's one codec instance (so the
  // second pass runs on scratch tables the first one left behind) and
  // checks both frames against the spec.
  void expect_spec_frame(std::span<const uint8_t> raw, const char* what) {
    const std::vector<uint8_t> spec = spec_frame(GetParam(), raw);
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<uint8_t> frame;
      codec_->encode(raw, frame);
      ASSERT_EQ(frame, spec) << what << " of " << raw.size()
                             << " bytes, pass " << pass;
    }
  }

  std::unique_ptr<BlockCodec> codec_ = make_codec(GetParam());
};

TEST_P(CodecDifferentialTest, NodeAndBlockImagesEncodeAsTheSpecDoes) {
  for (const uint64_t seed : {1, 2}) {
    Rng rng(seed);
    for (const size_t node_bytes :
         {4 * kKiB, 16 * kKiB, 64 * kKiB, 256 * kKiB}) {
      for (const double fill : {0.3, 0.7, 0.98}) {
        expect_spec_frame(leaf_image<btree::BTreeNode>(rng, node_bytes, fill),
                          "B-tree leaf");
        expect_spec_frame(
            leaf_image<betree::BeTreeNode>(rng, node_bytes, fill),
            "Be-tree leaf");
        expect_spec_frame(betree_internal_image(rng, node_bytes, fill),
                          "Be-tree internal node");
      }
      for (const auto& block : sstable_blocks(rng, node_bytes)) {
        expect_spec_frame(block, "SSTable block");
      }
    }
  }
}

TEST_P(CodecDifferentialTest, SmallAlphabetInputsEncodeAsTheSpecDoes) {
  // Few symbols make long chains, many hash collisions, overlapping
  // matches and ties between candidates; sizes hop up and down so each
  // call runs on tables a larger or smaller call left behind.
  Rng rng(17);
  for (uint64_t symbols = 1; symbols <= 8; ++symbols) {
    for (int trial = 0; trial < 12; ++trial) {
      const size_t size = trial < 4 ? rng.uniform(24) : rng.uniform(20'000);
      std::vector<uint8_t> raw(size);
      const bool runs = rng.uniform(2) == 0;
      uint8_t sym = 0;
      for (auto& b : raw) {
        if (!runs || rng.uniform(6) == 0) {
          sym = static_cast<uint8_t>('a' + rng.uniform(symbols));
        }
        b = sym;
      }
      expect_spec_frame(raw, "small-alphabet input");
    }
  }
  expect_spec_frame(std::vector<uint8_t>(256 * kKiB, 0), "zero image");
}

INSTANTIATE_TEST_SUITE_P(Searching, CodecDifferentialTest,
                         testing::Values(CodecKind::kPrefix, CodecKind::kLz),
                         [](const auto& info) {
                           return std::string(codec_kind_name(info.param));
                         });

// ---------------------------------------------------------------------------
// NodeStore with a codec: partial-extent IO, charging, and fallbacks.
// ---------------------------------------------------------------------------

class NodeStoreCodecTest : public testing::TestWithParam<CodecKind> {
 protected:
  NodeStoreCodecTest() : dev_(make_config()), io_(dev_) {}

  static sim::HddConfig make_config() {
    sim::HddConfig cfg;
    cfg.capacity_bytes = 1ULL * kGiB;
    return cfg;
  }

  sim::HddDevice dev_;
  sim::IoContext io_;
};

TEST_P(NodeStoreCodecTest, CompressedWriteChargesStoredBytesOnly) {
  NodeStore store(dev_, io_, 64 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  const auto image = sorted_records(500);  // compressible, < node_bytes
  ASSERT_TRUE(store.try_write_node(id, image).ok());
  const uint64_t stored = store.stored_bytes(id);
  EXPECT_GT(stored, 0u);
  EXPECT_LT(stored, 64u * kKiB);
  EXPECT_EQ(dev_.stats().bytes_written, stored);

  dev_.clear_stats();
  std::vector<uint8_t> back;
  ASSERT_TRUE(store.try_read_node(id, back).ok());
  EXPECT_EQ(dev_.stats().bytes_read, stored);  // partial-extent read
  ASSERT_EQ(back.size(), 64u * kKiB);
  EXPECT_EQ(std::memcmp(back.data(), image.data(), image.size()), 0);
  for (size_t i = image.size(); i < back.size(); ++i) {
    ASSERT_EQ(back[i], 0) << i;
  }
}

TEST_P(NodeStoreCodecTest, OversizedFrameHeaderReadsAsCorruption) {
  NodeStore store(dev_, io_, 16 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  ASSERT_TRUE(store.try_write_node(id, sorted_records(100)).ok());
  ASSERT_LT(store.stored_bytes(id), 16u * kKiB);
  // Rewrite the stored frame's header to declare 2^62 raw bytes.
  std::vector<uint8_t> header;
  put_uvarint(header, uint64_t{1} << 62);
  header.push_back(1);
  dev_.write_bytes(id * 16 * kKiB, header);
  std::vector<uint8_t> back;
  EXPECT_EQ(store.try_read_node(id, back).code(), StatusCode::kCorruption);
  EXPECT_EQ(store.peek_node(id, back).code(), StatusCode::kCorruption);
}

TEST_P(NodeStoreCodecTest, IncompressibleImageFallsBackToRawExtent) {
  NodeStore store(dev_, io_, 4 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  Rng rng(23);
  const auto image = random_bytes(rng, 4 * kKiB);  // fills the extent
  ASSERT_TRUE(store.try_write_node(id, image).ok());
  // A frame would exceed the extent, so the raw padded image is stored.
  EXPECT_EQ(store.stored_bytes(id), 4u * kKiB);
  EXPECT_EQ(dev_.stats().bytes_written, 4u * kKiB);
  std::vector<uint8_t> back;
  ASSERT_TRUE(store.try_read_node(id, back).ok());
  EXPECT_EQ(back, image);
}

TEST_P(NodeStoreCodecTest, SpanAndTouchChargesScaleWithStoredSize) {
  NodeStore store(dev_, io_, 64 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  std::vector<uint8_t> image(64 * kKiB, 7);  // collapses to almost nothing
  ASSERT_TRUE(store.try_write_node(id, image).ok());
  const uint64_t stored = store.stored_bytes(id);
  ASSERT_LT(stored, 64u * kKiB / 100);

  dev_.clear_stats();
  std::vector<uint8_t> span(16 * kKiB);
  ASSERT_TRUE(store.try_read_span(id, 8192, span).ok());
  // A quarter of the node charges about a quarter of the frame.
  EXPECT_LE(dev_.stats().bytes_read, stored / 4 + 1);
  for (uint8_t b : span) ASSERT_EQ(b, 7);

  dev_.clear_stats();
  ASSERT_TRUE(store.try_touch_read(id, 0, 64 * kKiB).ok());
  EXPECT_EQ(dev_.stats().bytes_read, stored);  // whole node = whole frame
}

TEST_P(NodeStoreCodecTest, BatchPathsRoundTripCompressedImages) {
  NodeStore store(dev_, io_, 16 * kKiB, 0, GetParam());
  Rng rng(5);
  std::vector<uint64_t> ids;
  std::vector<std::vector<uint8_t>> images;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(store.allocate());
    // Alternate compressible and incompressible images in one batch.
    images.push_back(i % 2 == 0 ? sorted_records(80 + i)
                                : random_bytes(rng, 16 * kKiB));
  }
  std::vector<NodeStore::NodeImage> writes;
  for (size_t i = 0; i < ids.size(); ++i) writes.push_back({ids[i], images[i]});
  ASSERT_TRUE(store.try_write_nodes(writes).ok());
  uint64_t stored_total = 0;
  for (const uint64_t id : ids) stored_total += store.stored_bytes(id);
  EXPECT_EQ(dev_.stats().bytes_written, stored_total);
  EXPECT_LT(stored_total, 6u * 16 * kKiB);

  dev_.clear_stats();
  std::vector<std::vector<uint8_t>> back;
  ASSERT_TRUE(store.try_read_nodes(ids, back).ok());
  EXPECT_EQ(dev_.stats().bytes_read, stored_total);
  ASSERT_EQ(back.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(back[i].size(), 16u * kKiB);
    EXPECT_EQ(
        std::memcmp(back[i].data(), images[i].data(), images[i].size()), 0)
        << i;
  }
}

TEST_P(NodeStoreCodecTest, FreeResetsStoredLength) {
  NodeStore store(dev_, io_, 16 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  ASSERT_TRUE(store.try_write_node(id, sorted_records(100)).ok());
  ASSERT_LT(store.stored_bytes(id), 16u * kKiB);  // compressed
  store.free(id);
  ASSERT_EQ(store.allocate(), id);  // slot reuse
  // Never-written nodes report the full extent (read raw, full charge).
  EXPECT_EQ(store.stored_bytes(id), 16u * kKiB);
}

TEST_P(NodeStoreCodecTest, PeekServesDecodedPayloadWithoutTiming) {
  NodeStore store(dev_, io_, 16 * kKiB, 0, GetParam());
  const uint64_t id = store.allocate();
  const auto image = sorted_records(100);
  ASSERT_TRUE(store.try_write_node(id, image).ok());
  const sim::SimTime before = io_.now();
  dev_.clear_stats();
  std::vector<uint8_t> back;
  ASSERT_TRUE(store.peek_node(id, back).ok());
  EXPECT_EQ(io_.now(), before);
  EXPECT_EQ(dev_.stats().reads, 0u);
  EXPECT_EQ(std::memcmp(back.data(), image.data(), image.size()), 0);
}

INSTANTIATE_TEST_SUITE_P(Codecs, NodeStoreCodecTest,
                         testing::Values(CodecKind::kPrefix, CodecKind::kLz),
                         [](const auto& info) {
                           return std::string(codec_kind_name(info.param));
                         });

TEST(NodeStoreIdentityTest, ExplicitIdentityMatchesDefaultTiming) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 1ULL * kGiB;
  sim::HddDevice dev_a(cfg), dev_b(cfg);
  sim::IoContext io_a(dev_a), io_b(dev_b);
  NodeStore plain(dev_a, io_a, 16 * kKiB);
  NodeStore ident(dev_b, io_b, 16 * kKiB, 0, CodecKind::kIdentity);
  const uint64_t a = plain.allocate();
  const uint64_t b = ident.allocate();
  const auto image = sorted_records(100);
  ASSERT_TRUE(plain.try_write_node(a, image).ok());
  ASSERT_TRUE(ident.try_write_node(b, image).ok());
  std::vector<uint8_t> buf;
  ASSERT_TRUE(plain.try_read_node(a, buf).ok());
  ASSERT_TRUE(ident.try_read_node(b, buf).ok());
  EXPECT_EQ(io_a.now(), io_b.now());
  EXPECT_EQ(dev_a.stats().bytes_written, dev_b.stats().bytes_written);
  EXPECT_EQ(ident.codec_kind(), CodecKind::kIdentity);
  EXPECT_EQ(ident.stored_bytes(b), 16u * kKiB)  // raw, unframed extent
      << "identity must bypass the codec entirely";
}

}  // namespace
}  // namespace damkit::blockdev
