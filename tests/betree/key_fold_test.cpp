// Seeded differential tests of the Bε-tree point-query path: the
// per-segment key index and the newest-first KeyFold against the spec,
// apply_message in arrival order over the key's records. The node-level
// script interleaves lookups with every step of the index's lifecycle; the
// tree-level run drives BeTree and OptBeTree at height >= 3 under a
// Zipfian hot-key mix against std::map.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "betree/betree.h"
#include "betree/betree_node.h"
#include "betree_opt/opt_betree.h"
#include "kv/slice.h"
#include "sim/hdd.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace damkit::betree {
namespace {

constexpr int64_t kWrappingDeltas[] = {
    std::numeric_limits<int64_t>::min(), -1, 1, 7,
    std::numeric_limits<int64_t>::max()};

/// A put (100-B value or 8-B counter), tombstone or wrapping upsert.
Message random_message(Rng& rng, std::string key) {
  const uint64_t dice = rng.uniform(10);
  if (dice < 2) {
    return {MessageKind::kPut, std::move(key), kv::make_value(rng.next(), 100)};
  }
  if (dice < 4) {
    return {MessageKind::kPut, std::move(key), encode_counter(rng.next())};
  }
  if (dice < 5) return {MessageKind::kTombstone, std::move(key), {}};
  if (dice < 8) {
    return {MessageKind::kUpsert, std::move(key),
            encode_delta(kWrappingDeltas[rng.uniform(5)])};
  }
  // A UINT64_MAX-sized delta: adding it wraps round to just below the base.
  return {MessageKind::kUpsert, std::move(key),
          encode_counter(std::numeric_limits<uint64_t>::max() -
                         rng.uniform(3))};
}

constexpr uint64_t kHotKeys = 24;

/// The leaf entry beneath hot key `id`: absent, a 100-B value (an upsert
/// reads it as 0) or a counter.
std::optional<std::string> leaf_base(uint64_t id) {
  switch (id % 3) {
    case 0:
      return std::nullopt;
    case 1:
      return kv::make_value(id, 100);
    default:
      return encode_counter(id * 0x9e3779b97f4a7c15ULL);
  }
}

std::optional<std::string> spec_state(const BeTreeNode& node,
                                      const std::string& key,
                                      std::optional<std::string> state) {
  for (const MessageView m : node.buffer(node.child_index(key))) {
    if (m.key == key) state = apply_message(std::move(state), m.to_message());
  }
  return state;
}

std::optional<std::string> folded_state(BeTreeNode& node,
                                        const std::string& key,
                                        std::optional<std::string> state) {
  KeyFold fold;
  node.fold_for_key(node.child_index(key), key, &fold);
  return std::move(fold).finish(std::move(state));
}

void expect_hot_keys_agree(BeTreeNode& node, const char* step, int op) {
  for (uint64_t id = 0; id < kHotKeys; ++id) {
    const std::string key = kv::encode_key(id);
    ASSERT_EQ(folded_state(node, key, leaf_base(id)),
              spec_state(node, key, leaf_base(id)))
        << step << " at op " << op << ", key " << id;
  }
}

/// A fresh four-child node over the hot keys.
std::shared_ptr<BeTreeNode> make_node() {
  auto node = BeTreeNode::make_internal();
  node->internal_init(0);
  for (uint64_t c = 1; c < 4; ++c) {
    node->internal_insert(c - 1, kv::encode_key(c * kHotKeys / 4), c);
  }
  return node;
}

/// Re-route every pending message into a fresh node, each child's buffer
/// in arrival order (key ranges are disjoint, so per-key order holds).
std::shared_ptr<BeTreeNode> regrow(BeTreeNode& node) {
  auto fresh = make_node();
  for (size_t c = 0; c < node.child_count(); ++c) {
    for (const Message& m : node.buffer_take(c)) {
      fresh->buffer_add(fresh->child_index(m.key), m);
    }
  }
  return fresh;
}

class KeyFoldNodeTest : public testing::TestWithParam<uint64_t> {};

TEST_P(KeyFoldNodeTest, FoldMatchesArrivalOrderReplay) {
  Rng rng(GetParam());
  std::shared_ptr<BeTreeNode> node = make_node();
  for (int op = 0; op < 3000; ++op) {
    const uint64_t dice = rng.uniform(100);
    if (dice < 60) {
      std::string key = kv::encode_key(rng.uniform(kHotKeys));
      const size_t c = node->child_index(key);
      node->buffer_add(c, random_message(rng, std::move(key)));
    } else if (dice < 88) {
      // A lookup builds the segment's index on first use; later adds then
      // have to keep it current.
      const uint64_t id = rng.uniform(kHotKeys);
      const std::string key = kv::encode_key(id);
      ASSERT_EQ(folded_state(*node, key, leaf_base(id)),
                spec_state(*node, key, leaf_base(id)))
          << "lookup at op " << op << ", key " << id;
    } else if (dice < 92) {
      // Drain one child, then hand part of the batch back in order, as a
      // flush whose leaf read failed does.
      const size_t c = rng.uniform(node->child_count());
      const std::vector<Message> taken = node->buffer_take(c);
      const size_t back = rng.uniform(taken.size() + 1);
      for (size_t i = 0; i < back; ++i) node->buffer_add(c, taken[i]);
      expect_hot_keys_agree(*node, "buffer_take", op);
    } else if (dice < 95) {
      node->internal_remove_child(rng.uniform(node->pivot_count()));
      expect_hot_keys_agree(*node, "internal_remove_child", op);
    } else if (dice < 98) {
      BeTreeNode::SplitResult sr = node->split();
      expect_hot_keys_agree(*node, "split (left)", op);
      expect_hot_keys_agree(*sr.right, "split (right)", op);
      if (rng.uniform(2) == 1) node = sr.right;
    } else {
      std::vector<uint8_t> image;
      node->serialize(image);
      node = BeTreeNode::deserialize(image);
      expect_hot_keys_agree(*node, "deserialize", op);
    }
    if (node->child_count() < 2) node = regrow(*node);
  }
  EXPECT_EQ(node->byte_size(), node->recomputed_byte_size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyFoldNodeTest,
                         testing::Values(1u, 2u, 3u, 4u),
                         [](const testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

enum class TreeKind { kBeTree, kOptBeTree };

class HotKeyTreeTest : public testing::TestWithParam<TreeKind> {};

TEST_P(HotKeyTreeTest, ZipfianMixAgreesWithStdMap) {
  sim::HddConfig cfg;
  cfg.capacity_bytes = 4ULL * kGiB;
  sim::HddDevice dev(cfg, 7);
  sim::IoContext io(dev);
  BeTreeConfig tc;
  tc.node_bytes = 2048;  // small nodes and fanout: a deep tree
  tc.target_fanout = 4;
  tc.cache_bytes = 24 * tc.node_bytes;
  std::unique_ptr<BeTree> tree;
  if (GetParam() == TreeKind::kBeTree) {
    tree = std::make_unique<BeTree>(dev, io, tc);
  } else {
    tree = std::make_unique<betree_opt::OptBeTree>(dev, io, tc);
  }

  constexpr uint64_t kKeys = 1500;
  Zipfian zipf(kKeys, 0.99);
  Rng rng(17);
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 12000; ++i) {
    const std::string key = kv::encode_key(zipf.sample(rng));
    const uint64_t dice = rng.uniform(100);
    if (dice < 25) {
      // Mostly 100-B values, which later upserts read as 0.
      const std::string value = rng.uniform(4) == 0
                                    ? encode_counter(rng.next())
                                    : kv::make_value(rng.next(), 100);
      tree->put(key, value);
      ref[key] = value;
    } else if (dice < 50) {
      const int64_t delta = kWrappingDeltas[rng.uniform(5)];
      tree->upsert(key, delta);
      const auto it = ref.find(key);
      const uint64_t base = it == ref.end() ? 0 : decode_counter(it->second);
      ref[key] = encode_counter(base + static_cast<uint64_t>(delta));
    } else if (dice < 60) {
      tree->erase(key);
      ref.erase(key);
    } else {
      const auto it = ref.find(key);
      const std::optional<std::string> want =
          it == ref.end() ? std::nullopt
                          : std::optional<std::string>(it->second);
      ASSERT_EQ(tree->get(key), want) << "op " << i;
    }
  }
  EXPECT_GE(tree->height(), 3u);
  tree->check_invariants();
  for (uint64_t id = 0; id < kKeys; ++id) {
    const std::string key = kv::encode_key(id);
    const auto it = ref.find(key);
    const std::optional<std::string> want =
        it == ref.end() ? std::nullopt : std::optional<std::string>(it->second);
    ASSERT_EQ(tree->get(key), want) << "key " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Trees, HotKeyTreeTest,
    testing::Values(TreeKind::kBeTree, TreeKind::kOptBeTree),
    [](const testing::TestParamInfo<TreeKind>& info) {
      return info.param == TreeKind::kBeTree ? "betree" : "opt_betree";
    });

}  // namespace
}  // namespace damkit::betree
