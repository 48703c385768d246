// kv::Dictionary contract tests, run against every engine the factory can
// build: the engines must agree on observable results (only simulated
// cost may differ between engines).
#include "kv/dictionary.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "kv/codec.h"
#include "kv/engine.h"
#include "kv/sharded_engine.h"
#include "kv/slice.h"
#include "sim/fault_injection.h"
#include "sim/profiles.h"
#include "sim/ssd.h"
#include "stats/metrics.h"
#include "util/bytes.h"
#include "wal/durable_engine.h"

namespace damkit {
namespace {

kv::EngineConfig small_config() {
  kv::EngineConfig cfg;
  cfg.btree.node_bytes = 16 * kKiB;
  cfg.btree.cache_bytes = 256 * kKiB;
  cfg.betree.node_bytes = 32 * kKiB;
  cfg.betree.cache_bytes = 256 * kKiB;
  cfg.lsm.memtable_bytes = 32 * kKiB;
  cfg.lsm.sstable_target_bytes = 64 * kKiB;
  cfg.pdam.buffer_bytes = 32 * kKiB;
  return cfg;
}

TEST(EngineKindTest, NamesRoundTrip) {
  for (const kv::EngineKind kind : kv::kAllEngineKinds) {
    const auto parsed = kv::parse_engine_kind(kv::engine_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(kv::parse_engine_kind("rope").has_value());
  EXPECT_FALSE(kv::parse_engine_kind("").has_value());
}

class DictionaryContractTest : public testing::TestWithParam<kv::EngineKind> {
};

TEST_P(DictionaryContractTest, PutGetEraseFlush) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());

  EXPECT_EQ(dict->name(), kv::engine_kind_name(GetParam()));
  for (uint64_t i = 0; i < 2000; ++i) {
    dict->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  dict->flush();
  dict->check_invariants();
  for (uint64_t i = 0; i < 2000; i += 97) {
    EXPECT_EQ(dict->get(kv::encode_key(i)), kv::make_value(i, 40)) << i;
  }
  EXPECT_FALSE(dict->get(kv::encode_key(999999)).has_value());

  dict->erase(kv::encode_key(42));
  EXPECT_FALSE(dict->get(kv::encode_key(42)).has_value());
  dict->put(kv::encode_key(42), "back");
  EXPECT_EQ(dict->get(kv::encode_key(42)), "back");

  EXPECT_GT(dict->height(), 0u);
  EXPECT_GE(dict->cache_hit_rate(), 0.0);
  EXPECT_LE(dict->cache_hit_rate(), 1.0);
}

TEST_P(DictionaryContractTest, UpsertCounterSemantics) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());

  // Absent key counts from zero; repeated deltas accumulate identically
  // whether the engine applies them natively (blind message) or emulates
  // read-modify-write — that's the Capabilities contract.
  dict->upsert("ctr", 5);
  dict->upsert("ctr", 7);
  dict->upsert("ctr", -2);
  dict->flush();
  const auto value = dict->get("ctr");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(kv::decode_counter(*value), 10u);
}

TEST_P(DictionaryContractTest, RangeScanOrderedAndLimited) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());

  dict->bulk_load(1000, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i), kv::make_value(i, 30));
  });
  const auto rows = dict->range_scan(kv::encode_key(10), 50);
  ASSERT_EQ(rows.size(), 50u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, kv::encode_key(10 + i));
    if (i > 0) EXPECT_LT(rows[i - 1].first, rows[i].first);
  }
  EXPECT_TRUE(dict->range_scan(kv::encode_key(2000), 10).empty());
}

TEST_P(DictionaryContractTest, TryTwinsSucceedOnCleanDevice) {
  // One op sequence over a bulk-loaded engine, driven through try_* and,
  // on a second same-seed engine, through the CHECKing ops. Returns the
  // final clock and the exported metrics.
  const auto drive = [](kv::EngineKind kind, bool checked) {
    sim::SsdDevice dev(sim::testbed_ssd_profile());
    sim::IoContext io(dev);
    const auto dict = kv::make_engine(kind, dev, io, small_config());
    dict->bulk_load(2000, [](uint64_t i) {
      return std::make_pair(kv::encode_key(2 * i + 1000),
                            kv::make_value(i, 40));
    });
    for (uint64_t i = 0; i < 300; ++i) {
      const std::string key = kv::encode_key(i);
      if (checked) {
        dict->put(key, kv::make_value(i, 40));
      } else {
        EXPECT_TRUE(dict->try_put(key, kv::make_value(i, 40)).ok());
      }
    }
    for (uint64_t i = 0; i < 400; ++i) {
      const std::string key = kv::encode_key(i * 7 % 5000);
      if (checked) {
        dict->upsert(key, 3);
        (void)dict->get(key);
        (void)dict->range_scan(key, 20);
      } else {
        EXPECT_TRUE(dict->try_upsert(key, 3).ok());
        EXPECT_TRUE(dict->try_get(key).ok());
        EXPECT_TRUE(dict->try_range_scan(key, 20).ok());
      }
    }
    if (checked) {
      EXPECT_EQ(dict->get(kv::encode_key(8)), kv::make_value(8, 40));
      dict->erase(kv::encode_key(8));
      EXPECT_FALSE(dict->range_scan(kv::encode_key(0), 20).empty());
      dict->flush();
    } else {
      const auto got = dict->try_get(kv::encode_key(8));
      EXPECT_TRUE(got.ok());
      EXPECT_EQ(*got, kv::make_value(8, 40));
      EXPECT_TRUE(dict->try_erase(kv::encode_key(8)).ok());
      const auto scan = dict->try_range_scan(kv::encode_key(0), 20);
      EXPECT_TRUE(scan.ok());
      EXPECT_FALSE(scan->empty());
      EXPECT_TRUE(dict->checkpoint().ok());
    }
    // Clean device: nothing to retry, nothing given up.
    EXPECT_EQ(dict->retry_counters().retries, 0u);
    EXPECT_EQ(dict->retry_counters().give_ups, 0u);
    stats::MetricsRegistry reg;
    dict->export_metrics(reg, "e.");
    return std::make_pair(io.now(), reg.to_json());
  };
  // The CHECKing ops are DAMKIT_CHECK_OK(try_*): same clock, same metrics.
  const auto [try_now, try_metrics] = drive(GetParam(), false);
  const auto [checked_now, checked_metrics] = drive(GetParam(), true);
  EXPECT_EQ(checked_now, try_now);
  EXPECT_EQ(checked_metrics, try_metrics);
}

TEST_P(DictionaryContractTest, FlushAndCheckpointMergeNothingWhenClean) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());
  // Only the PDAM engine exports buffer merges; elsewhere this reads 0.
  const auto merges = [&dict] {
    stats::MetricsRegistry reg;
    dict->export_metrics(reg, "x.");
    return reg.counter("x.buffer_merges");
  };

  dict->flush();
  EXPECT_TRUE(dict->checkpoint().ok());
  EXPECT_EQ(merges(), 0u);

  dict->bulk_load(100, [](uint64_t i) {
    return std::make_pair(kv::encode_key(i), kv::make_value(i, 30));
  });
  const uint64_t loaded = merges();
  dict->flush();
  EXPECT_TRUE(dict->checkpoint().ok());
  EXPECT_EQ(merges(), loaded);
}

TEST_P(DictionaryContractTest, MetricsExportUnderPrefix) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());
  for (uint64_t i = 0; i < 200; ++i) {
    dict->put(kv::encode_key(i), kv::make_value(i, 40));
  }
  dict->flush();

  stats::MetricsRegistry reg;
  dict->export_metrics(reg, "x.");
  // Every engine exports *something*, all of it under the caller's prefix.
  EXPECT_FALSE(reg.empty());
  reg.for_each_counter([](const std::string& name, uint64_t) {
    EXPECT_EQ(name.rfind("x.", 0), 0u) << name;
  });
  reg.for_each_gauge([](const std::string& name, double) {
    EXPECT_EQ(name.rfind("x.", 0), 0u) << name;
  });
}

TEST_P(DictionaryContractTest, CapabilitiesDescribeSingleEngine) {
  sim::SsdDevice dev(sim::testbed_ssd_profile());
  sim::IoContext io(dev);
  const auto dict = kv::make_engine(GetParam(), dev, io, small_config());
  const kv::Capabilities& caps = dict->capabilities();
  EXPECT_FALSE(caps.sharded);
  EXPECT_EQ(caps.shard_count, 1);
  if (GetParam() == kv::EngineKind::kBeTree ||
      GetParam() == kv::EngineKind::kOptBeTree) {
    EXPECT_TRUE(caps.native_upsert);
  }
  if (GetParam() == kv::EngineKind::kBTree) {
    EXPECT_FALSE(caps.native_upsert);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DictionaryContractTest,
                         testing::ValuesIn(kv::kAllEngineKinds),
                         [](const auto& info) {
                           return std::string(
                               kv::engine_kind_name(info.param)) == "opt-betree"
                                      ? std::string("opt_betree")
                                      : std::string(
                                            kv::engine_kind_name(info.param));
                         });

// ---------------------------------------------------------------------------
// One fault contract for every engine: once the device fails every IO and
// the retry policy allows a single attempt, each CHECKing op aborts. No
// engine may serve a faulted read back as data or drop a failed write.
// ---------------------------------------------------------------------------

enum class Wrap : uint8_t { kNone, kSharded, kDurable };

struct FaultCase {
  std::string name;
  kv::EngineKind kind;
  Wrap wrap;
};

void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

// Every kind bare, plus the sharded router and the WAL wrapper, each over
// the PDAM engine.
std::vector<FaultCase> fault_cases() {
  std::vector<FaultCase> cases;
  for (const kv::EngineKind kind : kv::kAllEngineKinds) {
    std::string name(kv::engine_kind_name(kind));
    std::replace(name.begin(), name.end(), '-', '_');
    cases.push_back({name, kind, Wrap::kNone});
  }
  cases.push_back({"sharded", kv::EngineKind::kPdam, Wrap::kSharded});
  cases.push_back({"durable", kv::EngineKind::kPdam, Wrap::kDurable});
  return cases;
}

std::unique_ptr<kv::Dictionary> build(const FaultCase& c, sim::Device& dev,
                                      sim::IoContext& io) {
  switch (c.wrap) {
    case Wrap::kNone:
      return kv::make_engine(c.kind, dev, io, small_config());
    case Wrap::kSharded: {
      kv::ShardedConfig sharded;
      sharded.shards = 2;
      return kv::make_sharded_engine(c.kind, dev, io, small_config(), sharded);
    }
    case Wrap::kDurable:
      return wal::make_durable(
          kv::make_engine(c.kind, dev, io, small_config()), dev, io,
          wal::default_durability_config(dev.capacity_bytes()));
  }
  return nullptr;
}

class DictionaryFaultContractTest : public testing::TestWithParam<FaultCase> {
};

TEST_P(DictionaryFaultContractTest, InfallibleOpsAbortOnDeviceErrors) {
  sim::SsdDevice inner(sim::testbed_ssd_profile());
  sim::FaultInjectingDevice dev(inner, sim::FaultConfig{});
  sim::IoContext io(dev);
  const auto dict = build(GetParam(), dev, io);
  // Load enough data that reads miss every node cache, and leave some
  // mutations dirty for flush to write back.
  constexpr uint64_t kItems = 20000;
  dict->bulk_load(kItems, [](uint64_t i) {
    return std::make_pair(kv::encode_key(2 * i), kv::make_value(i, 40));
  });
  for (uint64_t i = 0; i < 50; ++i) {
    dict->put(kv::encode_key(2 * i + 1), kv::make_value(i, 40));
  }
  dict->set_retry_policy(blockdev::RetryPolicy{.max_attempts = 1});
  // The device dies at its next IO: from here every checked read and write
  // fails, an error rate of 1.0 that starts only after the clean setup.
  dev.crash_after(0);

  // Each op sweeps the key space until one of its IOs reaches the device.
  const auto sweep = [&](const std::function<void(const std::string&)>& op) {
    for (uint64_t i = 0; i < kItems; ++i) op(kv::encode_key(i * 7919 % kItems));
  };
  constexpr char kAborted[] = "DAMKIT_CHECK failed.*device.*crashed";
  EXPECT_DEATH(sweep([&](const auto& k) { dict->put(k, "v"); }), kAborted);
  EXPECT_DEATH(sweep([&](const auto& k) { (void)dict->get(k); }), kAborted);
  EXPECT_DEATH(sweep([&](const auto& k) { dict->erase(k); }), kAborted);
  EXPECT_DEATH(sweep([&](const auto& k) { dict->upsert(k, 1); }), kAborted);
  EXPECT_DEATH(sweep([&](const auto& k) { (void)dict->range_scan(k, 9); }),
               kAborted);
  EXPECT_DEATH(dict->flush(), kAborted);

  // Nothing ran in this process since the crash was armed: power the
  // device back up so teardown can write the dirty state back.
  dev.reboot();
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DictionaryFaultContractTest,
                         testing::ValuesIn(fault_cases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace damkit
