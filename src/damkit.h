// damkit — umbrella header.
//
// A library for reasoning about and exploiting refined external-memory
// models (DAM, affine, PDAM), with simulated storage devices and
// model-optimized dictionary data structures. Reproduces Bender et al.,
// "Small Refinements to the DAM Can Have Big Consequences for
// Data-Structure Design", SPAA 2019.
#pragma once

#include "betree/betree.h"             // IWYU pragma: export
#include "betree/message.h"            // IWYU pragma: export
#include "betree_opt/opt_betree.h"     // IWYU pragma: export
#include "blockdev/block_device.h"     // IWYU pragma: export
#include "btree/btree.h"               // IWYU pragma: export
#include "cache/buffer_pool.h"         // IWYU pragma: export
#include "harness/crash.h"             // IWYU pragma: export
#include "harness/experiments.h"       // IWYU pragma: export
#include "harness/fitting.h"           // IWYU pragma: export
#include "harness/parallel.h"          // IWYU pragma: export
#include "harness/report.h"            // IWYU pragma: export
#include "harness/workload_runner.h"   // IWYU pragma: export
#include "blockdev/byte_arena.h"       // IWYU pragma: export
#include "kv/codec.h"                  // IWYU pragma: export
#include "kv/dictionary.h"             // IWYU pragma: export
#include "kv/engine.h"                 // IWYU pragma: export
#include "kv/op_apply.h"               // IWYU pragma: export
#include "kv/sharded_engine.h"         // IWYU pragma: export
#include "kv/slice.h"                  // IWYU pragma: export
#include "kv/workload.h"               // IWYU pragma: export
#include "lsm/lsm_tree.h"              // IWYU pragma: export
#include "lsm/sstable.h"               // IWYU pragma: export
#include "model/affine.h"              // IWYU pragma: export
#include "model/dam.h"                 // IWYU pragma: export
#include "model/mq.h"                  // IWYU pragma: export
#include "model/optimize.h"            // IWYU pragma: export
#include "model/pdam.h"                // IWYU pragma: export
#include "model/tree_costs.h"          // IWYU pragma: export
#include "pdam_tree/pdam_btree.h"      // IWYU pragma: export
#include "pdam_tree/veb_layout.h"      // IWYU pragma: export
#include "serve/io_chain.h"            // IWYU pragma: export
#include "serve/scheduler.h"           // IWYU pragma: export
#include "sim/closed_loop.h"           // IWYU pragma: export
#include "sim/device.h"                // IWYU pragma: export
#include "sim/fault_injection.h"       // IWYU pragma: export
#include "sim/hdd.h"                   // IWYU pragma: export
#include "sim/mq_ssd.h"                // IWYU pragma: export
#include "sim/profiles.h"              // IWYU pragma: export
#include "sim/scheduler.h"             // IWYU pragma: export
#include "sim/ssd.h"                   // IWYU pragma: export
#include "sim/trace.h"                 // IWYU pragma: export
#include "stats/json.h"                // IWYU pragma: export
#include "stats/metrics.h"             // IWYU pragma: export
#include "stats/trace_buffer.h"        // IWYU pragma: export
#include "util/bloom.h"                // IWYU pragma: export
#include "util/histogram.h"            // IWYU pragma: export
#include "util/rng.h"                  // IWYU pragma: export
#include "util/stats.h"                // IWYU pragma: export
#include "util/status.h"               // IWYU pragma: export
#include "util/table.h"                // IWYU pragma: export
#include "wal/durable_engine.h"        // IWYU pragma: export
#include "wal/snapshot.h"              // IWYU pragma: export
#include "wal/wal.h"                   // IWYU pragma: export
