// Shared application of one generated Op against a Dictionary.
//
// Everything that applies a generated op stream — WorkloadRunner's
// sequential and concurrent runs, the crash harness, the repository
// benchmark's std::map reference — must observe byte-identical behavior
// per op: same written values, same digest mixing over read results.
// Otherwise the cross-engine differential test could not compare them.
// Factoring the op switch here makes divergence impossible by
// construction: every caller drives the same code.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "kv/dictionary.h"
#include "kv/workload.h"

namespace damkit::kv {

/// FNV-1a over `bytes` plus a field separator, accumulated into *h.
/// Seed h with kFnvOffsetBasis; identical op streams against engines that
/// return identical data yield identical digests.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
void fnv_mix(uint64_t* h, std::string_view bytes);

struct ApplyCounters {
  uint64_t puts = 0, gets = 0, erases = 0, scans = 0, upserts = 0;
  uint64_t get_hits = 0;
  uint64_t failed_ops = 0;

  /// Ops applied: each one bumps exactly one of the five type counters.
  uint64_t ops() const { return puts + gets + erases + scans + upserts; }
};

struct ApplyOptions {
  /// Every op calls its try_* method once. When set, a non-OK status is
  /// counted in ApplyCounters::failed_ops; otherwise it CHECK-aborts.
  bool fallible = false;
};

/// Reusable per-stream buffers for apply_op. The key/value encodings are
/// rebuilt for every op; routing them through a scratch keeps their string
/// capacity alive across ops so the hot generator loop does zero
/// steady-state allocations. One scratch per op stream.
struct ApplyScratch {
  std::string key;
  std::string value;
};

/// Apply `op` to `dict`. `global_index` is the op's position in the
/// generated stream — put values are make_value(key_id + global_index, ...),
/// so the index an op is *applied under* must match the index it was
/// *generated at*, or a resumed or replayed stream writes different bytes.
/// Read results are mixed into *digest; counters are bumped in *counters;
/// the key/value encodings are built in *scratch.
void apply_op(Dictionary& dict, const Op& op, uint64_t global_index,
              const WorkloadSpec& spec, const ApplyOptions& options,
              uint64_t* digest, ApplyCounters* counters,
              ApplyScratch* scratch);

}  // namespace damkit::kv
