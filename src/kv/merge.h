// The k-way merge every engine uses to read several sorted runs as one:
// Bε-tree buffers over a leaf, LSM memtable and levels, the PDAM write
// buffer over its base run, and per-shard scan results. Newer runs shadow
// older ones, so the same key is visited once, from its newest run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "kv/slice.h"
#include "util/status.h"

namespace damkit::kv {

/// A merge visitor's answer for one key.
enum class MergeStep : uint8_t {
  kNext,  // go on to the next key
  kStop,  // stop once the cursors at this key have been advanced
};

/// Merge `cursors` (a vector or array), listed in recency order: index 0
/// is the newest run. A cursor has `bool valid() const`,
/// `std::string_view key() const` and `Status next()`; it may hold one key
/// several times in a row.
///
/// For each distinct key in ascending order the merge
///   1. picks the cursor at the smallest key, ties going to the lowest
///      index (the newest version);
///   2. calls `visit(winner)`, which returns a StatusOr<MergeStep> and may
///      read any cursor still positioned at the key (to emit the winner,
///      skip a tombstone, or fold older versions) and take values, but not
///      keys, out of them;
///   3. advances every cursor positioned at the key, in index order, while
///      it still sits on the key;
///   4. only then stops, if `visit` returned kStop.
/// Step 4 matters when advancing does device IO (an LSM level run seeking
/// into its next table): a scan that stops at a key still moves every run
/// past it, and pays for that IO.
///
/// A non-OK status from `visit` or `next()` ends the merge at once and is
/// returned. Callers handle an empty request (limit 0) before merging.
template <typename Cursors, typename Visit>
Status merge_runs(Cursors& cursors, Visit&& visit) {
  std::string key;  // the winner's key, kept while its cursor moves on
  for (;;) {
    size_t best = cursors.size();
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (!cursors[i].valid()) continue;
      if (best == cursors.size() ||
          compare(cursors[i].key(), cursors[best].key()) < 0) {
        best = i;
      }
    }
    if (best == cursors.size()) return Status();
    key.assign(cursors[best].key());
    const StatusOr<MergeStep> step = visit(best);
    if (!step.ok()) return step.status();
    for (size_t i = best; i < cursors.size(); ++i) {
      while (cursors[i].valid() && compare(cursors[i].key(), key) == 0) {
        DAMKIT_RETURN_IF_ERROR(cursors[i].next());
      }
    }
    if (*step == MergeStep::kStop) return Status();
  }
}

}  // namespace damkit::kv
