#include "kv/merge.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace damkit::kv {
namespace {

// A cursor over a sorted key list. Every next() is logged as the cursor's
// id; next() fails when asked to leave position `fail_at`.
struct ListCursor {
  std::vector<std::string> keys;
  size_t id = 0;
  std::vector<size_t>* log = nullptr;
  size_t pos = 0;
  size_t fail_at = static_cast<size_t>(-1);

  bool valid() const { return pos < keys.size(); }
  std::string_view key() const { return keys[pos]; }
  Status next() {
    if (log != nullptr) log->push_back(id);
    if (pos == fail_at) return Status::unavailable("next failed");
    ++pos;
    return Status();
  }
};

std::vector<ListCursor> make_cursors(
    std::vector<std::vector<std::string>> lists,
    std::vector<size_t>* log = nullptr) {
  std::vector<ListCursor> cursors;
  for (size_t i = 0; i < lists.size(); ++i) {
    cursors.push_back({std::move(lists[i]), i, log});
  }
  return cursors;
}

// (key, winner) per visit, merging to the end.
std::vector<std::pair<std::string, size_t>> visit_all(
    std::vector<ListCursor>& cursors) {
  std::vector<std::pair<std::string, size_t>> seen;
  const Status s =
      merge_runs(cursors, [&](size_t winner) -> StatusOr<MergeStep> {
        seen.emplace_back(std::string(cursors[winner].key()), winner);
        return MergeStep::kNext;
      });
  EXPECT_TRUE(s.ok()) << s.to_string();
  return seen;
}

TEST(MergeRunsTest, TiesGoToTheNewestCursor) {
  std::vector<ListCursor> cursors =
      make_cursors({{"b", "d"}, {"a", "b", "c", "d"}, {"a", "d", "e"}});
  const std::vector<std::pair<std::string, size_t>> want = {
      {"a", 1}, {"b", 0}, {"c", 1}, {"d", 0}, {"e", 2}};
  EXPECT_EQ(visit_all(cursors), want);
  for (const ListCursor& c : cursors) EXPECT_FALSE(c.valid());
}

TEST(MergeRunsTest, DuplicateKeysInsideOneCursorAreAllSkipped) {
  std::vector<ListCursor> cursors =
      make_cursors({{"a", "a", "a", "c"}, {"a", "b", "b", "c", "c"}});
  const std::vector<std::pair<std::string, size_t>> want = {
      {"a", 0}, {"b", 1}, {"c", 0}};
  EXPECT_EQ(visit_all(cursors), want);
}

TEST(MergeRunsTest, CursorsAtTheStoppingKeyAdvanceBeforeTheStop) {
  std::vector<size_t> log;
  std::vector<ListCursor> cursors =
      make_cursors({{"b", "c"}, {"a", "b"}, {"b", "b", "d"}, {"c"}}, &log);
  std::vector<std::string> seen;
  const Status s =
      merge_runs(cursors, [&](size_t winner) -> StatusOr<MergeStep> {
        seen.emplace_back(cursors[winner].key());
        return seen.back() == "b" ? MergeStep::kStop : MergeStep::kNext;
      });
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  // "a" advanced cursor 1; "b" advanced cursors 0, 1, 2 (twice), in index
  // order, before the merge stopped. Cursor 3 never moved.
  EXPECT_EQ(log, (std::vector<size_t>{1, 0, 1, 2, 2}));
  EXPECT_EQ(cursors[0].key(), "c");
  EXPECT_FALSE(cursors[1].valid());
  EXPECT_EQ(cursors[2].key(), "d");
  EXPECT_EQ(cursors[3].pos, 0u);
}

TEST(MergeRunsTest, OnlyCursorsAtTheVisitedKeyAdvance) {
  // Cursors 0 and 1 tie on "b" before cursor 2 undercuts them with "a".
  std::vector<size_t> log;
  std::vector<ListCursor> cursors = make_cursors({{"b"}, {"b"}, {"a"}}, &log);
  const Status s = merge_runs(
      cursors, [](size_t) -> StatusOr<MergeStep> { return MergeStep::kStop; });
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(log, (std::vector<size_t>{2}));
  EXPECT_EQ(cursors[0].key(), "b");
  EXPECT_EQ(cursors[1].key(), "b");
}

TEST(MergeRunsTest, AnErrorFromNextStopsTheMergeAndIsReturned) {
  std::vector<size_t> log;
  std::vector<ListCursor> cursors = make_cursors({{"a", "c"}, {"b"}}, &log);
  cursors[1].fail_at = 0;  // leaving "b" fails
  std::vector<std::string> seen;
  const Status s =
      merge_runs(cursors, [&](size_t winner) -> StatusOr<MergeStep> {
        seen.emplace_back(cursors[winner].key());
        return MergeStep::kNext;
      });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(cursors[0].key(), "c");  // never visited
}

TEST(MergeRunsTest, AnErrorFromVisitStopsTheMergeBeforeAdvancing) {
  std::vector<size_t> log;
  std::vector<ListCursor> cursors = make_cursors({{"a", "b"}, {"b"}}, &log);
  size_t visits = 0;
  const Status s =
      merge_runs(cursors, [&](size_t winner) -> StatusOr<MergeStep> {
        ++visits;
        if (cursors[winner].key() == "b") return Status::internal("full");
        return MergeStep::kNext;
      });
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(visits, 2u);
  EXPECT_EQ(log, (std::vector<size_t>{0}));  // only "a" was stepped past
  EXPECT_EQ(cursors[0].key(), "b");
  EXPECT_EQ(cursors[1].key(), "b");
}

TEST(MergeRunsTest, ZeroCursorsAndExhaustedCursorsVisitNothing) {
  std::vector<ListCursor> none;
  EXPECT_TRUE(visit_all(none).empty());
  std::vector<ListCursor> empty = make_cursors({{}, {}, {}});
  EXPECT_TRUE(visit_all(empty).empty());
  std::vector<ListCursor> done = make_cursors({{"a"}, {"b"}});
  done[0].pos = 1;
  done[1].pos = 1;
  EXPECT_TRUE(visit_all(done).empty());
}

// Seeded differential: the merge equals a newest-wins std::map over the
// same runs, in key order.
TEST(MergeRunsTest, MatchesNewestWinsMapOnRandomRuns) {
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    const size_t runs = rng.uniform(6);
    std::vector<std::vector<std::string>> lists(runs);
    std::map<std::string, size_t> want;  // key -> newest run holding it
    for (size_t r = runs; r-- > 0;) {
      std::multiset<std::string> keys;
      const size_t n = rng.uniform(20);
      for (size_t i = 0; i < n; ++i) {
        keys.insert(std::string(1, static_cast<char>('a' + rng.uniform(16))));
      }
      lists[r].assign(keys.begin(), keys.end());
      for (const std::string& k : keys) want[k] = r;
    }
    std::vector<ListCursor> cursors = make_cursors(lists);
    const std::vector<std::pair<std::string, size_t>> expected(want.begin(),
                                                               want.end());
    EXPECT_EQ(visit_all(cursors), expected);
  }
}

}  // namespace
}  // namespace damkit::kv
