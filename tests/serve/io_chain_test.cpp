// build_io_chain: recover an op's stage structure from its trace records.
// Records sharing a submission time are one stage (a batch); a later
// submission time starts a dependent stage.
#include "serve/io_chain.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/trace.h"

namespace damkit::serve {
namespace {

sim::TraceRecord rec(uint64_t offset, sim::SimTime submit, sim::SimTime start,
                     sim::SimTime finish) {
  sim::TraceRecord r;
  r.kind = sim::IoKind::kRead;
  r.offset = offset;
  r.length = 4096;
  r.submit = submit;
  r.start = start;
  r.finish = finish;
  return r;
}

TEST(IoChainTest, EmptySliceYieldsEmptyChain) {
  const std::vector<sim::TraceRecord> records;
  const OpIoChain chain = build_io_chain(records);
  EXPECT_TRUE(chain.stages.empty());
  EXPECT_EQ(chain.io_count(), 0u);
}

TEST(IoChainTest, SequentialSubmissionsBecomeSeparateStages) {
  // A three-level root-to-leaf walk: each IO submitted after the previous
  // one finished.
  const std::vector<sim::TraceRecord> records = {
      rec(0, 0, 0, 100),
      rec(4096, 100, 100, 250),
      rec(8192, 250, 250, 400),
  };
  const OpIoChain chain = build_io_chain(records);
  ASSERT_EQ(chain.stages.size(), 3u);
  for (const IoStage& stage : chain.stages) {
    EXPECT_EQ(stage.ios.size(), 1u);
  }
  EXPECT_EQ(chain.stages[1].ios[0].offset, 4096u);
  EXPECT_EQ(chain.io_count(), 3u);
}

TEST(IoChainTest, SharedSubmitTimeFormsOneStage) {
  // A batch of three at t=500, then one dependent IO at the batch finish.
  const std::vector<sim::TraceRecord> records = {
      rec(0, 500, 500, 620),
      rec(4096, 500, 500, 640),
      rec(8192, 500, 560, 700),
      rec(12288, 700, 700, 820),
  };
  const OpIoChain chain = build_io_chain(records);
  ASSERT_EQ(chain.stages.size(), 2u);
  EXPECT_EQ(chain.stages[0].ios.size(), 3u);
  EXPECT_EQ(chain.stages[1].ios.size(), 1u);
  EXPECT_EQ(chain.io_count(), 4u);
}

TEST(IoChainTest, SliceBoundsSelectOneOpsRecords) {
  // Two ops back to back through one trace, cleared between them as the
  // data phase does: the second op's chain must not see the first op's
  // records even though their submit times differ.
  sim::IoTrace trace;
  const auto record = [&trace](uint64_t offset, sim::SimTime submit,
                               sim::SimTime finish) {
    trace.record({sim::IoKind::kRead, offset, 4096}, {submit, finish},
                 submit);
  };
  record(0, 0, 100);
  record(4096, 100, 200);  // op 0 ends here
  EXPECT_EQ(build_io_chain(trace.records()).stages.size(), 2u);
  trace.clear();
  record(8192, 200, 300);  // op 1
  record(12288, 300, 400);
  const OpIoChain chain = build_io_chain(trace.records());
  ASSERT_EQ(chain.stages.size(), 2u);
  EXPECT_EQ(chain.stages[0].ios[0].offset, 8192u);
  EXPECT_EQ(chain.stages[1].ios[0].offset, 12288u);
}

}  // namespace
}  // namespace damkit::serve
