#include <gtest/gtest.h>

#include <vector>

#include "trace.h"

namespace e2ebench {
namespace {

Span make(Stage stage, std::int32_t parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.stage = stage;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimes, NestedSpansSubtractOnlyDirectChildren) {
  // frame [0,100) > prepare [10,60) > solve [20,50)
  const std::vector<Span> spans = {make(Stage::kFrame, -1, 0, 100),
                                   make(Stage::kPrepare, 0, 10, 60),
                                   make(Stage::kSolve, 1, 20, 50)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTimes, AdjacentChildrenCoverTheirParentExactly) {
  const std::vector<Span> spans = {make(Stage::kFrame, -1, 0, 10),
                                   make(Stage::kDraw, 0, 0, 5),
                                   make(Stage::kNoise, 0, 5, 10)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 0);
  EXPECT_EQ(self[1], 5);
  EXPECT_EQ(self[2], 5);
}

TEST(SelfTimes, ZeroLengthSpansCoverNothing) {
  const std::vector<Span> spans = {make(Stage::kFrame, -1, 0, 10),
                                   make(Stage::kDraw, 0, 3, 3),
                                   make(Stage::kNoise, 0, 4, 6),
                                   make(Stage::kEncode, -1, 20, 20)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 8);
  EXPECT_EQ(self[1], 0);
  EXPECT_EQ(self[2], 2);
  EXPECT_EQ(self[3], 0);
}

TEST(SelfTimes, OverlappingChildrenCountOnceAndAreClippedToTheParent) {
  const std::vector<Span> spans = {make(Stage::kFrame, -1, 10, 50),
                                   make(Stage::kDraw, 0, 15, 30),
                                   make(Stage::kNoise, 0, 25, 35),   // overlaps draw
                                   make(Stage::kEncode, 0, 45, 70)};  // ends past parent
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 40 - 20 - 5);
}

TEST(Summarize, SumsDurationsAndSelfTimesPerStage) {
  const std::vector<Span> spans = {make(Stage::kFrame, -1, 0, 100),
                                   make(Stage::kSolve, 0, 10, 30),
                                   make(Stage::kSolve, 0, 40, 70),
                                   make(Stage::kFrame, -1, 100, 150),
                                   make(Stage::kSolve, 3, 100, 150)};
  const StageTotals t = summarize(spans);
  EXPECT_EQ(t.total(Stage::kFrame), 150);
  EXPECT_EQ(t.self(Stage::kFrame), 50);
  EXPECT_EQ(t.total(Stage::kSolve), 100);
  EXPECT_EQ(t.self(Stage::kSolve), 100);
  EXPECT_EQ(t.spans(Stage::kSolve), 3u);
  EXPECT_EQ(t.spans(Stage::kDraw), 0u);
  // Self times of all spans add up to the roots' durations.
  EXPECT_EQ(t.self(Stage::kFrame) + t.self(Stage::kSolve), t.total(Stage::kFrame));
}

TEST(Tracer, NestsSpansAndInheritsTheRootUnit) {
  Tracer tr(true);
  {
    const Scope frame(tr, Stage::kFrame, 7);
    { const Scope draw(tr, Stage::kDraw, 99); }
    { const Scope solve(tr, Stage::kSolve); }
  }
  { const Scope next(tr, Stage::kFrame, 8); }
  const std::vector<Span>& s = tr.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, -1);
  EXPECT_EQ(s[1].unit, 7u);
  EXPECT_EQ(s[2].unit, 7u);
  EXPECT_EQ(s[3].unit, 8u);
  for (const Span& span : s) EXPECT_LE(span.start_ns, span.end_ns);
  EXPECT_LE(s[0].start_ns, s[1].start_ns);
  EXPECT_LE(s[2].end_ns, s[0].end_ns);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tr(false);
  {
    const Scope frame(tr, Stage::kFrame, 1);
    const Scope draw(tr, Stage::kDraw);
  }
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({42.0}, 0.0), 42.0);
  EXPECT_EQ(percentile({42.0}, 0.99), 42.0);
  const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};  // 1..10 unsorted
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile(v, 0.5), 5.0);    // rank ceil(5) = 5
  EXPECT_EQ(percentile(v, 0.51), 6.0);   // rank ceil(5.1) = 6
  EXPECT_EQ(percentile(v, 0.9), 9.0);
  EXPECT_EQ(percentile(v, 0.99), 10.0);
  EXPECT_EQ(percentile(v, 1.0), 10.0);
  // Never above the maximum, never below the minimum.
  EXPECT_EQ(percentile(v, 2.0), 10.0);
  EXPECT_EQ(percentile(v, -1.0), 1.0);
}

TEST(Durations, SelectsOneStageInOrder) {
  const std::vector<Span> spans = {make(Stage::kTti, -1, 0, 10),
                                   make(Stage::kSchedule, 0, 1, 2),
                                   make(Stage::kTti, -1, 10, 40)};
  EXPECT_EQ(durations(spans, Stage::kTti), (std::vector<double>{10.0, 30.0}));
}

}  // namespace
}  // namespace e2ebench
