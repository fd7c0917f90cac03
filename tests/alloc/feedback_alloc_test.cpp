// Receiver transport feedback must not retain state for packets that a
// report already covered: a reordered packet arriving after the report
// that listed it as lost is dropped without touching the heap. The
// counting operator new lives in warm_alloc_test.cpp for this binary.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/alloc_tracker.h"
#include "transport/feedback_builder.h"

namespace gso::transport {
namespace {

TEST(FeedbackAlloc, LateArrivalAfterReportAllocatesNothing) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  FeedbackBuilder builder;
  builder.OnPacketArrived(0, Timestamp::Millis(10));
  builder.OnPacketArrived(2, Timestamp::Millis(30));
  const auto fb = builder.Build(Ssrc(1));  // reports 1 as lost
  ASSERT_TRUE(fb.has_value());
  ASSERT_FALSE(fb->packets[1].received);

  const int64_t before = alloc::total_allocations();
  builder.OnPacketArrived(1, Timestamp::Millis(35));
  EXPECT_EQ(alloc::total_allocations() - before, 0);
  EXPECT_FALSE(builder.HasData());
}

}  // namespace
}  // namespace gso::transport
