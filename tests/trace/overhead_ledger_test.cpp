#include "zc/trace/overhead_ledger.hpp"

#include <gtest/gtest.h>

namespace zc::trace {
namespace {

using namespace zc::sim::literals;

TEST(OverheadLedger, BucketsAccumulateSeparately) {
  OverheadLedger l;
  l.add_alloc(10_us);
  l.add_copy(20_us);
  l.add_prefault(5_us);
  l.add_first_touch(100_us);
  EXPECT_EQ(l.mm(), 35_us);
  EXPECT_EQ(l.mm_alloc(), 10_us);
  EXPECT_EQ(l.mm_copy(), 20_us);
  EXPECT_EQ(l.mm_prefault(), 5_us);
  EXPECT_EQ(l.mi(), 100_us);
  EXPECT_EQ(l.prefault_calls(), 1u);
}

TEST(OverheadLedger, PrefaultCountsIntoMmLikeTableIII) {
  // Table III reports Eager Maps' prefault cost under MM.
  OverheadLedger l;
  l.add_prefault(7_us);
  EXPECT_EQ(l.mm(), 7_us);
  EXPECT_EQ(l.mi(), sim::Duration::zero());
}

TEST(OverheadLedger, ResetZeroes) {
  OverheadLedger l;
  l.add_copy(20_us);
  l.add_first_touch(1_us);
  l.reset();
  EXPECT_EQ(l.mm(), sim::Duration::zero());
  EXPECT_EQ(l.mi(), sim::Duration::zero());
}

TEST(OrderOfMagnitude, MatchesTableIIINotation) {
  EXPECT_STREQ(order_of_magnitude_us(sim::Duration::zero()), "O(0)");
  EXPECT_STREQ(order_of_magnitude_us(sim::Duration::from_us(0.5)), "O(0)");
  EXPECT_STREQ(order_of_magnitude_us(1_us), "O(10^0)");
  EXPECT_STREQ(order_of_magnitude_us(42_us), "O(10^1)");
  EXPECT_STREQ(order_of_magnitude_us(999_us), "O(10^2)");
  EXPECT_STREQ(order_of_magnitude_us(sim::Duration::milliseconds(400)),
               "O(10^5)");
  EXPECT_STREQ(order_of_magnitude_us(3_s), "O(10^6)");
}

}  // namespace
}  // namespace zc::trace
