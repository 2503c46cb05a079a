// RunSet against a std::set<std::uint64_t> reference on seeded random
// streams of every operation, plus the edge cases its callers rely on:
// empty ranges, coalescing, splitting and the changed-count returns.

#include "zc/mem/run_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "zc/sim/rng.hpp"

namespace zc::mem {
namespace {

/// Runs of the reference set within [lo, hi), the way RunSet reports them.
std::vector<RunSet::Run> reference_runs(const std::set<std::uint64_t>& ref,
                                std::uint64_t lo, std::uint64_t hi) {
  std::vector<RunSet::Run> out;
  for (auto it = ref.lower_bound(lo); it != ref.end() && *it < hi; ++it) {
    if (!out.empty() && out.back().hi == *it) {
      ++out.back().hi;
    } else {
      out.push_back(RunSet::Run{*it, *it + 1});
    }
  }
  return out;
}

std::vector<RunSet::Run> reference_gaps(const std::set<std::uint64_t>& ref,
                                std::uint64_t lo, std::uint64_t hi) {
  std::vector<RunSet::Run> out;
  for (std::uint64_t x = lo; x < hi; ++x) {
    if (ref.contains(x)) {
      continue;
    }
    if (!out.empty() && out.back().hi == x) {
      ++out.back().hi;
    } else {
      out.push_back(RunSet::Run{x, x + 1});
    }
  }
  return out;
}

class RunSetProperty : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RunSetProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST_P(RunSetProperty, AgreesWithSetReference) {
  sim::Rng rng{GetParam()};
  RunSet set;
  std::set<std::uint64_t> ref;
  for (int op = 0; op < 2000; ++op) {
    // Empty and reversed ranges come up too: lo may exceed hi.
    const std::uint64_t lo = rng.uniform_index(300);
    const std::uint64_t len = rng.uniform_index(44);
    const std::uint64_t hi = len < 4 ? lo - std::min(lo, len) : lo + len - 4;
    std::uint64_t in_range = 0;
    for (std::uint64_t x = lo; x < hi; ++x) {
      in_range += ref.contains(x) ? 1 : 0;
    }
    switch (rng.uniform_index(7)) {
      case 0: {
        std::uint64_t added = 0;
        for (std::uint64_t x = lo; x < hi; ++x) {
          added += ref.insert(x).second ? 1 : 0;
        }
        ASSERT_EQ(set.insert(lo, hi), added);
        break;
      }
      case 1: {
        std::uint64_t removed = 0;
        for (std::uint64_t x = lo; x < hi; ++x) {
          removed += ref.erase(x);
        }
        ASSERT_EQ(set.erase(lo, hi), removed);
        break;
      }
      case 2:
        ASSERT_EQ(set.count(lo, hi), in_range);
        break;
      case 3:
        ASSERT_EQ(set.contains(lo), ref.contains(lo));
        break;
      case 4:
        ASSERT_EQ(set.covers(lo, hi), lo >= hi || in_range == hi - lo);
        ASSERT_EQ(set.overlaps(lo, hi), in_range > 0);
        break;
      case 5: {
        std::vector<RunSet::Run> runs;
        set.for_each_run(lo, hi, [&](std::uint64_t a, std::uint64_t b) {
          runs.push_back(RunSet::Run{a, b});
        });
        ASSERT_EQ(runs, reference_runs(ref, lo, hi));
        break;
      }
      case 6: {
        std::vector<RunSet::Run> gaps;
        set.for_each_gap(lo, hi, [&](std::uint64_t a, std::uint64_t b) {
          gaps.push_back(RunSet::Run{a, b});
        });
        ASSERT_EQ(gaps, reference_gaps(ref, lo, hi));
        break;
      }
    }
    ASSERT_EQ(set.size(), ref.size());
    ASSERT_EQ(set.runs(), reference_runs(ref, 0, 1000));
  }
}

TEST(RunSet, EmptyRangeIsANoOp) {
  RunSet s;
  EXPECT_EQ(s.insert(5, 5), 0u);
  EXPECT_EQ(s.insert(9, 3), 0u);
  EXPECT_TRUE(s.empty());
  ASSERT_EQ(s.insert(0, 10), 10u);
  EXPECT_EQ(s.erase(4, 4), 0u);
  EXPECT_EQ(s.count(4, 4), 0u);
  EXPECT_TRUE(s.covers(20, 20));
  EXPECT_FALSE(s.overlaps(4, 4));
  EXPECT_EQ(s.runs(), (std::vector<RunSet::Run>{{0, 10}}));
}

TEST(RunSet, TouchingRunsCoalesce) {
  RunSet s;
  (void)s.insert(0, 4);
  (void)s.insert(8, 12);
  EXPECT_EQ(s.runs(), (std::vector<RunSet::Run>{{0, 4}, {8, 12}}));
  EXPECT_EQ(s.insert(4, 8), 4u);  // fills the gap exactly
  EXPECT_EQ(s.runs(), (std::vector<RunSet::Run>{{0, 12}}));
  EXPECT_EQ(s.insert(12, 13), 1u);  // touches the end
  EXPECT_EQ(s.runs(), (std::vector<RunSet::Run>{{0, 13}}));
  EXPECT_TRUE(s.covers(0, 13));
}

TEST(RunSet, EraseInsideARunSplitsIt) {
  RunSet s;
  (void)s.insert(10, 20);
  EXPECT_EQ(s.erase(13, 15), 2u);
  EXPECT_EQ(s.runs(), (std::vector<RunSet::Run>{{10, 13}, {15, 20}}));
  EXPECT_FALSE(s.covers(10, 20));
  EXPECT_TRUE(s.overlaps(12, 14));
  EXPECT_FALSE(s.overlaps(13, 15));
}

TEST(RunSet, InsertAndEraseReturnTheValuesTheyChanged) {
  RunSet s;
  EXPECT_EQ(s.insert(0, 10), 10u);
  EXPECT_EQ(s.insert(5, 15), 5u);  // 5..9 already covered
  EXPECT_EQ(s.insert(0, 15), 0u);
  EXPECT_EQ(s.erase(10, 30), 5u);
  EXPECT_EQ(s.erase(10, 30), 0u);
  EXPECT_EQ(s.erase(0, 3), 3u);
  EXPECT_EQ(s.runs(), (std::vector<RunSet::Run>{{3, 10}}));
}

TEST(RunSet, SizeIsTheCoveredTotal) {
  RunSet s;
  (void)s.insert(0, 4);
  (void)s.insert(100, 110);
  (void)s.insert(2, 6);
  EXPECT_EQ(s.size(), 16u);
  (void)s.erase(3, 105);
  EXPECT_EQ(s.size(), 8u);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace zc::mem
