#include "zc/mem/address_space.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

namespace zc::mem {
namespace {

constexpr std::uint64_t kPage = 2ULL << 20;

TEST(AddrRange, PageArithmetic) {
  const AddrRange r{VirtAddr{kPage}, kPage + 1};
  EXPECT_EQ(r.first_page(kPage), 1u);
  EXPECT_EQ(r.end_page(kPage), 3u);  // crosses into a second page by one byte
  EXPECT_EQ(r.page_count(kPage), 2u);
  EXPECT_TRUE(r.contains(VirtAddr{kPage}));
  EXPECT_FALSE(r.contains(r.end()));
}

TEST(AddrRange, EmptyRangeHasNoPages) {
  const AddrRange r{VirtAddr{kPage}, 0};
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.page_count(kPage), 0u);
}

TEST(AddressSpace, AllocationsDoNotOverlapAndSkipNull) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(100, MemKind::HostOs, "a");
  Allocation& b = as.allocate(kPage * 3, MemKind::DevicePool, "b");
  EXPECT_FALSE(a.base().is_null());
  EXPECT_GE(b.base() - a.base(), kPage);
  EXPECT_GE(b.base().value, a.range().end().value);
}

TEST(AddressSpace, BackingIsZeroInitializedAndWritable) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(64, MemKind::HostOs, "buf");
  for (std::byte byte : a.data()) {
    EXPECT_EQ(byte, std::byte{0});
  }
  a.data()[3] = std::byte{7};
  EXPECT_EQ(a.data()[3], std::byte{7});
}

TEST(AddressSpace, FindAndTranslate) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(1000, MemKind::HostOs, "x");
  EXPECT_EQ(as.find(a.base()), &a);
  EXPECT_EQ(as.find(a.base() + 999), &a);
  EXPECT_EQ(as.find(a.base() + 1000), nullptr);
  std::byte* p = as.translate(a.base() + 10);
  EXPECT_EQ(p, a.data().data() + 10);
}

TEST(AddressSpace, TranslateAsTyped) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(sizeof(double) * 4, MemKind::HostOs, "d");
  double* d = as.translate_as<double>(a.base());
  d[2] = 2.5;
  double out = 0;
  std::memcpy(&out, a.data().data() + 2 * sizeof(double), sizeof out);
  EXPECT_DOUBLE_EQ(out, 2.5);
}

TEST(AddressSpace, TranslateUnmappedThrows) {
  AddressSpace as{kPage};
  EXPECT_THROW((void)as.translate(VirtAddr{12345}), std::out_of_range);
  EXPECT_THROW((void)as.translate(VirtAddr::null()), std::out_of_range);
}

TEST(AddressSpace, FreeRemovesAndNeverReusesAddresses) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(100, MemKind::HostOs, "a");
  const VirtAddr base = a.base();
  as.free(base);
  EXPECT_EQ(as.find(base), nullptr);
  Allocation& b = as.allocate(100, MemKind::HostOs, "b");
  EXPECT_GT(b.base().value, base.value);  // bump allocator: fresh addresses
}

TEST(AddressSpace, FreeUnknownBaseThrows) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(100, MemKind::HostOs, "a");
  EXPECT_THROW(as.free(a.base() + 1), std::invalid_argument);
  EXPECT_THROW(as.free(VirtAddr::null()), std::invalid_argument);
}

TEST(AddressSpace, AccountingTracksLiveAndTotal) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(100, MemKind::HostOs, "a");
  (void)as.allocate(200, MemKind::HostOs, "b");
  EXPECT_EQ(as.live_allocations(), 2u);
  EXPECT_EQ(as.live_bytes(), 300u);
  EXPECT_EQ(as.total_allocated_bytes(), 300u);
  as.free(a.base());
  EXPECT_EQ(as.live_allocations(), 1u);
  EXPECT_EQ(as.live_bytes(), 200u);
  EXPECT_EQ(as.total_allocated_bytes(), 300u);
}

TEST(AddressSpace, ZeroByteAllocationRejected) {
  AddressSpace as{kPage};
  EXPECT_THROW((void)as.allocate(0, MemKind::HostOs, "z"), std::invalid_argument);
}

TEST(AddressSpace, NonPowerOfTwoPageRejected) {
  EXPECT_THROW(AddressSpace{3000}, std::invalid_argument);
  EXPECT_THROW(AddressSpace{0}, std::invalid_argument);
}

TEST(Allocation, TranslateOutsideRangeThrows) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(100, MemKind::HostOs, "a");
  EXPECT_THROW((void)a.translate(a.base() + 100), std::out_of_range);
}

TEST(Allocation, CountedTranslateChecksTheWholeExtent) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(100, MemKind::HostOs, "a");
  EXPECT_NO_THROW((void)a.translate(a.base() + 96, 4));
  EXPECT_THROW((void)a.translate(a.base() + 96, 5), std::out_of_range);
  EXPECT_THROW((void)as.translate_as<double>(a.base() + 96, 1),
               std::out_of_range);
  // 2^61 doubles is 2^64 bytes, which would wrap to zero unchecked.
  EXPECT_THROW((void)as.translate_as<double>(a.base(), 1ULL << 61),
               std::out_of_range);
  EXPECT_EQ(a.written(), (std::vector<Extent>{{96, 100}}));
}

TEST(Allocation, WrittenExtentsCoalesceAndStaySplitAcrossGaps) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(4096, MemKind::HostOs, "a");
  (void)as.translate_as<double>(a.base() + 64, 2);  // [64, 80)
  (void)as.translate_as<double>(a.base(), 1);       // [0, 8)
  (void)as.translate_as<double>(a.base() + 200, 1);  // [200, 208)
  EXPECT_EQ(a.written(),
            (std::vector<Extent>{{0, 8}, {64, 80}, {200, 208}}));
  // Touching extents merge; a write inside an extent changes nothing.
  (void)as.translate_as<double>(a.base() + 8, 1);
  (void)as.translate_as<double>(a.base() + 68, 1);
  EXPECT_EQ(a.written(),
            (std::vector<Extent>{{0, 16}, {64, 80}, {200, 208}}));
  // One write spanning two gaps swallows the extents between them.
  (void)as.translate(a.base() + 12, 192);  // [12, 204)
  EXPECT_EQ(a.written(), (std::vector<Extent>{{0, 208}}));
  // Zero bytes mark nothing.
  (void)as.translate(a.base() + 1000, 0);
  EXPECT_EQ(a.written(), (std::vector<Extent>{{0, 208}}));
}

TEST(Allocation, UncountedTranslateMarksTheTail) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(3 * kPage, MemKind::HostOs, "a");
  (void)as.translate_as<double>(a.base() + 16, 1);
  (void)as.translate(a.base() + kPage);
  EXPECT_EQ(a.written(),
            (std::vector<Extent>{{16, 24}, {kPage, 3 * kPage}}));
}

TEST(Allocation, UntouchedAllocationReadsAsZero) {
  AddressSpace as{kPage};
  Allocation& a = as.allocate(8 * kPage, MemKind::HostOs, "big");
  EXPECT_TRUE(a.written().empty());
  // Reading an extent marks it, but demand-zero pages read as zero.
  const std::uint64_t stride = kPage / 2 + 8;
  for (std::uint64_t off = 0; off + 8 <= a.bytes(); off += stride) {
    EXPECT_EQ(*as.translate_as<std::uint64_t>(a.base() + off, 1), 0u);
  }
}

TEST(AddressSpace, CopyMovesOnlyWrittenExtents) {
  AddressSpace as{kPage};
  Allocation& src = as.allocate(4 * kPage, MemKind::HostOs, "src");
  Allocation& dst = as.allocate(4 * kPage, MemKind::DevicePool, "dst");
  *as.translate_as<double>(src.base() + kPage, 1) = 1.5;
  as.copy(dst.base(), src.base(), src.bytes());
  EXPECT_EQ(dst.written(), (std::vector<Extent>{{kPage, kPage + 8}}));
  EXPECT_EQ(*as.translate_as<double>(dst.base() + kPage, 1), 1.5);
  EXPECT_THROW(as.copy(dst.base() + 1, src.base(), dst.bytes()),
               std::out_of_range);
  EXPECT_THROW(as.copy(dst.base(), VirtAddr{12345}, 8), std::out_of_range);
}

}  // namespace
}  // namespace zc::mem
