/**
 * @file
 * Unit tests for physical memory and the DMA-remap filter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "hv/phys_mem.hh"

namespace hev::hv
{
namespace
{

MemLayout
smallLayout()
{
    MemLayout layout;
    layout.totalBytes = 4 * 1024 * 1024;
    layout.ptAreaBytes = 512 * 1024;
    layout.epcBytes = 1024 * 1024;
    return layout;
}

TEST(MemLayoutTest, RegionsPartitionMemory)
{
    const MemLayout layout = smallLayout();
    ASSERT_TRUE(layout.valid());
    EXPECT_EQ(layout.normalRange().size() + layout.ptAreaRange().size() +
                  layout.epcRange().size(),
              layout.totalBytes);
    EXPECT_EQ(layout.normalRange().end, layout.ptAreaRange().start);
    EXPECT_EQ(layout.ptAreaRange().end, layout.epcRange().start);
    EXPECT_FALSE(layout.normalRange().overlaps(layout.secureRange()));
    EXPECT_TRUE(layout.secureRange().containsRange(layout.epcRange()));
    EXPECT_TRUE(layout.secureRange().containsRange(layout.ptAreaRange()));
}

TEST(MemLayoutTest, InvalidLayoutsRejected)
{
    MemLayout bad = smallLayout();
    bad.totalBytes = bad.ptAreaBytes + bad.epcBytes; // no normal memory
    EXPECT_FALSE(bad.valid());

    bad = smallLayout();
    bad.epcBytes = 0;
    EXPECT_FALSE(bad.valid());

    bad = smallLayout();
    bad.totalBytes += 7; // not page aligned
    EXPECT_FALSE(bad.valid());
}

TEST(PhysMemTest, ReadWriteRoundTrip)
{
    PhysMem mem(smallLayout());
    mem.write(Hpa(0x1000), 0xdeadbeefull);
    EXPECT_EQ(mem.read(Hpa(0x1000)), 0xdeadbeefull);
    EXPECT_EQ(mem.read(Hpa(0x1008)), 0ull);
}

TEST(PhysMemTest, ValidWordChecks)
{
    PhysMem mem(smallLayout());
    EXPECT_TRUE(mem.validWord(Hpa(0)));
    EXPECT_TRUE(mem.validWord(Hpa(mem.sizeBytes() - 8)));
    EXPECT_FALSE(mem.validWord(Hpa(mem.sizeBytes())));
    EXPECT_FALSE(mem.validWord(Hpa(4))); // misaligned
}

TEST(PhysMemTest, DmaBlockedOnSecureRegion)
{
    PhysMem mem(smallLayout());
    const Hpa secure = mem.layout().secureRange().start;

    auto read = mem.dmaRead(secure);
    EXPECT_FALSE(read.ok());
    EXPECT_EQ(read.error(), HvError::PermissionDenied);

    auto write = mem.dmaWrite(secure, 0x41);
    EXPECT_FALSE(write.ok());
    EXPECT_EQ(write.error(), HvError::PermissionDenied);
    EXPECT_EQ(mem.read(secure), 0ull) << "DMA wrote secure memory";
}

TEST(PhysMemTest, DmaAllowedOnNormalMemory)
{
    PhysMem mem(smallLayout());
    ASSERT_TRUE(mem.dmaWrite(Hpa(0x2000), 0x1234).ok());
    auto read = mem.dmaRead(Hpa(0x2000));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, 0x1234ull);
}

TEST(PhysMemTest, DmaBoundaryIsExactlySecureBase)
{
    PhysMem mem(smallLayout());
    const u64 base = mem.layout().secureBase();
    EXPECT_TRUE(mem.dmaWrite(Hpa(base - 8), 1).ok());
    EXPECT_FALSE(mem.dmaWrite(Hpa(base), 1).ok());
}

TEST(PhysMemTest, DmaInvalidAddress)
{
    PhysMem mem(smallLayout());
    EXPECT_EQ(mem.dmaRead(Hpa(mem.sizeBytes())).error(),
              HvError::InvalidParam);
    EXPECT_EQ(mem.dmaRead(Hpa(3)).error(), HvError::InvalidParam);
}

TEST(PhysMemTest, ZeroPageClearsWholePage)
{
    PhysMem mem(smallLayout());
    for (u64 off = 0; off < pageSize; off += 8)
        mem.write(Hpa(0x3000 + off), ~0ull);
    mem.zeroPage(Hpa(0x3000));
    for (u64 off = 0; off < pageSize; off += 8)
        ASSERT_EQ(mem.read(Hpa(0x3000 + off)), 0ull);
    // Neighbours untouched: write into them first, then re-check.
    mem.write(Hpa(0x2ff8), 7);
    mem.write(Hpa(0x4000), 9);
    mem.zeroPage(Hpa(0x3000));
    EXPECT_EQ(mem.read(Hpa(0x2ff8)), 7ull);
    EXPECT_EQ(mem.read(Hpa(0x4000)), 9ull);
}

TEST(PhysMemTest, CopyPageCopiesAllWords)
{
    PhysMem mem(smallLayout());
    for (u64 off = 0; off < pageSize; off += 8)
        mem.write(Hpa(0x5000 + off), off * 3 + 1);
    mem.copyPage(Hpa(0x7000), Hpa(0x5000));
    for (u64 off = 0; off < pageSize; off += 8)
        ASSERT_EQ(mem.read(Hpa(0x7000 + off)), off * 3 + 1);
}

TEST(PhysMemTest, FreshMemoryReadsZeroAfterAnEarlierOneIsGone)
{
    const MemLayout layout = smallLayout();
    constexpr u64 wordsPerPage = pageSize / sizeof(u64);
    {
        PhysMem used(layout);
        for (u64 page = 0; page < layout.totalBytes; page += pageSize)
            std::fill_n(used.pageWordsMut(Hpa(page)), wordsPerPage,
                        ~page);
    }
    const PhysMem fresh(layout);
    for (u64 page = 0; page < layout.totalBytes; page += pageSize) {
        const u64 *words = fresh.pageWords(Hpa(page));
        ASSERT_TRUE(std::all_of(words, words + wordsPerPage,
                                [](u64 word) { return word == 0; }))
            << "page " << std::hex << page;
    }
}

TEST(PhysMemTest, MoveCarriesTheContents)
{
    static_assert(!std::is_copy_constructible_v<PhysMem>);
    static_assert(std::is_nothrow_move_constructible_v<PhysMem>);
    PhysMem from(smallLayout());
    from.write(Hpa(0x1008), 42);
    const u64 *page = from.pageWords(Hpa(0x1000));
    PhysMem to(std::move(from));
    EXPECT_EQ(to.read(Hpa(0x1008)), 42ull);
    EXPECT_EQ(to.pageWords(Hpa(0x1000)), page);
}

} // namespace
} // namespace hev::hv
