/**
 * @file
 * Unit tests for the untrusted primary OS model: guest memory access is
 * mediated by the normal EPT, and guest-built page tables behave.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "hv/guest.hh"
#include "hv/monitor.hh"

namespace hev::hv
{
namespace
{

MonitorConfig
smallConfig()
{
    MonitorConfig cfg;
    cfg.layout.totalBytes = 32 * 1024 * 1024;
    cfg.layout.ptAreaBytes = 4 * 1024 * 1024;
    cfg.layout.epcBytes = 8 * 1024 * 1024;
    return cfg;
}

class GuestTest : public ::testing::Test
{
  protected:
    GuestTest() : mon(smallConfig()), os(mon) {}

    Monitor mon;
    PrimaryOs os;
};

TEST_F(GuestTest, PhysReadWriteNormalMemory)
{
    ASSERT_TRUE(os.physWrite(Gpa(0x2000), 0x1234).ok());
    auto read = os.physRead(Gpa(0x2000));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, 0x1234ull);
}

TEST_F(GuestTest, PhysAccessToSecureMemoryFaults)
{
    const u64 secure = mon.config().layout.secureBase();
    const u64 before = mon.mem().read(Hpa(secure));
    EXPECT_FALSE(os.physRead(Gpa(secure)).ok());
    EXPECT_FALSE(os.physWrite(Gpa(secure), 0x41).ok());
    EXPECT_FALSE(os.physRead(Gpa(secure + 0x10000)).ok());
    // The word itself is untouched by the blocked write.
    EXPECT_EQ(mon.mem().read(Hpa(secure)), before);
}

TEST_F(GuestTest, AllocPagesDistinctAndNeverNull)
{
    std::vector<u64> pages;
    for (int i = 0; i < 64; ++i) {
        auto page = os.allocPage();
        ASSERT_TRUE(page.ok());
        EXPECT_NE(page->value, 0ull) << "null page handed out";
        for (u64 prev : pages)
            ASSERT_NE(prev, page->value);
        pages.push_back(page->value);
    }
}

TEST_F(GuestTest, FreedPageReusable)
{
    auto page = os.allocPage();
    ASSERT_TRUE(page.ok());
    const u64 used = os.usedPages();
    ASSERT_TRUE(os.freePage(*page).ok());
    EXPECT_EQ(os.usedPages(), used - 1);
    EXPECT_FALSE(os.freePage(*page).ok()) << "double free accepted";
}

TEST_F(GuestTest, GptMapThenWalk)
{
    auto root = os.createPageTable();
    ASSERT_TRUE(root.ok());
    auto frame = os.allocPage();
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(os.gptMap(*root, 0x7000'0000, *frame,
                          PteFlags::userRw()).ok());

    // Walk via the monitor's nested translation (identity EPT).
    auto hpa = mon.translateUncached(Hpa(root->value),
                                     mon.normalEptRoot(),
                                     Gva(0x7000'0000), true);
    ASSERT_TRUE(hpa.ok());
    EXPECT_EQ(hpa->value, frame->value);
}

TEST_F(GuestTest, GptDoubleMapRejected)
{
    auto root = os.createPageTable();
    auto frame = os.allocPage();
    ASSERT_TRUE(root.ok() && frame.ok());
    ASSERT_TRUE(os.gptMap(*root, 0x1000, *frame, PteFlags::userRw()).ok());
    EXPECT_EQ(os.gptMap(*root, 0x1000, *frame,
                        PteFlags::userRw()).error(),
              HvError::AlreadyMapped);
}

TEST_F(GuestTest, GptMapRangeStopsWhereThePerPageLoopStops)
{
    // A range that starts mid-leaf and meets a mapping already present
    // in its second leaf table: gptMapRange must map the same prefix,
    // allocate the same frames and fail the same way as gptMap per page.
    Monitor twin_mon(smallConfig());
    PrimaryOs twin(twin_mon);
    const u64 base = 0x7000'0000 + 300 * pageSize;
    const u64 pages = 1000;
    const u64 clash = base + 700 * pageSize;
    const Gpa target(0x40'0000);

    auto root = os.createPageTable();
    auto twin_root = twin.createPageTable();
    ASSERT_TRUE(root.ok() && twin_root.ok());
    ASSERT_TRUE(os.gptMap(*root, clash, target, PteFlags::userRw()).ok());
    ASSERT_TRUE(
        twin.gptMap(*twin_root, clash, target, PteFlags::userRw()).ok());

    EXPECT_EQ(os.gptMapRange(*root, base, target, pages,
                             PteFlags::userRw()).error(),
              HvError::AlreadyMapped);
    u64 mapped = 0;
    Status last = okStatus();
    for (; mapped < pages; ++mapped) {
        last = twin.gptMap(*twin_root, base + mapped * pageSize,
                           target + mapped * pageSize, PteFlags::userRw());
        if (!last)
            break;
    }
    EXPECT_EQ(mapped, 700u);
    EXPECT_EQ(last.error(), HvError::AlreadyMapped);

    for (u64 page = 0; page < smallConfig().layout.totalBytes;
         page += pageSize)
        ASSERT_EQ(std::memcmp(mon.mem().pageWords(Hpa(page)),
                              twin_mon.mem().pageWords(Hpa(page)),
                              pageSize),
                  0)
            << "page " << std::hex << page;
    auto next = os.allocPage();
    auto twin_next = twin.allocPage();
    ASSERT_TRUE(next.ok() && twin_next.ok());
    EXPECT_EQ(next->value, twin_next->value);
}

TEST_F(GuestTest, GptMapRangeChecksAlignment)
{
    auto root = os.createPageTable();
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(os.gptMapRange(*root, 0x1008, Gpa(0x2000), 2,
                             PteFlags::userRw()).error(),
              HvError::NotAligned);
    EXPECT_EQ(os.gptMapRange(*root, 0x1000, Gpa(0x2008), 2,
                             PteFlags::userRw()).error(),
              HvError::NotAligned);
    EXPECT_TRUE(
        os.gptMapRange(*root, 0x1000, Gpa(0x2000), 0, PteFlags::userRw())
            .ok());
}

TEST_F(GuestTest, GptUnmapRemovesMapping)
{
    auto root = os.createPageTable();
    auto frame = os.allocPage();
    ASSERT_TRUE(root.ok() && frame.ok());
    ASSERT_TRUE(os.gptMap(*root, 0x1000, *frame, PteFlags::userRw()).ok());
    ASSERT_TRUE(os.gptUnmap(*root, 0x1000).ok());
    EXPECT_FALSE(mon.translateUncached(Hpa(root->value),
                                       mon.normalEptRoot(), Gva(0x1000),
                                       false).ok());
    EXPECT_EQ(os.gptUnmap(*root, 0x1000).error(), HvError::NotMapped);
}

TEST_F(GuestTest, RawEntryWriteWorksOnOwnTables)
{
    auto root = os.createPageTable();
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(os.writePtEntryRaw(*root, 0, 0xdead000 | 1).ok());
    auto raw = os.physRead(*root);
    ASSERT_TRUE(raw.ok());
    EXPECT_EQ(*raw, 0xdead000ull | 1);
}

TEST_F(GuestTest, RawEntryWriteCannotTouchSecureTables)
{
    // The monitor's PT frames live in the secure region; a raw write
    // aimed there must fault at the EPT.
    const Gpa secure_table(mon.config().layout.ptAreaRange().start.value);
    EXPECT_FALSE(os.writePtEntryRaw(secure_table, 0, 0x41).ok());
}

} // namespace
} // namespace hev::hv
