/**
 * @file
 * Tests for walkTables(), run against each of its three page sources:
 * all of physical memory (PageTable's own walks), the monitor's PT
 * area (the hv invariant walks) and a FlatState's frame area (the
 * spec-side walks).  The same tree is built in each source through
 * raw entry writes, so the expected walks are source-independent.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ccal/flat_state.hh"
#include "ccal/specs.hh"
#include "hv/frame_alloc.hh"
#include "hv/page_table.hh"
#include "hv/phys_mem.hh"
#include "support/table_walk.hh"

namespace hev
{
namespace
{

/** Raw bits of a table link and of a terminal entry (P|W|U, P|W). */
constexpr u64 linkBits = tableEntryPresent | 0x6;
constexpr u64 leafBits = tableEntryPresent | 0x2;

hv::MemLayout
smallLayout()
{
    hv::MemLayout l;
    l.totalBytes = 16 * 1024 * 1024;
    l.ptAreaBytes = 2 * 1024 * 1024;
    l.epcBytes = 2 * 1024 * 1024;
    return l;
}

/** Tables in physical memory, walked over all of it. */
struct PhysRig
{
    /** Whether a link to outside() escapes (else it reads as zero). */
    static constexpr bool escapes = false;

    hv::PhysMem mem{smallLayout()};
    hv::FrameAllocator alloc{mem, mem.layout().ptAreaRange()};

    u64 newTable() { return alloc.alloc()->value; }
    u64 read(u64 table, u64 index) const
    {
        return mem.read(Hpa(table + index * sizeof(u64)));
    }
    void write(u64 table, u64 index, u64 raw)
    {
        mem.write(Hpa(table + index * sizeof(u64)), raw);
    }
    hv::PhysTablePages pages() const { return {mem}; }
    /** A table address the source has no page for. */
    u64 outside() const { return mem.sizeBytes(); }
};

/** The same tables, walked over the PT area only. */
struct AreaRig : PhysRig
{
    static constexpr bool escapes = true;

    hv::PhysTablePages pages() const { return {mem, &alloc}; }
    /** Normal memory: inside physical memory, outside the area. */
    u64 outside() const { return 0x5000; }
};

/** Tables in a FlatState's frame area. */
struct FlatRig
{
    static constexpr bool escapes = true;

    ccal::FlatState s;

    u64 newTable() { return ccal::spec::specFrameAlloc(s); }
    u64 read(u64 table, u64 index) const { return s.readEntry(table, index); }
    void write(u64 table, u64 index, u64 raw)
    {
        s.writeEntry(table, index, raw);
    }
    ccal::FlatTablePages pages() const { return {s}; }
    u64 outside() const { return s.geo.frameBase + s.geo.frameAreaBytes(); }
};

/** Install a terminal entry va -> pa at `level`, linking tables in. */
template <typename Rig>
void
mapAt(Rig &rig, u64 root, u64 va, u64 pa, int level)
{
    u64 table = root;
    for (int at = pagingLevels; at > level; --at) {
        const u64 index = Gva(va).tableIndex(at);
        u64 raw = rig.read(table, index);
        if (!(raw & tableEntryPresent)) {
            raw = rig.newTable() | linkBits;
            rig.write(table, index, raw);
        }
        table = raw & tableEntryAddrMask;
    }
    rig.write(table, Gva(va).tableIndex(level),
              pa | leafBits | (level > 1 ? tableEntryHuge : 0));
}

/**
 * Records every hook as one line of text: levels, entry vas and leaf
 * targets only, since table addresses differ between sources.  Stops
 * the walk at leaf number `stopAtLeaf` (1-based; 0 = never).
 */
struct Recorder : TableVisitor
{
    std::vector<std::string> events;
    u64 leaves = 0;
    u64 stopAtLeaf = 0;

    void
    note(const char *what, int level)
    {
        events.push_back(what + (" " + std::to_string(level)));
    }

    void reach(u64, int level) { note("reach", level); }

    bool
    entry(u64 va, u64 raw, int level, bool leaf)
    {
        std::ostringstream line;
        line << (leaf ? "leaf " : "link ") << level << " " << std::hex
             << va;
        if (leaf)
            line << " -> " << (raw & tableEntryAddrMask);
        events.push_back(line.str());
        return !leaf || ++leaves != stopAtLeaf;
    }

    void escape(u64, int level) { note("escape", level); }
    void leave(u64, int level) { note("leave", level); }
};

template <typename Rig>
class TableWalkTest : public ::testing::Test
{
  protected:
    Rig rig;
    u64 root = rig.newTable();

    std::vector<std::string>
    walk(Recorder recorder = {})
    {
        walkTables(rig.pages(), root, pagingLevels, recorder);
        return recorder.events;
    }
};

using Rigs = ::testing::Types<PhysRig, AreaRig, FlatRig>;
TYPED_TEST_SUITE(TableWalkTest, Rigs);

TYPED_TEST(TableWalkTest, EmptyRootIsReachedAndLeft)
{
    EXPECT_EQ(this->walk(),
              (std::vector<std::string>{"reach 4", "leave 4"}));
}

TYPED_TEST(TableWalkTest, ReconstructsVaAtEveryLevel)
{
    // A distinct index at every level, the top one the largest.
    const u64 va = (511ull << 39) | (5ull << 30) | (7ull << 21) |
                   (9ull << 12);
    mapAt(this->rig, this->root, va, 0x6000, 1);
    EXPECT_EQ(this->walk(),
              (std::vector<std::string>{
                  "reach 4", "link 4 ff8000000000", "reach 3",
                  "link 3 ff8140000000", "reach 2",
                  "link 2 ff8140e00000", "reach 1",
                  "leaf 1 ff8140e09000 -> 6000", "leave 1", "leave 2",
                  "leave 3", "leave 4"}));
}

TYPED_TEST(TableWalkTest, HugeLeavesAtLevelsTwoAndThreeEndTheirPath)
{
    mapAt(this->rig, this->root, 1ull << 30, 0x4000'0000, 3);
    mapAt(this->rig, this->root, (2ull << 30) | (3ull << 21), 0x60'0000,
          2);
    EXPECT_EQ(this->walk(),
              (std::vector<std::string>{
                  "reach 4", "link 4 0", "reach 3",
                  "leaf 3 40000000 -> 40000000", "link 3 80000000",
                  "reach 2", "leaf 2 80600000 -> 600000", "leave 2",
                  "leave 3", "leave 4"}));
}

TYPED_TEST(TableWalkTest, PreOrderAscendingWithPostOrderLeave)
{
    // Build the higher index first, so table addresses do not follow
    // index order: the walk must still go by index.
    mapAt(this->rig, this->root, 2ull << 39, 0x2000, 1);
    mapAt(this->rig, this->root, 1ull << 39, 0x1000, 1);
    EXPECT_EQ(this->walk(),
              (std::vector<std::string>{
                  "reach 4", "link 4 8000000000", "reach 3",
                  "link 3 8000000000", "reach 2", "link 2 8000000000",
                  "reach 1", "leaf 1 8000000000 -> 1000", "leave 1",
                  "leave 2", "leave 3", "link 4 10000000000", "reach 3",
                  "link 3 10000000000", "reach 2", "link 2 10000000000",
                  "reach 1", "leaf 1 10000000000 -> 2000", "leave 1",
                  "leave 2", "leave 3", "leave 4"}));
}

TYPED_TEST(TableWalkTest, VisitorStopsTheWalkMidway)
{
    for (u64 page = 1; page <= 3; ++page)
        mapAt(this->rig, this->root, page << 12, page << 16, 1);
    Recorder recorder;
    recorder.stopAtLeaf = 2;
    EXPECT_FALSE(walkTables(this->rig.pages(), this->root, pagingLevels,
                            recorder));
    // Nothing after the stopping hook runs: no third leaf, no leave.
    ASSERT_FALSE(recorder.events.empty());
    EXPECT_EQ(recorder.events.back(), "leaf 1 2000 -> 20000");
    EXPECT_EQ(recorder.leaves, 2u);
    for (const std::string &event : recorder.events)
        EXPECT_NE(event.rfind("leave", 0), 0u) << event;
}

TYPED_TEST(TableWalkTest, LinkOutOfTheSourceEscapesOrReadsZero)
{
    // Index 1 links out of the source; a leaf under index 2 follows.
    this->rig.write(this->root, 1, this->rig.outside() | linkBits);
    mapAt(this->rig, this->root, 2ull << 39, 0x3000, 1);
    const std::vector<std::string> events = this->walk();
    ASSERT_GE(events.size(), 4u);
    EXPECT_EQ(events[1], "link 4 8000000000");
    if (TypeParam::escapes) {
        EXPECT_EQ(events[2], "escape 3");
    } else {
        // Past the end of memory: a zero table, reached and left.
        EXPECT_EQ(events[2], "reach 3");
        EXPECT_EQ(events[3], "leave 3");
    }
    // A visitor that keeps walking still sees the sibling subtree.
    EXPECT_EQ(events[events.size() - 5], "leaf 1 10000000000 -> 3000");
}

TEST(TableWalkSourceTest, AbsentFrameWordsFrameIsSkipped)
{
    FlatRig rig;
    const u64 root = rig.newTable();
    const u64 child = rig.newTable();
    rig.write(root, 3, child | linkBits);
    const u64 child_frame = (child - rig.s.geo.frameBase) / pageSize;
    ASSERT_EQ(rig.s.words.frame(child_frame), nullptr);
    EXPECT_NE(rig.s.words.frame(child_frame - 1), nullptr);

    Recorder recorder;
    EXPECT_TRUE(walkTables(rig.pages(), root, pagingLevels, recorder));
    EXPECT_EQ(recorder.events,
              (std::vector<std::string>{"reach 4", "link 4 18000000000",
                                        "reach 3", "leave 3",
                                        "leave 4"}));
}

TEST(TableWalkSourceTest, OutOfPhysMemTableStillCountsAsATable)
{
    PhysRig rig;
    const u64 root = rig.newTable();
    rig.write(root, 0, rig.outside() | linkBits);
    hv::PageTable pt(rig.mem, &rig.alloc, Hpa(root));
    EXPECT_EQ(pt.tableFrameCount(), 2u);
    u64 mappings = 0;
    pt.forEachMapping([&](u64, hv::Pte, int) { ++mappings; });
    EXPECT_EQ(mappings, 0u);
    // Destroy frees the root and skips the frame it does not own.
    const u64 used = rig.alloc.usedFrames();
    ASSERT_TRUE(pt.destroy().ok());
    EXPECT_EQ(rig.alloc.usedFrames(), used - 1);
}

TEST(TableWalkSourceTest, DestroyFreesEveryTableOnce)
{
    PhysRig rig;
    const u64 used = rig.alloc.usedFrames();
    const u64 root = rig.newTable();
    mapAt(rig, root, 0x1000, 0x1000, 1);
    mapAt(rig, root, 1ull << 39, 0x2000, 1);
    mapAt(rig, root, 1ull << 30, 0x4000'0000, 3);
    hv::PageTable pt(rig.mem, &rig.alloc, Hpa(root));
    EXPECT_EQ(pt.tableFrameCount(), 7u);
    EXPECT_EQ(rig.alloc.usedFrames(), used + 7);
    ASSERT_TRUE(pt.destroy().ok());
    EXPECT_EQ(rig.alloc.usedFrames(), used);
}

} // namespace
} // namespace hev
