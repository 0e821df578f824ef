/**
 * @file
 * Tests for the tree-shaped high specification: the lift from the flat
 * view, the refinement relation R, and the tree operations.
 */

#include <gtest/gtest.h>

#include "ccal/checker.hh"
#include "ccal/tree_state.hh"
#include "support/rng.hh"

namespace hev::ccal
{
namespace
{

using namespace spec;

TEST(TreeTest, EmptyTableLiftsToEmptyTree)
{
    FlatState s;
    const u64 root = makeRoot(s);
    const TreeState tree = treeFromFlat(s, root);
    EXPECT_TRUE(tree.root->entries.empty());
    EXPECT_TRUE(refinesFlat(tree, s, root));
}

TEST(TreeTest, LiftRelatesByConstruction)
{
    FlatState s;
    const u64 root = makeRoot(s);
    ASSERT_EQ(specPtMap(s, root, 0x40'0000, 0x7000, pteRwFlags), 0);
    ASSERT_EQ(specPtMap(s, root, (1ull << 39), 0x8000,
                        pteFlagP | pteFlagU), 0);
    const TreeState tree = treeFromFlat(s, root);
    EXPECT_TRUE(refinesFlat(tree, s, root));
}

TEST(TreeTest, RelationDetectsContentMismatch)
{
    FlatState s;
    const u64 root = makeRoot(s);
    ASSERT_EQ(specPtMap(s, root, 0x1000, 0x5000, pteRwFlags), 0);
    TreeState tree = treeFromFlat(s, root);
    ASSERT_TRUE(refinesFlat(tree, s, root));
    // Change the flat leaf behind the tree's back.
    const IntResult leaf = specWalkToLeaf(s, root, 0x1000, false);
    ASSERT_TRUE(leaf.isOk);
    specEntryWrite(s, leaf.value, 1, specPteMake(0x9000, pteRwFlags));
    EXPECT_FALSE(refinesFlat(tree, s, root));
}

TEST(TreeTest, RelationDetectsExtraTreeEntry)
{
    FlatState s;
    const u64 root = makeRoot(s);
    TreeState tree = treeFromFlat(s, root);
    ASSERT_EQ(treeMap(tree, 0x1000, 0x5000, pteRwFlags), 0);
    EXPECT_FALSE(refinesFlat(tree, s, root));
}

TEST(TreeTest, RelationDetectsMissingTreeEntry)
{
    FlatState s;
    const u64 root = makeRoot(s);
    ASSERT_EQ(specPtMap(s, root, 0x1000, 0x5000, pteRwFlags), 0);
    const TreeState tree = treeFromFlat(s, root);
    ASSERT_TRUE(refinesFlat(tree, s, root));
    // A second flat leaf in the same leaf table: the tree lacks it.
    ASSERT_EQ(specPtMap(s, root, 0x2000, 0x6000, pteRwFlags), 0);
    EXPECT_FALSE(refinesFlat(tree, s, root));
}

TEST(TreeTest, RelationDetectsTerminalVsLinkMismatch)
{
    FlatState s;
    const u64 root = makeRoot(s);
    ASSERT_EQ(specPtMap(s, root, 0x1000, 0x5000, pteRwFlags), 0);
    // Links and the leaf carry the same flags (pteLinkFlags ==
    // pteRwFlags), so only terminal-ness tells them apart.
    static_assert(pteLinkFlags == pteRwFlags);

    // The tree's L4 entry 0 is terminal where the flat one links.
    TreeState terminal = treeFromFlat(s, root);
    ASSERT_TRUE(refinesFlat(terminal, s, root));
    terminal.root->entries.at(0) = TreePte::makeTerminal(0, pteLinkFlags);
    EXPECT_FALSE(refinesFlat(terminal, s, root));

    // The tree's leaf for 0x1000 links a table where the flat one is
    // terminal.
    TreeState linked = treeFromFlat(s, root);
    TreeTable *table = linked.root.get();
    for (int level = pagingLevels; level > 1; --level)
        table = table->entries.at(0).child.get();
    table->entries.at(1) = TreePte::makeIntermediate(
        pteRwFlags, std::make_shared<TreeTable>());
    EXPECT_FALSE(refinesFlat(linked, s, root));
}

TEST(TreeDeathTest, LinkOutOfTheFrameAreaPanics)
{
    // Lift and R read the flat tables through the frame area only.
    FlatState s;
    const u64 root = makeRoot(s);
    specEntryWrite(s, root, 5, specPteMake(0x4000, pteLinkFlags));
    EXPECT_DEATH((void)treeFromFlat(s, root),
                 "flat state read of invalid word 0x4000");

    TreeState tree;
    tree.root->entries.emplace(
        5, TreePte::makeIntermediate(pteLinkFlags,
                                     std::make_shared<TreeTable>()));
    EXPECT_DEATH((void)refinesFlat(tree, s, root),
                 "flat state read of invalid word 0x4000");
}

TEST(TreeTest, QueryMatchesFlatQuery)
{
    FlatState s;
    const u64 root = makeRoot(s);
    Rng rng(42);
    randomPopulate(s, root, rng, 40, 8);
    const TreeState tree = treeFromFlat(s, root);
    for (int i = 0; i < 500; ++i) {
        const u64 va = randomVa(rng, 8) | (rng.below(2) * 0x8);
        ASSERT_EQ(treeQuery(tree, va), specPtQuery(s, root, va))
            << "va " << va;
    }
}

TEST(TreeTest, MapErrorsMatchFlatLogicErrors)
{
    TreeState tree;
    EXPECT_EQ(treeMap(tree, 0x123, 0x1000, pteRwFlags), errNotAligned);
    EXPECT_EQ(treeMap(tree, 0x1000, 0x123, pteRwFlags), errNotAligned);
    EXPECT_EQ(treeMap(tree, 0x1000, 0x1000, pteFlagW), errInvalidParam);
    ASSERT_EQ(treeMap(tree, 0x1000, 0x1000, pteRwFlags), 0);
    EXPECT_EQ(treeMap(tree, 0x1000, 0x2000, pteRwFlags),
              errAlreadyMapped);
}

TEST(TreeTest, UnmapMirrorsFlat)
{
    TreeState tree;
    EXPECT_EQ(treeUnmap(tree, 0x1000), errNotMapped);
    ASSERT_EQ(treeMap(tree, 0x1000, 0x5000, pteRwFlags), 0);
    EXPECT_EQ(treeUnmap(tree, 0x1001), errNotAligned);
    EXPECT_EQ(treeUnmap(tree, 0x1000), 0);
    EXPECT_FALSE(treeQuery(tree, 0x1000).isSome);
}

TEST(TreeTest, CloneIsDeep)
{
    TreeState tree;
    ASSERT_EQ(treeMap(tree, 0x1000, 0x5000, pteRwFlags), 0);
    TreeState copy = tree.clone();
    ASSERT_EQ(treeUnmap(copy, 0x1000), 0);
    EXPECT_TRUE(treeQuery(tree, 0x1000).isSome)
        << "mutating the clone changed the original";
    EXPECT_FALSE(treeQuery(copy, 0x1000).isSome);
}

TEST(TreeTest, TreesEqualStructural)
{
    TreeState a, b;
    EXPECT_TRUE(treesEqual(a, b));
    ASSERT_EQ(treeMap(a, 0x1000, 0x5000, pteRwFlags), 0);
    EXPECT_FALSE(treesEqual(a, b));
    ASSERT_EQ(treeMap(b, 0x1000, 0x5000, pteRwFlags), 0);
    EXPECT_TRUE(treesEqual(a, b));
    ASSERT_EQ(treeMap(a, 0x2000, 0x6000, pteRwFlags), 0);
    ASSERT_EQ(treeMap(b, 0x2000, 0x7000, pteRwFlags), 0);
    EXPECT_FALSE(treesEqual(a, b));
}

TEST(TreeTest, AliasingIsImpossibleByConstruction)
{
    // The paper's motivation for the tree view: in the flat view two
    // entries *could* point at the same intermediate table (the
    // shallow-copy bug); a tree's children are distinct objects.
    // Demonstrate that mutating through one VA path never affects a
    // sibling subtree's content.
    TreeState tree;
    const u64 va_a = 0x1000;               // L4 index 0
    const u64 va_b = (1ull << 39) | 0x1000; // L4 index 1
    ASSERT_EQ(treeMap(tree, va_a, 0x5000, pteRwFlags), 0);
    ASSERT_EQ(treeMap(tree, va_b, 0x6000, pteRwFlags), 0);
    ASSERT_EQ(treeUnmap(tree, va_a), 0);
    EXPECT_TRUE(treeQuery(tree, va_b).isSome);
    EXPECT_EQ(treeQuery(tree, va_b).physAddr, 0x6000ull);
}

/** Property: lift always satisfies R over random table populations. */
class TreeLiftProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(TreeLiftProperty, LiftSatisfiesR)
{
    Geometry geo;
    geo.frameCount = 128;
    FlatState s(geo);
    const u64 root = makeRoot(s);
    Rng rng(GetParam());
    randomPopulate(s, root, rng, 60, 12);
    const TreeState tree = treeFromFlat(s, root);
    EXPECT_TRUE(refinesFlat(tree, s, root));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeLiftProperty,
                         ::testing::Values(7, 8, 9, 10));

} // namespace
} // namespace hev::ccal
