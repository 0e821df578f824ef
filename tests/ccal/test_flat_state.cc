/**
 * @file
 * Unit tests for the flat abstract state and its trusted-pointer
 * handlers (the bottom layer of the stack).
 */

#include <gtest/gtest.h>

#include "ccal/checker.hh"
#include "ccal/flat_state.hh"
#include "mirlight/interp.hh"

namespace hev::ccal
{
namespace
{

TEST(FlatStateTest, FreshStateIsZeroed)
{
    FlatState s;
    EXPECT_EQ(s.words.size(), s.geo.frameCount * entriesPerTable);
    EXPECT_EQ(s.words.framesPresent(), 0u);
    for (u64 i = 0; i < s.words.size(); ++i)
        ASSERT_EQ(s.words[i], 0ull);
    for (bool bit : s.allocated)
        ASSERT_FALSE(bit);
    for (const AbsEpcmEntry &e : s.epcm)
        ASSERT_EQ(e.state, epcStateFree);
}

TEST(FlatStateTest, FrameIsNullUntilWrittenNonzero)
{
    FlatState s;
    EXPECT_EQ(s.words.frame(2), nullptr);
    s.writeWord(s.frameAt(2) + 8, 0);
    EXPECT_EQ(s.words.frame(2), nullptr);
    s.writeWord(s.frameAt(2) + 8, 0x77);
    const u64 *words = s.words.frame(2);
    ASSERT_NE(words, nullptr);
    EXPECT_EQ(words[0], 0u);
    EXPECT_EQ(words[1], 0x77u);
    s.zeroFrame(s.frameAt(2));
    EXPECT_EQ(s.words.frame(2), nullptr);
}

TEST(FlatStateTest, WordAddressing)
{
    FlatState s;
    const u64 addr = s.geo.frameBase + 16;
    EXPECT_TRUE(s.validWord(addr));
    EXPECT_FALSE(s.validWord(addr + 1));
    EXPECT_FALSE(s.validWord(s.geo.frameBase - 8));
    EXPECT_FALSE(s.validWord(s.geo.frameBase + s.geo.frameAreaBytes()));

    s.writeWord(addr, 0xabcd);
    EXPECT_EQ(s.readWord(addr), 0xabcdull);
    EXPECT_EQ(s.readWord(addr + 8), 0ull);
}

TEST(FlatStateTest, EntryAddressing)
{
    FlatState s;
    const u64 table = s.frameAt(3);
    s.writeEntry(table, 511, 0x77);
    EXPECT_EQ(s.readEntry(table, 511), 0x77ull);
    EXPECT_EQ(s.readWord(table + 511 * 8), 0x77ull);
}

TEST(FlatStateTest, ZeroFrame)
{
    FlatState s;
    const u64 frame = s.frameAt(1);
    s.writeEntry(frame, 5, 0x1234);
    s.writeEntry(s.frameAt(2), 0, 0x99);
    s.zeroFrame(frame);
    for (u64 i = 0; i < entriesPerTable; ++i)
        ASSERT_EQ(s.readEntry(frame, i), 0ull);
    // Zeroing frees the frame's page and leaves its neighbour alone.
    EXPECT_EQ(s.words.framesPresent(), 1u);
    EXPECT_EQ(s.readEntry(s.frameAt(2), 0), 0x99ull);
}

TEST(FrameWordsTest, AbsentFrameEqualsExplicitlyZeroedOne)
{
    FrameWords absent(4), zeroed(4);
    const u64 word = 2 * entriesPerTable + 7;
    zeroed.set(word, 5);
    zeroed.set(word, 0);
    ASSERT_EQ(zeroed.framesPresent(), 1u);
    EXPECT_EQ(absent.framesPresent(), 0u);
    EXPECT_EQ(absent, zeroed);
    EXPECT_EQ(zeroed, absent);
    zeroed.set(word + 1, 3);
    EXPECT_NE(absent, zeroed);
    EXPECT_NE(zeroed, absent);
}

TEST(FrameWordsTest, CopyIsDeep)
{
    FrameWords original(4);
    original.set(entriesPerTable + 1, 11);
    FrameWords copy = original;
    EXPECT_EQ(copy, original);
    copy.set(entriesPerTable + 1, 22);
    copy.set(3 * entriesPerTable, 33);
    EXPECT_EQ(original[entriesPerTable + 1], 11ull);
    EXPECT_EQ(original[3 * entriesPerTable], 0ull);
    EXPECT_EQ(original.framesPresent(), 1u);

    FrameWords assigned(4);
    assigned.set(0, 1);
    assigned = original;
    EXPECT_EQ(assigned, original);
    EXPECT_EQ(assigned[0], 0ull);
    assigned.set(entriesPerTable + 1, 44);
    EXPECT_EQ(original[entriesPerTable + 1], 11ull);
}

TEST(FrameWordsTest, WritingZeroToAbsentFrameCreatesNothing)
{
    FrameWords words(4);
    for (u64 i = 0; i < words.size(); i += 97)
        words.set(i, 0);
    EXPECT_EQ(words.framesPresent(), 0u);
    words.set(5, 1);
    EXPECT_EQ(words.framesPresent(), 1u);
    EXPECT_EQ(words[5], 1ull);
    EXPECT_EQ(words[4], 0ull);
}

TEST(FrameWordsTest, DifferentFrameCountsDiffer)
{
    EXPECT_NE(FrameWords(3), FrameWords(4));
}

TEST(FlatStateTest, DiffStatesNamesFirstDifferingWord)
{
    FlatState a, b;
    // Frame 2 is absent in `a` and an explicit zero page in `b` up to
    // the differing word, which must not count as a difference.
    b.writeWord(b.frameAt(2), 9);
    b.writeWord(b.frameAt(2), 0);
    a.writeWord(a.frameAt(2) + 5 * sizeof(u64), 7);
    b.writeWord(b.frameAt(3), 8);
    EXPECT_EQ(diffStates(a, b), "word[1029]: 7 != 0; ");
    EXPECT_EQ(diffStates(b, a), "word[1029]: 0 != 7; ");

    a.writeWord(a.frameAt(2) + 5 * sizeof(u64), 0);
    EXPECT_EQ(diffStates(a, b), "word[1536]: 0 != 8; ");
    a.writeWord(a.frameAt(3), 8);
    EXPECT_EQ(diffStates(a, b), "");
    EXPECT_EQ(a, b);
}

TEST(FlatStateTest, EqualityIsStructural)
{
    FlatState a, b;
    EXPECT_EQ(a, b);
    b.writeWord(b.geo.frameBase, 1);
    EXPECT_NE(a, b);
}

TEST(FlatAbsStateTest, PhysWordHandler)
{
    FlatState s;
    FlatAbsState abs(s);
    const u64 addr = s.geo.frameBase + 64;
    ASSERT_TRUE(abs.trustedStore(FlatAbsState::physWordHandler, addr,
                                 mir::Value::intVal(42)).ok());
    auto loaded = abs.trustedLoad(FlatAbsState::physWordHandler, addr);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->asInt(), 42);
    EXPECT_EQ(s.readWord(addr), 42ull);
}

TEST(FlatAbsStateTest, PhysWordHandlerRejectsOutOfArea)
{
    FlatState s;
    FlatAbsState abs(s);
    auto bad = abs.trustedLoad(FlatAbsState::physWordHandler, 0x1000);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.trap().kind, mir::TrapKind::TrustedFault);
    EXPECT_FALSE(abs.trustedStore(FlatAbsState::physWordHandler, 0x1000,
                                  mir::Value::intVal(1)).ok());
}

TEST(FlatAbsStateTest, BitmapHandler)
{
    FlatState s;
    FlatAbsState abs(s);
    ASSERT_TRUE(abs.trustedStore(FlatAbsState::bitmapHandler, 7,
                                 mir::Value::intVal(1)).ok());
    EXPECT_TRUE(s.allocated[7]);
    auto loaded = abs.trustedLoad(FlatAbsState::bitmapHandler, 7);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->asInt(), 1);
    EXPECT_FALSE(
        abs.trustedLoad(FlatAbsState::bitmapHandler, 9999).ok());
}

TEST(FlatAbsStateTest, EpcmHandlerRoundTrip)
{
    FlatState s;
    FlatAbsState abs(s);
    const mir::Value entry = mir::Value::tuple(
        {mir::Value::intVal(epcStateReg), mir::Value::intVal(3),
         mir::Value::intVal(0x7000)});
    ASSERT_TRUE(
        abs.trustedStore(FlatAbsState::epcmHandler, 2, entry).ok());
    EXPECT_EQ(s.epcm[2].state, epcStateReg);
    EXPECT_EQ(s.epcm[2].owner, 3);
    EXPECT_EQ(s.epcm[2].linAddr, 0x7000ull);
    auto loaded = abs.trustedLoad(FlatAbsState::epcmHandler, 2);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, entry);
}

TEST(FlatAbsStateTest, EpcmHandlerRejectsMalformed)
{
    FlatState s;
    FlatAbsState abs(s);
    EXPECT_FALSE(abs.trustedStore(FlatAbsState::epcmHandler, 0,
                                  mir::Value::intVal(5)).ok());
    EXPECT_FALSE(abs.trustedStore(FlatAbsState::epcmHandler, 0,
                                  mir::Value::tuple(
                                      {mir::Value::intVal(1)})).ok());
}

TEST(TrustedLayerTest, PointerCastPrimitives)
{
    FlatState s;
    FlatAbsState abs(s);
    mir::Program empty;
    mir::Interp interp(empty, &abs);
    registerTrustedLayer(interp, s);

    auto ptr = interp.call("pt_ptr",
                           {mir::Value::intVal(i64(s.geo.frameBase))});
    ASSERT_TRUE(ptr.ok());
    ASSERT_TRUE(ptr->isTrustedPtr());
    EXPECT_EQ(ptr->asTrusted().handler, FlatAbsState::physWordHandler);
    EXPECT_EQ(ptr->asTrusted().meta, s.geo.frameBase);
}

TEST(TrustedLayerTest, AsRegisterAndResolve)
{
    FlatState s;
    FlatAbsState abs(s);
    mir::Program empty;
    mir::Interp interp(empty, &abs);
    registerTrustedLayer(interp, s);

    auto handle = interp.call("as_register", {mir::Value::intVal(0x5000)});
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE(handle->isRDataPtr());
    EXPECT_EQ(s.asRoots.size(), 1u);

    auto root = interp.call("as_root", {*handle});
    ASSERT_TRUE(root.ok());
    ASSERT_TRUE(mir::result::isOk(*root));
    EXPECT_EQ(mir::result::payload(*root).asInt(), 0x5000);

    // A forged foreign handle resolves to an error, not a root.
    auto foreign =
        interp.call("as_root", {mir::Value::rdataPtr(99, {1})});
    ASSERT_TRUE(foreign.ok());
    EXPECT_TRUE(mir::result::isErr(*foreign));
}

TEST(TrustedLayerTest, CopyPageTracksProvenance)
{
    FlatState s;
    FlatAbsState abs(s);
    mir::Program empty;
    mir::Interp interp(empty, &abs);
    registerTrustedLayer(interp, s);
    ASSERT_TRUE(interp.call("copy_page",
                            {mir::Value::intVal(i64(s.geo.epcBase)),
                             mir::Value::intVal(0x3000)}).ok());
    EXPECT_EQ(s.pageContents.at(s.geo.epcBase), 0x3000ull);
}

} // namespace
} // namespace hev::ccal
