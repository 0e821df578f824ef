/**
 * @file
 * The trace format: serialization round-trips, parser tolerance
 * (comments, blank lines, hex numbers, CRLF) and error reporting, plus
 * the op vocabulary: names round-trip and every op is seeded.
 */

#include <set>

#include <gtest/gtest.h>

#include "fuzz/mutate.hh"
#include "fuzz/trace.hh"
#include "support/rng.hh"

namespace hev::fuzz
{
namespace
{

TEST(FuzzTrace, KindNamesRoundTrip)
{
    for (u32 i = 0; i < opKindCount; ++i) {
        const OpKind kind = OpKind(i);
        const auto back = opKindFromName(opKindName(kind));
        ASSERT_TRUE(back.has_value()) << opKindName(kind);
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(opKindFromName("no_such_op").has_value());
}

TEST(FuzzTrace, EveryOpKindHasASeedTrace)
{
    // The corpus starts from seedTraces(); an op no seed exercises is
    // reached only by random generation, never by mutating a skeleton.
    std::set<OpKind> seen;
    for (const Trace &trace : seedTraces())
        for (const Op &op : trace.ops)
            seen.insert(op.kind);
    for (u32 i = 0; i < opKindCount; ++i)
        EXPECT_TRUE(seen.count(OpKind(i))) << opKindName(OpKind(i));
}

TEST(FuzzTrace, SerializeParseRoundTrip)
{
    Rng rng(0xf00d);
    for (int round = 0; round < 50; ++round) {
        Trace trace;
        const u64 len = rng.below(20);
        for (u64 i = 0; i < len; ++i)
            trace.ops.push_back(randomOp(rng));
        std::string error;
        const auto back = parseTrace(serializeTrace(trace), &error);
        ASSERT_TRUE(back.has_value()) << error;
        EXPECT_EQ(*back, trace);
    }
}

TEST(FuzzTrace, ParserToleratesCommentsBlanksAndHex)
{
    const std::string text = "  # leading comment\r\n"
                             "\n"
                             "hev-trace v1\r\n"
                             "# a comment\n"
                             "  op hc_init 1 0x10 2 0xFF  \n"
                             "\n"
                             "op mem_load 0 0 8 0\n";
    const auto trace = parseTrace(text);
    ASSERT_TRUE(trace.has_value());
    ASSERT_EQ(trace->ops.size(), 2u);
    EXPECT_EQ(trace->ops[0].kind, OpKind::HcInit);
    EXPECT_EQ(trace->ops[0].b, 0x10u);
    EXPECT_EQ(trace->ops[0].d, 0xFFu);
    EXPECT_EQ(trace->ops[1].kind, OpKind::MemLoad);
}

TEST(FuzzTrace, ParserRejectsBadInput)
{
    std::string error;
    EXPECT_FALSE(parseTrace("", &error).has_value());
    EXPECT_NE(error.find("header"), std::string::npos);

    EXPECT_FALSE(
        parseTrace("hev-trace v1\nop bogus 0 0 0 0\n", &error).has_value());
    EXPECT_NE(error.find("bogus"), std::string::npos);

    EXPECT_FALSE(
        parseTrace("hev-trace v1\nop hc_init 1 2 3\n", &error).has_value());
    EXPECT_NE(error.find("4 arguments"), std::string::npos);

    EXPECT_FALSE(parseTrace("hev-trace v1\nop hc_init 1 2 3 4 5\n", &error)
                     .has_value());
    EXPECT_NE(error.find("trailing"), std::string::npos);

    EXPECT_FALSE(
        parseTrace("hev-trace v1\nop hc_init 1 2 3 4x\n", &error)
            .has_value());
    EXPECT_NE(error.find("bad number"), std::string::npos);
}

TEST(FuzzTrace, FileRoundTrip)
{
    Trace trace;
    trace.ops.push_back({OpKind::HcInit, 1, 2, 3, 4});
    trace.ops.push_back({OpKind::LayerMap, 5, 6, 7, 8});
    const std::string path =
        testing::TempDir() + "/hev_fuzz_trace_roundtrip.trace";
    ASSERT_TRUE(writeTraceFile(trace, path));
    std::string error;
    const auto back = readTraceFile(path, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(*back, trace);

    EXPECT_FALSE(readTraceFile(path + ".missing", &error).has_value());
}

TEST(FuzzTrace, MutatorsRespectBounds)
{
    Rng rng(0xabcd);
    Trace base;
    for (int i = 0; i < 6; ++i)
        base.ops.push_back(randomOp(rng));
    for (int round = 0; round < 300; ++round) {
        const Trace mutated = mutateTrace(base, rng, 8);
        EXPECT_GE(mutated.ops.size(), 1u);
        EXPECT_LE(mutated.ops.size(), 8u);
        const Trace spliced = spliceTraces(base, mutated, rng, 8);
        EXPECT_GE(spliced.ops.size(), 1u);
        EXPECT_LE(spliced.ops.size(), 8u);
    }
}

TEST(FuzzTrace, MutationIsDeterministic)
{
    Trace base;
    Rng init(1);
    for (int i = 0; i < 5; ++i)
        base.ops.push_back(randomOp(init));
    Rng a(77), b(77);
    for (int round = 0; round < 50; ++round)
        EXPECT_EQ(mutateTrace(base, a, 16), mutateTrace(base, b, 16));
}

TEST(FuzzTrace, SeedTracesAreWellFormed)
{
    const auto seeds = seedTraces();
    EXPECT_GE(seeds.size(), 6u);
    for (const Trace &seed : seeds) {
        EXPECT_FALSE(seed.ops.empty());
        const auto back = parseTrace(serializeTrace(seed));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, seed);
    }
}

} // namespace
} // namespace hev::fuzz
