/**
 * @file
 * Tests for the Sec. 5.2 invariant checker: every well-formed state
 * produced through the hypercalls satisfies all families, and every
 * Fig. 5 misconfiguration is detected.
 */

#include <gtest/gtest.h>

#include "ccal/specs.hh"
#include "sec/attacks.hh"
#include "sec/invariants.hh"
#include "support/rng.hh"

namespace hev::sec
{
namespace
{

using namespace ccal;
using namespace ccal::spec;

/** Build a state with `n` initialized enclaves. */
FlatState
stateWithEnclaves(int n, std::vector<i64> &ids)
{
    FlatState s;
    for (int i = 0; i < n; ++i) {
        const u64 base = 0x10'0000 + u64(i) * 0x10'0000;
        const IntResult id = specHcInit(s, base, base + 3 * pageSize,
                                        base + 64 * pageSize, 1,
                                        0x8000 + u64(i) * 2 * pageSize);
        EXPECT_TRUE(id.isOk);
        EXPECT_EQ(specHcAddPage(s, i64(id.value), base, 0x4000,
                                epcStateReg), 0);
        EXPECT_EQ(specHcAddPage(s, i64(id.value), base + pageSize,
                                0x5000, epcStateTcs), 0);
        EXPECT_EQ(specHcInitFinish(s, i64(id.value)), 0);
        ids.push_back(i64(id.value));
    }
    return s;
}

TEST(InvariantTest, EmptyStateHolds)
{
    FlatState s;
    EXPECT_TRUE(checkInvariants(s).empty());
}

TEST(InvariantTest, WellFormedEnclavesHold)
{
    std::vector<i64> ids;
    FlatState s = stateWithEnclaves(3, ids);
    const auto violations = checkInvariants(s);
    EXPECT_TRUE(violations.empty()) << describeViolations(violations);
}

TEST(InvariantTest, HoldAcrossRandomHypercallSequences)
{
    Rng rng(0x5ec);
    for (int round = 0; round < 10; ++round) {
        FlatState s;
        std::vector<i64> ids;
        for (int step = 0; step < 60; ++step) {
            switch (rng.below(3)) {
              case 0: {
                const u64 base = rng.below(8) * 0x10'0000;
                const IntResult id = specHcInit(
                    s, base, base + rng.below(5) * pageSize,
                    rng.below(32) * 0x8'0000, rng.below(3),
                    rng.below(48) * pageSize);
                if (id.isOk)
                    ids.push_back(i64(id.value));
                break;
              }
              case 1: {
                const i64 id = ids.empty() ? 1 : ids[rng.below(ids.size())];
                (void)specHcAddPage(
                    s, id, rng.below(64) * pageSize,
                    rng.below(48) * pageSize,
                    rng.chance(1, 3) ? epcStateTcs : epcStateReg);
                break;
              }
              default: {
                const i64 id = ids.empty() ? 1 : ids[rng.below(ids.size())];
                (void)specHcInitFinish(s, id);
              }
            }
            const auto violations = checkInvariants(s);
            ASSERT_TRUE(violations.empty())
                << "round " << round << " step " << step << "\n"
                << describeViolations(violations);
        }
    }
}

TEST(InvariantTest, DetectsEpcAlias)
{
    std::vector<i64> ids;
    FlatState s = stateWithEnclaves(2, ids);
    ASSERT_TRUE(injectEpcAlias(s, ids[0], ids[1]));
    const auto violations = checkInvariants(s);
    ASSERT_FALSE(violations.empty());
    bool found = false;
    for (const Violation &v : violations) {
        if (v.invariant == "ELRANGE memory isolation")
            found = true;
    }
    EXPECT_TRUE(found) << describeViolations(violations);
}

TEST(InvariantTest, DetectsElrangeEscape)
{
    std::vector<i64> ids;
    FlatState s = stateWithEnclaves(1, ids);
    ASSERT_TRUE(injectElrangeEscape(s, ids[0], 0x10'0000, 0x6000));
    const auto violations = checkInvariants(s);
    ASSERT_FALSE(violations.empty());
    bool enclave_inv = false;
    for (const Violation &v : violations) {
        if (v.invariant == "enclave invariants" ||
            v.invariant == "marshalling buffer invariant")
            enclave_inv = true;
    }
    EXPECT_TRUE(enclave_inv) << describeViolations(violations);
}

TEST(InvariantTest, DetectsCovertMapping)
{
    std::vector<i64> ids;
    FlatState s = stateWithEnclaves(1, ids);
    // Map an extra EPC page at an ELRANGE VA without an EPCM record.
    ASSERT_TRUE(injectCovertMapping(s, ids[0], 0x10'2000));
    const auto violations = checkInvariants(s);
    ASSERT_FALSE(violations.empty());
    bool epcm = false;
    for (const Violation &v : violations) {
        if (v.invariant == "EPCM invariant")
            epcm = true;
    }
    EXPECT_TRUE(epcm) << describeViolations(violations);
}

TEST(InvariantTest, DetectsHugeMapping)
{
    std::vector<i64> ids;
    FlatState s = stateWithEnclaves(1, ids);
    ASSERT_TRUE(injectHugeMapping(s, ids[0], 0x40'0000));
    const auto violations = checkInvariants(s);
    ASSERT_FALSE(violations.empty());
    bool huge = false;
    for (const Violation &v : violations) {
        if (v.detail.find("huge") != std::string::npos)
            huge = true;
    }
    EXPECT_TRUE(huge) << describeViolations(violations);
}

TEST(InvariantTest, DetectsShallowCopyStyleEscape)
{
    std::vector<i64> ids;
    FlatState s = stateWithEnclaves(1, ids);
    // Make the enclave GPT's L4 slot point into "guest memory": an
    // address outside the monitor's frame area, as the 2022 bug did.
    const u64 root = s.rootOf(s.enclaves.at(ids[0]).gptHandle);
    specEntryWrite(s, root, 5, specPteMake(0x4000, pteLinkFlags));
    const auto violations = checkInvariants(s);
    ASSERT_FALSE(violations.empty());
    bool containment = false;
    for (const Violation &v : violations) {
        if (v.invariant == "page-table containment")
            containment = true;
    }
    EXPECT_TRUE(containment) << describeViolations(violations);
}

TEST(InvariantTest, FlatWalkStopsAtTheFirstEscape)
{
    // L4 slot 0 maps a page, slot 1 links out of the frame area, and
    // slot 3 maps another page: the walk reports the escape and visits
    // nothing after it.
    FlatState s;
    const u64 root = specFrameAlloc(s);
    ASSERT_EQ(specPtMap(s, root, 0x1000, 0x5000, pteRwFlags), 0);
    ASSERT_EQ(specPtMap(s, root, 3ull << 39, 0x7000, pteRwFlags), 0);
    specEntryWrite(s, root, 1, specPteMake(0x4000, pteLinkFlags));
    std::map<u64, u64> seen;
    EXPECT_FALSE(forEachFlatMapping(
        s, root, [&](u64 va, u64 pa, u64, int) { seen[va] = pa; }));
    EXPECT_EQ(seen, (std::map<u64, u64>{{0x1000, 0x5000}}));
}

TEST(InvariantTest, ForEachFlatMappingEnumeratesExactly)
{
    FlatState s;
    const u64 root = specFrameAlloc(s);
    ASSERT_EQ(specPtMap(s, root, 0x1000, 0x5000, pteRwFlags), 0);
    ASSERT_EQ(specPtMap(s, root, 0x3000, 0x7000, pteRwFlags), 0);
    std::map<u64, u64> seen;
    EXPECT_TRUE(forEachFlatMapping(
        s, root, [&](u64 va, u64 pa, u64, int) { seen[va] = pa; }));
    EXPECT_EQ(seen, (std::map<u64, u64>{{0x1000, 0x5000},
                                        {0x3000, 0x7000}}));
}

} // namespace
} // namespace hev::sec
