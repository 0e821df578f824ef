/**
 * @file
 * The runtime lock-order witness (src/smp/lock_witness.hh): the
 * thread-local rank stack, the violation panic, and — in
 * HEV_LOCK_WITNESS builds — the hooks inside SmpMonitor's own lock
 * guards, driven through the deliberately-backwards debug helper.
 *
 * The witness machinery is always compiled, so most of this suite runs
 * in every build; only the monitor-integration death test needs
 * -DHEV_LOCK_WITNESS=ON (tools/analyze_smoke.sh builds that
 * configuration).
 */

#include <gtest/gtest.h>

#include "smp/lock_witness.hh"
#include "smp/smp_monitor.hh"
#include "smp_test_util.hh"

namespace hev::smp
{
namespace
{

class LockWitnessTest : public ::testing::Test
{
  protected:
    void SetUp() override { LockWitness::reset(); }
    void TearDown() override { LockWitness::reset(); }
};

TEST_F(LockWitnessTest, InOrderChainIsAccepted)
{
    LockWitness::acquire(LockRank::Structural);
    LockWitness::acquire(LockRank::Enclave);
    LockWitness::acquire(LockRank::OsPt);
    LockWitness::acquire(LockRank::Shootdown);
    EXPECT_EQ(LockWitness::heldCount(), 4u);
    LockWitness::release(LockRank::Shootdown);
    LockWitness::release(LockRank::OsPt);
    LockWitness::release(LockRank::Enclave);
    LockWitness::release(LockRank::Structural);
    EXPECT_EQ(LockWitness::heldCount(), 0u);
}

TEST_F(LockWitnessTest, ReleaseInAnyOrderIsAccepted)
{
    // The hierarchy constrains acquisition only; scoped guards may
    // unwind in whatever order the scopes close.
    LockWitness::acquire(LockRank::Structural);
    LockWitness::acquire(LockRank::Shootdown);
    LockWitness::release(LockRank::Structural);
    LockWitness::release(LockRank::Shootdown);
    EXPECT_EQ(LockWitness::heldCount(), 0u);
}

TEST_F(LockWitnessTest, SkippingTiersIsAccepted)
{
    // Ranks must increase, not be contiguous: shootdown() takes
    // shootdownLock while holding nothing at all.
    LockWitness::acquire(LockRank::Shootdown);
    LockWitness::acquire(LockRank::InFlightPages);
    LockWitness::release(LockRank::InFlightPages);
    LockWitness::release(LockRank::Shootdown);
    EXPECT_EQ(LockWitness::heldCount(), 0u);
}

TEST_F(LockWitnessTest, WitnessScopePairsAcquireAndRelease)
{
    {
        WitnessScope outer(LockRank::Structural);
        WitnessScope inner(LockRank::Mailbox);
        EXPECT_EQ(LockWitness::heldCount(), 2u);
    }
    EXPECT_EQ(LockWitness::heldCount(), 0u);
}

TEST_F(LockWitnessTest, EveryRankHasAName)
{
    for (u32 r = 0; r < lockRankCount; ++r)
        EXPECT_STRNE(lockRankName(LockRank(r)), "unknown");
}

using LockWitnessDeathTest = LockWitnessTest;

TEST_F(LockWitnessDeathTest, InvertedAcquisitionPanicsNamingBothLocks)
{
    LockWitness::acquire(LockRank::Shootdown);
    // The panic must name the lock being acquired *and* the held lock
    // that outranks it — a bare abort would leave the hierarchy hunt
    // to a debugger — and then the whole HEV_SMP_LOCKS order.
    EXPECT_DEATH(LockWitness::acquire(LockRank::Structural),
                 "lock-order violation: acquiring structuralLock while "
                 "holding shootdownLock; the hierarchy is structuralLock "
                 "-> enclaveLocksTableLock -> .* -> inFlightPagesLock");
}

TEST_F(LockWitnessDeathTest, SameRankReacquisitionPanics)
{
    // Equal ranks mean two locks of the same tier nested — the
    // hierarchy forbids that too (self-deadlock on the same mutex).
    LockWitness::acquire(LockRank::Enclave);
    EXPECT_DEATH(LockWitness::acquire(LockRank::Enclave),
                 "lock-order violation");
}

TEST_F(LockWitnessDeathTest, UnheldReleasePanics)
{
    EXPECT_DEATH(LockWitness::release(LockRank::OsPt),
                 "does not hold");
}

#if HEV_LOCK_WITNESS
TEST_F(LockWitnessDeathTest, MonitorGuardsCarryTheHooks)
{
    // End to end through SmpMonitor's own guards: the debug helper
    // acquires osPt before structural, against the hierarchy, and the
    // hooks compiled into the guards must catch it.  Only buildable
    // with -DHEV_LOCK_WITNESS=ON; the plain-build suites above prove
    // the machinery, this proves the wiring.
    SmpMonitor smp(test::smallConfig(1));
    EXPECT_DEATH(smp.debugAcquireOutOfOrder(0),
                 "lock-order violation: acquiring structuralLock while "
                 "holding osPtLock");
}

TEST_F(LockWitnessTest, MonitorHypercallsSatisfyTheWitness)
{
    // A full enclave lifecycle with shootdowns: every guard the
    // monitor takes runs through the witness hooks, so any hierarchy
    // slip in the implementation panics this test.
    SmpMonitor smp(test::smallConfig(2));
    test::installServiceAllDriver(smp);
    auto id = test::makeMultiTcsEnclave(smp, 0, 0x10'0000, 2, 1);
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(smp.hcEnclaveEnter(0, *id).ok());
    ASSERT_TRUE(smp.hcEnclaveExit(0).ok());
    ASSERT_TRUE(smp.hcEnclaveRemove(0, *id).ok());
    EXPECT_EQ(LockWitness::heldCount(), 0u);
}
#endif

} // namespace
} // namespace hev::smp
