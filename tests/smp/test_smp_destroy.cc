/**
 * @file
 * SMP destroy semantics: hcEnclaveRemove must be rejected while *any*
 * vCPU is executing inside the enclave — not merely the calling one —
 * and must retire the domain everywhere once it does run.
 */

#include <gtest/gtest.h>

#include "smp/smp_invariants.hh"
#include "smp/smp_monitor.hh"
#include "smp_test_util.hh"

using namespace hev;
using namespace hev::smp;
using namespace hev::smp::test;

TEST(SmpDestroy, RejectedWhileSiblingVcpuResident)
{
    SmpMonitor smp(smallConfig(3));
    installServiceAllDriver(smp);
    const auto handle = smp.machine().setupEnclave(0x10'0000, 2, 1, 0x9a);
    ASSERT_TRUE(handle);

    // vCPU 1 is inside; vCPU 0 (in normal mode) must not be able to
    // rip the enclave out from under it.
    ASSERT_TRUE(smp.hcEnclaveEnter(1, handle->id));
    const auto st = smp.hcEnclaveRemove(0, handle->id);
    ASSERT_FALSE(st);
    EXPECT_EQ(st.error(), HvError::BadEnclaveState);
    EXPECT_NE(smp.monitor().findEnclave(handle->id), nullptr);

    // The resident vCPU keeps working after the bounced destroy.
    const auto load = smp.memLoad(1, Gva(0x10'0000));
    ASSERT_TRUE(load);
    EXPECT_EQ(*load, 0x9au);

    // Once the sibling exits, destroy succeeds.
    ASSERT_TRUE(smp.hcEnclaveExit(1));
    ASSERT_TRUE(smp.hcEnclaveRemove(0, handle->id));
    EXPECT_EQ(smp.monitor().findEnclave(handle->id), nullptr);
    EXPECT_EQ(smp.stats().destroys.load(), 1u);
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(SmpDestroy, RejectedWhileCallerResident)
{
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    const auto handle = smp.machine().setupEnclave(0x10'0000, 1, 1, 7);
    ASSERT_TRUE(handle);

    ASSERT_TRUE(smp.hcEnclaveEnter(0, handle->id));
    const auto st = smp.hcEnclaveRemove(0, handle->id);
    ASSERT_FALSE(st);
    EXPECT_EQ(st.error(), HvError::BadEnclaveState);
    ASSERT_TRUE(smp.hcEnclaveExit(0));
    ASSERT_TRUE(smp.hcEnclaveRemove(0, handle->id));
}

TEST(SmpDestroy, RejectedWithAnyOfManyResidents)
{
    SmpMonitor smp(smallConfig(3));
    installServiceAllDriver(smp);
    const auto id = makeMultiTcsEnclave(smp, 0, 0x10'0000, 2, 2);
    ASSERT_TRUE(id);

    ASSERT_TRUE(smp.hcEnclaveEnter(1, *id));
    ASSERT_TRUE(smp.hcEnclaveEnter(2, *id));
    EXPECT_FALSE(smp.hcEnclaveRemove(0, *id));
    ASSERT_TRUE(smp.hcEnclaveExit(1));
    EXPECT_FALSE(smp.hcEnclaveRemove(0, *id)); // vCPU 2 still inside
    ASSERT_TRUE(smp.hcEnclaveExit(2));
    ASSERT_TRUE(smp.hcEnclaveRemove(0, *id));
}

TEST(SmpDestroy, ShootsDownTheEnclaveDomainEverywhere)
{
    SmpMonitor smp(smallConfig(3));
    installServiceAllDriver(smp);
    const auto handle = smp.machine().setupEnclave(0x10'0000, 2, 1, 0x9a);
    ASSERT_TRUE(handle);

    const u64 epochBefore = smp.shootdownEpoch();
    const u64 shootdownsBefore = smp.stats().shootdowns.load();
    ASSERT_TRUE(smp.hcEnclaveRemove(0, handle->id));
    EXPECT_EQ(smp.shootdownEpoch(), epochBefore + 1);
    EXPECT_EQ(smp.stats().shootdowns.load(), shootdownsBefore + 1);
    for (VcpuId v = 0; v < smp.vcpuCount(); ++v)
        EXPECT_EQ(smp.tlbOf(v).countDomain(hv::DomainId(handle->id)), 0u);
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(SmpDestroy, UnknownEnclaveRejected)
{
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    const auto st = smp.hcEnclaveRemove(0, EnclaveId(42));
    ASSERT_FALSE(st);
    EXPECT_EQ(st.error(), HvError::NoSuchEnclave);
}

TEST(SmpDestroy, DropsPerVcpuEnclaveContexts)
{
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    const auto first = smp.machine().setupEnclave(0x10'0000, 1, 1, 7);
    ASSERT_TRUE(first);
    ASSERT_TRUE(smp.hcEnclaveEnter(0, first->id));
    smp.archOf(0).regs.gpr[5] = 0xdead;
    ASSERT_TRUE(smp.hcEnclaveExit(0));
    ASSERT_TRUE(smp.hcEnclaveRemove(1, first->id));

    // A new enclave reusing the VA range must start from a fresh
    // context even if it happens to reuse the id.
    const auto second = smp.machine().setupEnclave(0x10'0000, 1, 1, 8);
    ASSERT_TRUE(second);
    ASSERT_TRUE(smp.hcEnclaveEnter(0, second->id));
    EXPECT_EQ(smp.archOf(0).regs.gpr[5], 0u);
    ASSERT_TRUE(smp.hcEnclaveExit(0));
}
