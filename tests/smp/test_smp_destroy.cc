/**
 * @file
 * SMP destroy semantics: hcEnclaveRemove must be rejected while *any*
 * vCPU is executing inside the enclave — not merely the calling one —
 * must retire the domain everywhere once it does run, and must leave
 * no per-enclave SMP state behind.
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

namespace
{

/** Every id-taking SMP hypercall on @p id fails with NoSuchEnclave. */
void
expectNoSuchEnclave(SmpMonitor &smp, EnclaveId id)
{
    constexpr HvError gone = HvError::NoSuchEnclave;
    const Gva page(0x10'0000);
    const Gpa src(0x4000);
    EXPECT_EQ(smp.hcEnclaveAddPage(0, id, page, src, hv::AddPageKind::Reg)
                  .error(),
              gone);
    EXPECT_EQ(smp.hcEnclaveAddPagesBatch(
                     0, id, {{page, src, hv::AddPageKind::Reg}})
                  .error(),
              gone);
    EXPECT_EQ(smp.hcEnclaveInitFinish(0, id).error(), gone);
    EXPECT_EQ(smp.hcEnclaveEnter(0, id).error(), gone);
    EXPECT_EQ(smp.hcEnclaveRemove(0, id).error(), gone);
    EXPECT_EQ(smp.hcEnclaveEvictPage(0, id, page).error(), gone);
    EXPECT_EQ(smp.hcEnclaveEvictPagesBatch(0, id, {page}).error(), gone);
    hv::SealedBlob blob;
    blob.owner = id;
    blob.gva = page;
    blob.mac = hv::sealedBlobMac(blob);
    EXPECT_EQ(smp.hcEnclaveReloadPage(0, id, blob).error(), gone);
    EXPECT_EQ(smp.hcEnclaveSnapshot(0, id, hv::SnapshotMode::Fork).error(),
              gone);
}

} // namespace

TEST(SmpDestroy, LockTableHoldsExactlyTheLiveEnclaves)
{
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    auto mbuf = smp.machine().os().allocPage();
    ASSERT_TRUE(mbuf);
    hv::EnclaveConfig config;
    config.elrange = {Gva(0x10'0000), Gva(0x10'0000 + 4 * pageSize)};
    config.mbufGva = Gva(0x10'0000 + 64 * pageSize);
    config.mbufPages = 1;
    config.mbufBacking = *mbuf;
    const auto expectTableIsLiveSet = [&] {
        EXPECT_EQ(smp.enclaveLockCount(), smp.monitor().liveEnclaves());
    };

    // Create/destroy churn must not grow the table.
    EnclaveId removed = invalidEnclave;
    for (int i = 0; i < 1000; ++i) {
        const auto id = smp.hcEnclaveInit(i % 2, config);
        ASSERT_TRUE(id);
        ASSERT_TRUE(smp.hcEnclaveRemove((i + 1) % 2, *id));
        removed = *id;
    }
    EXPECT_EQ(smp.enclaveLockCount(), 0u);
    expectTableIsLiveSet();

    // Move snapshots tear the source down like remove; the restored
    // twin is live and gets its mutex at once, like an init.
    const auto kept = makeMultiTcsEnclave(smp, 0, 0x10'0000, 2, 1);
    ASSERT_TRUE(kept);
    ASSERT_TRUE(smp.hcEnclaveSnapshot(1, *kept, hv::SnapshotMode::Fork));
    std::vector<EnclaveId> moved;
    std::vector<hv::EnclaveImage> images;
    for (int i = 0; i < 3; ++i) {
        const auto id = makeMultiTcsEnclave(smp, i % 2, 0x10'0000, 1, 1,
                                            0x100 * (i + 1));
        ASSERT_TRUE(id);
        auto image = smp.hcEnclaveSnapshot(0, *id, hv::SnapshotMode::Move);
        ASSERT_TRUE(image);
        moved.push_back(*id);
        images.push_back(*image);
        expectTableIsLiveSet();
    }
    ASSERT_TRUE(smp.hcEnclaveRestoreImage(1, images.front()));
    EXPECT_EQ(smp.monitor().liveEnclaves(), 2u);
    expectTableIsLiveSet();

    // Hypercalls on unknown ids answer exactly NoSuchEnclave and leave
    // no mutex behind: never-issued, removed and moved ids alike.
    for (const EnclaveId id : {EnclaveId(99'999), removed, moved[0],
                               moved[1], moved[2]})
        expectNoSuchEnclave(smp, id);
    expectTableIsLiveSet();
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
}
