/**
 * @file
 * Dirty-bit tracking behind live migration's pre-copy rounds: write
 * walks stamp the GPT terminal entry (and the EPT entry of the slot),
 * reads do not, and clearing always pairs with a TLB flush, so a
 * cached write-permitted translation can never skip the re-stamping
 * walk.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "migrate_test_util.hh"

namespace hev::hv
{
namespace
{

using migrate::test::smallConfig;

constexpr u64 elStart = 0x10'0000;

std::vector<u64>
dirtyVas(const Monitor &mon, EnclaveId id)
{
    auto dirty = mon.enclaveDirtyPages(id);
    std::vector<u64> vas;
    if (dirty)
        for (const Gva gva : *dirty)
            vas.push_back(gva.value);
    std::sort(vas.begin(), vas.end());
    return vas;
}

TEST(DirtyTracking, LaunchIsCleanAfterClear)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 3, 1, 0xd117);
    ASSERT_TRUE(enclave);
    ASSERT_TRUE(
        machine.monitor().clearEnclaveDirty(enclave->id).ok());
    EXPECT_TRUE(dirtyVas(machine.monitor(), enclave->id).empty());
}

TEST(DirtyTracking, StoresStampExactlyTheirPages)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 4, 1, 0xd118);
    ASSERT_TRUE(enclave);
    Monitor &mon = machine.monitor();
    ASSERT_TRUE(mon.clearEnclaveDirty(enclave->id).ok());

    ASSERT_TRUE(
        mon.enclaveStore(enclave->id, Gva(elStart + 0x8), 1).ok());
    ASSERT_TRUE(mon.enclaveStore(enclave->id,
                                 Gva(elStart + 2 * pageSize + 0x10), 2)
                    .ok());
    // A second store to the same page adds nothing.
    ASSERT_TRUE(
        mon.enclaveStore(enclave->id, Gva(elStart + 0x20), 3).ok());

    EXPECT_EQ(dirtyVas(mon, enclave->id),
              (std::vector<u64>{elStart, elStart + 2 * pageSize}));

    // Reads never stamp.
    ASSERT_TRUE(mon.clearEnclaveDirty(enclave->id).ok());
    ASSERT_TRUE(mon.enclaveLoad(enclave->id, Gva(elStart + 0x8)).ok());
    EXPECT_TRUE(dirtyVas(mon, enclave->id).empty());
}

TEST(DirtyTracking, GuestWritesThroughTheWalkerStamp)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 2, 1, 0xd119);
    ASSERT_TRUE(enclave);
    Monitor &mon = machine.monitor();
    ASSERT_TRUE(mon.clearEnclaveDirty(enclave->id).ok());

    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memStore(Gva(elStart + 0x40), 0xbeef).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());

    EXPECT_EQ(dirtyVas(mon, enclave->id),
              (std::vector<u64>{elStart}));
}

TEST(DirtyTracking, ClearReArmsPrimedWriters)
{
    // A write-permitted translation cached in the TLB would let the
    // next store skip the walk that re-stamps the dirty bit; the
    // clear's own domain flush forces that store back through the
    // walker.
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 2, 1, 0xd11a);
    ASSERT_TRUE(enclave);
    Monitor &mon = machine.monitor();

    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    // Prime the TLB with a write-permitted entry.
    ASSERT_TRUE(machine.memStore(Gva(elStart), 1).ok());

    ASSERT_TRUE(mon.clearEnclaveDirty(enclave->id).ok());
    ASSERT_TRUE(machine.memStore(Gva(elStart), 3).ok());
    EXPECT_EQ(dirtyVas(mon, enclave->id),
              (std::vector<u64>{elStart}));
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
}

TEST(DirtyTracking, SnapshotFlushLeavesTrackingArmed)
{
    // A snapshot needs a quiesced enclave, and the exit before it
    // already flushed the domain, so post-snapshot writes to a forked
    // source walk — and land in the dirty set the next migration round
    // reads.
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 2, 1, 0xd11b);
    ASSERT_TRUE(enclave);
    Monitor &mon = machine.monitor();

    // Prime a cached write-permitted translation, then snapshot.
    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memStore(Gva(elStart), 1).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
    ASSERT_TRUE(
        mon.hcEnclaveSnapshot(enclave->id, SnapshotMode::Fork));
    EXPECT_EQ(mon.tlb().countDomain(enclave->id), 0u);

    ASSERT_TRUE(mon.clearEnclaveDirty(enclave->id).ok());
    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memStore(Gva(elStart), 2).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
    EXPECT_EQ(dirtyVas(mon, enclave->id),
              (std::vector<u64>{elStart}));
}

} // namespace
} // namespace hev::hv
