/**
 * @file
 * Dirty-bit tracking behind live migration's pre-copy rounds: write
 * walks stamp the GPT terminal entry (and the EPT entry of the slot),
 * reads do not, and a take (read and clear in one walk) always pairs
 * with a TLB flush, so a cached write-permitted translation can never
 * skip the re-stamping walk.
 */

#include <gtest/gtest.h>

#include "migrate_test_util.hh"

namespace hev::hv
{
namespace
{

using migrate::test::smallConfig;

constexpr u64 elStart = 0x10'0000;

/** Take the dirty log; the vas it returned, or {~0} on an error. */
std::vector<u64>
takeVas(Monitor &mon, EnclaveId id)
{
    auto dirty = mon.takeEnclaveDirty(id);
    if (!dirty)
        return {~0ull};
    std::vector<u64> vas;
    for (const Gva gva : *dirty)
        vas.push_back(gva.value);
    return vas;
}

TEST(DirtyTracking, LaunchIsCleanAfterClear)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 3, 1, 0xd117);
    ASSERT_TRUE(enclave);
    ASSERT_TRUE(machine.monitor().takeEnclaveDirty(enclave->id));
    EXPECT_TRUE(takeVas(machine.monitor(), enclave->id).empty());
}

TEST(DirtyTracking, StoresStampExactlyTheirPages)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 4, 1, 0xd118);
    ASSERT_TRUE(enclave);
    Monitor &mon = machine.monitor();
    ASSERT_TRUE(mon.takeEnclaveDirty(enclave->id));

    ASSERT_TRUE(
        mon.enclaveStore(enclave->id, Gva(elStart + 0x8), 1).ok());
    ASSERT_TRUE(mon.enclaveStore(enclave->id,
                                 Gva(elStart + 2 * pageSize + 0x10), 2)
                    .ok());
    // A second store to the same page adds nothing.
    ASSERT_TRUE(
        mon.enclaveStore(enclave->id, Gva(elStart + 0x20), 3).ok());

    // The take returns ascending gvas.
    EXPECT_EQ(takeVas(mon, enclave->id),
              (std::vector<u64>{elStart, elStart + 2 * pageSize}));

    // Reads never stamp.
    ASSERT_TRUE(mon.enclaveLoad(enclave->id, Gva(elStart + 0x8)).ok());
    EXPECT_TRUE(takeVas(mon, enclave->id).empty());
}

TEST(DirtyTracking, GuestWritesThroughTheWalkerStamp)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 2, 1, 0xd119);
    ASSERT_TRUE(enclave);
    Monitor &mon = machine.monitor();
    ASSERT_TRUE(mon.takeEnclaveDirty(enclave->id));

    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memStore(Gva(elStart + 0x40), 0xbeef).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());

    EXPECT_EQ(takeVas(mon, enclave->id),
              (std::vector<u64>{elStart}));
}

TEST(DirtyTracking, ClearReArmsPrimedWriters)
{
    // A write-permitted translation cached in the TLB would let the
    // next store skip the walk that re-stamps the dirty bit; the
    // take's own domain flush forces that store back through the
    // walker.
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 2, 1, 0xd11a);
    ASSERT_TRUE(enclave);
    Monitor &mon = machine.monitor();

    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    // Prime the TLB with a write-permitted entry.
    ASSERT_TRUE(machine.memStore(Gva(elStart), 1).ok());

    ASSERT_TRUE(mon.takeEnclaveDirty(enclave->id));
    ASSERT_TRUE(machine.memStore(Gva(elStart), 3).ok());
    EXPECT_EQ(takeVas(mon, enclave->id),
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

    ASSERT_TRUE(mon.takeEnclaveDirty(enclave->id));
    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memStore(Gva(elStart), 2).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
    EXPECT_EQ(takeVas(mon, enclave->id),
              (std::vector<u64>{elStart}));
}

TEST(DirtyTracking, SecondTakeWithoutStoresIsEmpty)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 3, 1, 0xd11c);
    ASSERT_TRUE(enclave);
    Monitor &mon = machine.monitor();
    ASSERT_TRUE(mon.takeEnclaveDirty(enclave->id));

    ASSERT_TRUE(
        mon.enclaveStore(enclave->id, Gva(elStart + pageSize), 5).ok());
    EXPECT_EQ(takeVas(mon, enclave->id),
              (std::vector<u64>{elStart + pageSize}));
    EXPECT_TRUE(takeVas(mon, enclave->id).empty())
        << "a take must clear what it returns";
}

TEST(DirtyTracking, TakeClearsEveryDirtyLeafEntry)
{
    // The marshalling buffer lies outside ELRANGE: the take does not
    // return it, but it still clears its dirty bit.
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 3, 1, 0xd11d);
    ASSERT_TRUE(enclave);
    Monitor &mon = machine.monitor();
    ASSERT_FALSE(enclave->elrange.contains(enclave->mbufGva));
    ASSERT_TRUE(mon.takeEnclaveDirty(enclave->id));

    ASSERT_TRUE(mon.enclaveStore(enclave->id, Gva(elStart), 1).ok());
    ASSERT_TRUE(mon.enclaveStore(enclave->id, enclave->mbufGva, 2).ok());
    const PageTable gpt(mon.mem(), nullptr,
                        mon.findEnclave(enclave->id)->gptRoot);
    const auto dirtyLeaves = [&] {
        std::vector<u64> vas;
        gpt.forEachMapping([&](u64 va, Pte entry, int level) {
            if (level == 1 && entry.dirty())
                vas.push_back(va);
        });
        return vas;
    };
    ASSERT_EQ(dirtyLeaves(),
              (std::vector<u64>{elStart, enclave->mbufGva.value}));

    EXPECT_EQ(takeVas(mon, enclave->id), (std::vector<u64>{elStart}));
    EXPECT_TRUE(dirtyLeaves().empty())
        << "the take left a dirty level-1 entry in the GPT";
}

} // namespace
} // namespace hev::hv
