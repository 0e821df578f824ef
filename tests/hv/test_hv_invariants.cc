/**
 * @file
 * Tests for the concrete-monitor invariant checker: clean across the
 * whole lifecycle (including under hypercall fuzzing), and firing on
 * hand-corrupted page-table state — including the shallow-copy bug's
 * actual in-RAM footprint.
 */

#include <gtest/gtest.h>

#include "hv/hv_invariants.hh"
#include "hv/machine.hh"
#include "support/rng.hh"

namespace hev::hv
{
namespace
{

MonitorConfig
smallConfig(bool bug = false)
{
    MonitorConfig cfg;
    cfg.layout.totalBytes = 32 * 1024 * 1024;
    cfg.layout.ptAreaBytes = 4 * 1024 * 1024;
    cfg.layout.epcBytes = 8 * 1024 * 1024;
    cfg.shallowCopyBug = bug;
    return cfg;
}

TEST(HvInvariantTest, FreshMonitorHolds)
{
    Monitor mon(smallConfig());
    const auto violations = checkMonitorInvariants(mon);
    EXPECT_TRUE(violations.empty())
        << describeMonitorViolations(violations);
}

TEST(HvInvariantTest, FullLifecycleHolds)
{
    Machine machine(smallConfig());
    auto a = machine.setupEnclave(0x10'0000, 3, 2, 0xa);
    auto b = machine.setupEnclave(0x30'0000, 2, 1, 0xb);
    ASSERT_TRUE(a.ok() && b.ok());
    Monitor &mon = machine.monitor();

    auto violations = checkMonitorInvariants(mon);
    EXPECT_TRUE(violations.empty())
        << describeMonitorViolations(violations);

    ASSERT_TRUE(mon.hcEnclaveEnter(a->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memStore(Gva(0x10'0000), 1).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
    ASSERT_TRUE(mon.hcEnclaveRemove(b->id).ok());

    violations = checkMonitorInvariants(mon);
    EXPECT_TRUE(violations.empty())
        << describeMonitorViolations(violations);
}

TEST(HvInvariantTest, HoldsUnderHypercallFuzz)
{
    Machine machine(smallConfig());
    Monitor &mon = machine.monitor();
    Rng rng(0x1f2);
    std::vector<EnclaveId> created;
    for (int step = 0; step < 150; ++step) {
        switch (rng.below(5)) {
          case 0: {
            EnclaveConfig cfg;
            const u64 base = rng.below(32) * 0x10'0000;
            cfg.elrange = {Gva(base),
                           Gva(base + rng.below(6) * pageSize)};
            cfg.mbufGva = Gva(rng.below(64) * 0x10'0000);
            cfg.mbufPages = rng.below(3);
            cfg.mbufBacking = Gpa(rng.below(8192) * pageSize);
            auto id = mon.hcEnclaveInit(cfg);
            if (id.ok())
                created.push_back(*id);
            break;
          }
          case 1:
            if (!created.empty()) {
                (void)mon.hcEnclaveAddPage(
                    rng.pick(created), Gva(rng.below(1024) * pageSize),
                    Gpa(rng.below(4096) * pageSize),
                    rng.chance(1, 4) ? AddPageKind::Tcs
                                     : AddPageKind::Reg);
            }
            break;
          case 2:
            if (!created.empty())
                (void)mon.hcEnclaveInitFinish(rng.pick(created));
            break;
          case 3:
            if (!created.empty()) {
                if (mon.hcEnclaveEnter(rng.pick(created),
                                       machine.vcpu()).ok())
                    (void)mon.hcEnclaveExit(machine.vcpu());
            }
            break;
          default:
            if (!created.empty() && rng.chance(1, 4))
                (void)mon.hcEnclaveRemove(rng.pick(created));
            break;
        }
        const auto violations = checkMonitorInvariants(mon);
        ASSERT_TRUE(violations.empty())
            << "step " << step << "\n"
            << describeMonitorViolations(violations);
    }
}

/** True iff some violation contains `needle`. */
bool
reported(const std::vector<std::string> &violations, const char *needle)
{
    for (const std::string &violation : violations)
        if (violation.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(HvInvariantTest, DetectsNormalEptLeafIntoSecureRegion)
{
    // Give the OS's EPT a leaf onto the monitor's first PT frame, at a
    // gpa far above normal memory, with tables from the monitor's pool.
    Monitor mon(smallConfig());
    PageTable ept(mon.mem(), &mon.ptAlloc(), mon.normalEptRoot());
    const u64 gpa = 1ull << 38;
    ASSERT_TRUE(ept.map(gpa, mon.config().layout.secureBase(),
                        PteFlags::userRw()).ok());

    const auto violations = checkMonitorInvariants(mon);
    EXPECT_TRUE(reported(violations, "normal EPT maps gpa 4000000000 "
                                     "into the secure region"))
        << describeMonitorViolations(violations);
}

TEST(HvInvariantTest, DetectsNormalEptTableLinkOutsideFrameArea)
{
    // A raw root entry linking to a "table" in normal memory.
    Monitor mon(smallConfig());
    const Hpa root = mon.normalEptRoot();
    const u64 index = entriesPerTable - 1;
    ASSERT_FALSE(Pte(mon.mem().read(root + index * sizeof(u64))).present());
    mon.mem().write(root + index * sizeof(u64),
                    Pte::make(0x5000, PteFlags::tableLink()).raw());

    const auto violations = checkMonitorInvariants(mon);
    EXPECT_TRUE(reported(violations, "normal EPT has table frames outside "
                                     "the frame area"))
        << describeMonitorViolations(violations);
}

TEST(HvInvariantTest, EscapedEptLinkDoesNotHideSiblingSubtree)
{
    // Root slot 1 links out of the frame area; slot 2's subtree, walked
    // after it, holds a leaf into the secure region.  The containment
    // walk reports the escape and goes on, so both are reported.
    Monitor mon(smallConfig());
    const Hpa root = mon.normalEptRoot();
    ASSERT_FALSE(Pte(mon.mem().read(root + 1 * sizeof(u64))).present());
    ASSERT_FALSE(Pte(mon.mem().read(root + 2 * sizeof(u64))).present());
    mon.mem().write(root + 1 * sizeof(u64),
                    Pte::make(0x5000, PteFlags::tableLink()).raw());
    PageTable ept(mon.mem(), &mon.ptAlloc(), root);
    ASSERT_TRUE(ept.map(2ull << 39, mon.config().layout.secureBase(),
                        PteFlags::userRw()).ok());

    const auto violations = checkMonitorInvariants(mon);
    EXPECT_TRUE(reported(violations, "normal EPT has table frames outside "
                                     "the frame area"))
        << describeMonitorViolations(violations);
    EXPECT_TRUE(reported(violations, "normal EPT maps gpa 10000000000 "
                                     "into the secure region"))
        << describeMonitorViolations(violations);
}

TEST(HvInvariantTest, DetectsHandCorruptedEptTarget)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 1, 1, 7);
    ASSERT_TRUE(enclave.ok());
    Monitor &mon = machine.monitor();
    const Enclave *info = mon.findEnclave(enclave->id);

    // Redirect the EPT leaf for the first ELRANGE page into normal
    // memory (Fig. 5 case 2), writing the raw entry in RAM.
    PageTable ept(mon.mem(), nullptr, info->eptRoot);
    const u64 gpa = enclaveEpcGpaBase;
    ASSERT_TRUE(ept.unmap(gpa).ok());
    ASSERT_TRUE(ept.map(gpa, 0x6000, PteFlags::userRw()).ok());

    const auto violations = checkMonitorInvariants(mon);
    ASSERT_FALSE(violations.empty());
    bool found = false;
    for (const std::string &violation : violations) {
        if (violation.find("ELRANGE but not EPC-backed") !=
                std::string::npos ||
            violation.find("marshalling buffer") != std::string::npos)
            found = true;
    }
    EXPECT_TRUE(found) << describeMonitorViolations(violations);
}

TEST(HvInvariantTest, DetectsEpcAliasInRam)
{
    Machine machine(smallConfig());
    auto a = machine.setupEnclave(0x10'0000, 1, 1, 0xa);
    auto b = machine.setupEnclave(0x30'0000, 1, 1, 0xb);
    ASSERT_TRUE(a.ok() && b.ok());
    Monitor &mon = machine.monitor();
    const Enclave *ea = mon.findEnclave(a->id);
    const Enclave *eb = mon.findEnclave(b->id);

    // Point B's first EPC-window gpa at A's backing page.
    auto a_hpa = mon.translateEnclaveUncached(
        ea->gptRoot, ea->eptRoot, Gva(0x10'0000), false);
    ASSERT_TRUE(a_hpa.ok());
    PageTable ept_b(mon.mem(), nullptr, eb->eptRoot);
    ASSERT_TRUE(ept_b.unmap(enclaveEpcGpaBase).ok());
    ASSERT_TRUE(ept_b.map(enclaveEpcGpaBase, a_hpa->pageBase().value,
                          PteFlags::userRw()).ok());

    const auto violations = checkMonitorInvariants(mon);
    ASSERT_FALSE(violations.empty());
    bool shared = false;
    for (const std::string &violation : violations) {
        if (violation.find("share EPC page") != std::string::npos ||
            violation.find("covert EPC mapping") != std::string::npos)
            shared = true;
    }
    EXPECT_TRUE(shared) << describeMonitorViolations(violations);
}

TEST(HvInvariantTest, DetectsShallowCopyFootprint)
{
    // The buggy monitor's actual in-RAM state: enclave GPT subtrees
    // in guest memory must trip the containment family.
    Machine machine(smallConfig(true));
    PrimaryOs &os = machine.os();
    auto root = os.createPageTable();
    auto scratch = os.allocPage();
    ASSERT_TRUE(root.ok() && scratch.ok());
    ASSERT_TRUE(os.gptMap(*root, 0x10'0000, *scratch,
                          PteFlags::userRw()).ok());
    ASSERT_TRUE(os.gptUnmap(*root, 0x10'0000).ok());
    ASSERT_TRUE(machine.monitor().guestSetGptRoot(
        machine.vcpu(), Hpa(root->value)).ok());
    auto enclave = machine.setupEnclave(0x10'0000, 1, 1, 7);
    ASSERT_TRUE(enclave.ok());

    const auto violations =
        checkMonitorInvariants(machine.monitor());
    ASSERT_FALSE(violations.empty())
        << "the shallow-copy footprint went unnoticed";
    bool containment = false;
    for (const std::string &violation : violations) {
        if (violation.find("escape the frame area") != std::string::npos)
            containment = true;
    }
    EXPECT_TRUE(containment) << describeMonitorViolations(violations);
}

TEST(HvInvariantTest, DetectsHugeEnclaveMapping)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 1, 1, 7);
    ASSERT_TRUE(enclave.ok());
    Monitor &mon = machine.monitor();
    const Enclave *info = mon.findEnclave(enclave->id);
    PageTable gpt(mon.mem(), &mon.ptAlloc(), info->gptRoot);
    ASSERT_TRUE(gpt.mapHuge(1ull << 30, 0, PteFlags::userRw(), 2).ok());

    const auto violations = checkMonitorInvariants(mon);
    ASSERT_FALSE(violations.empty());
    bool huge = false;
    for (const std::string &violation : violations) {
        if (violation.find("huge GPT mapping") != std::string::npos)
            huge = true;
    }
    EXPECT_TRUE(huge) << describeMonitorViolations(violations);
}

} // namespace
} // namespace hev::hv
