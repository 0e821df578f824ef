/**
 * @file
 * TLB coherence tests: the flush discipline around world switches,
 * CR3 writes and enclave teardown, plus multi-vCPU domain tagging.
 * A missed flush here is an isolation hole all by itself.
 */

#include <gtest/gtest.h>

#include "hv/machine.hh"

namespace hev::hv
{
namespace
{

MonitorConfig
smallConfig()
{
    MonitorConfig cfg;
    cfg.layout.totalBytes = 32 * 1024 * 1024;
    cfg.layout.ptAreaBytes = 4 * 1024 * 1024;
    cfg.layout.epcBytes = 8 * 1024 * 1024;
    return cfg;
}

TEST(TlbCoherenceTest, TranslationsAreCached)
{
    Machine machine(smallConfig());
    const u64 misses_before = machine.monitor().tlb().misses();
    ASSERT_TRUE(machine.memLoad(Gva(0x9'0000)).ok());
    ASSERT_TRUE(machine.memLoad(Gva(0x9'0000)).ok());
    ASSERT_TRUE(machine.memLoad(Gva(0x9'0008)).ok()); // same page
    EXPECT_EQ(machine.monitor().tlb().misses(), misses_before + 1);
    EXPECT_GE(machine.monitor().tlb().hits(), 2ull);
}

TEST(TlbCoherenceTest, Cr3WriteFlushesTheNormalDomain)
{
    Machine machine(smallConfig());
    ASSERT_TRUE(machine.memLoad(Gva(0x9'0000)).ok());
    EXPECT_GT(machine.monitor().tlb().size(), 0ull);
    ASSERT_TRUE(machine.switchToKernel().ok()); // MOV CR3
    EXPECT_EQ(machine.monitor().tlb().size(), 0ull)
        << "stale normal-VM translations survived a CR3 write";
}

TEST(TlbCoherenceTest, EnclaveRemoveFlushesItsDomain)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 2, 1, 1);
    ASSERT_TRUE(enclave.ok());
    Monitor &mon = machine.monitor();

    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memLoad(Gva(0x10'0000)).ok());
    EXPECT_TRUE(mon.tlb().lookup(enclave->id, 0x10'0000).has_value());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
    // Exit flushes the enclave's tag...
    EXPECT_FALSE(mon.tlb().lookup(enclave->id, 0x10'0000).has_value());

    // ...so nothing of it survives into removal.
    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memLoad(Gva(0x10'0000)).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
    ASSERT_TRUE(mon.hcEnclaveRemove(enclave->id).ok());
    EXPECT_FALSE(mon.tlb().lookup(enclave->id, 0x10'0000).has_value())
        << "a removed enclave's translations are still cached";
}

TEST(TlbCoherenceTest, ExitLeavesNothingForEnterOrRemoveToFlush)
{
    // Only a resident vCPU caches translations under an enclave's tag,
    // and exit flushes them: enter and remove would find the domain
    // empty, which is why neither flushes it.
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 2, 1, 2);
    ASSERT_TRUE(enclave.ok());
    Monitor &mon = machine.monitor();
    EXPECT_EQ(mon.tlb().countDomain(enclave->id), 0u);

    for (int residency = 0; residency < 2; ++residency) {
        ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
        ASSERT_TRUE(machine.memLoad(Gva(0x10'0000)).ok());
        ASSERT_TRUE(machine.memStore(Gva(0x10'1000), 9).ok());
        EXPECT_EQ(mon.tlb().countDomain(enclave->id), 2u);
        ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
        EXPECT_EQ(mon.tlb().countDomain(enclave->id), 0u);
    }
    ASSERT_TRUE(mon.hcEnclaveRemove(enclave->id).ok());
    EXPECT_EQ(mon.tlb().countDomain(enclave->id), 0u);
}

TEST(TlbCoherenceTest, ReusedEpcPageNotReachableViaStaleEntry)
{
    // The full staleness scenario: enclave A is removed, its EPC page
    // is reused by enclave B; no cached translation may still send
    // A's old VA to the reused page.
    Machine machine(smallConfig());
    Monitor &mon = machine.monitor();
    auto a = machine.setupEnclave(0x10'0000, 1, 1, 0xa);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(mon.hcEnclaveEnter(a->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memStore(Gva(0x10'0000), 0x5ec).ok());
    auto hpa_a = mon.translate(machine.vcpu(), Gva(0x10'0000), false);
    ASSERT_TRUE(hpa_a.ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
    const DomainId a_domain = a->id;
    ASSERT_TRUE(mon.hcEnclaveRemove(a->id).ok());

    auto b = machine.setupEnclave(0x10'0000, 1, 1, 0xb);
    ASSERT_TRUE(b.ok());
    // No translation under A's tag survives anywhere.
    EXPECT_FALSE(mon.tlb().lookup(a_domain, 0x10'0000).has_value());
    // And the reused page was scrubbed before B could see it.
    ASSERT_TRUE(mon.hcEnclaveEnter(b->id, machine.vcpu()).ok());
    auto value = machine.memLoad(Gva(0x10'0000));
    ASSERT_TRUE(value.ok());
    EXPECT_NE(*value, 0x5ecull) << "enclave B read A's stale secret";
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
}

TEST(TlbCoherenceTest, TwoVcpusUseIndependentDomainTags)
{
    Machine machine(smallConfig());
    Monitor &mon = machine.monitor();
    auto enclave = machine.setupEnclave(0x10'0000, 1, 1, 7);
    ASSERT_TRUE(enclave.ok());

    // vCPU 0 runs the enclave; vCPU 1 stays in the normal world.
    VCpu second;
    second.mode = CpuMode::GuestNormal;
    second.domain = normalVmDomain;
    second.gptRoot = Hpa(machine.kernelGptRoot().value);
    second.eptRoot = mon.normalEptRoot();

    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    auto enclave_hpa =
        mon.translate(machine.vcpu(), Gva(0x10'0000), false);
    auto normal_hpa = mon.translate(second, Gva(0x10'0000), false);
    ASSERT_TRUE(enclave_hpa.ok());
    ASSERT_TRUE(normal_hpa.ok());
    EXPECT_NE(enclave_hpa->value, normal_hpa->value)
        << "the same VA in different domains hit the same cached "
           "translation";
    EXPECT_TRUE(mon.config().layout.epcRange().contains(*enclave_hpa));
    EXPECT_FALSE(mon.config().layout.epcRange().contains(*normal_hpa));
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
}

TEST(TlbCoherenceTest, WritePermissionUpgradeRevalidates)
{
    // A cached read-only translation must not satisfy a write.
    Machine machine(smallConfig());
    Monitor &mon = machine.monitor();
    PrimaryOs &os = machine.os();
    auto root = os.createPageTable();
    auto page = os.allocPage();
    ASSERT_TRUE(root.ok() && page.ok());
    ASSERT_TRUE(os.gptMap(*root, 0x70'0000, *page,
                          PteFlags::userRo()).ok());
    ASSERT_TRUE(mon.guestSetGptRoot(machine.vcpu(),
                                    Hpa(root->value)).ok());
    EXPECT_TRUE(machine.memLoad(Gva(0x70'0000)).ok());
    EXPECT_EQ(machine.memStore(Gva(0x70'0000), 1).error(),
              HvError::PermissionDenied)
        << "a read-only mapping satisfied a write via the TLB";
    (void)machine.switchToKernel();
}

} // namespace
} // namespace hev::hv
