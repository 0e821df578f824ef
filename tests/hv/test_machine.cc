/**
 * @file
 * Integration tests for the composed machine: apps, enclaves, the
 * mem_load/mem_store path, and marshalling-buffer communication.
 */

#include <gtest/gtest.h>

#include <cstring>

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

TEST(MachineTest, KernelIdentityMappingWorks)
{
    Machine machine(smallConfig());
    ASSERT_TRUE(machine.memStore(Gva(0x9'0000), 0x77).ok());
    auto load = machine.memLoad(Gva(0x9'0000));
    ASSERT_TRUE(load.ok());
    EXPECT_EQ(*load, 0x77ull);
    EXPECT_EQ(machine.monitor().mem().read(Hpa(0x9'0000)), 0x77ull);
}

TEST(MachineTest, KernelGptMatchesThePerPageMapLoop)
{
    // The constructor's one gptMapRange call must leave memory exactly
    // as one gptMap per normal page does, allocation order included.
    const MonitorConfig cfg = smallConfig();
    Machine machine(cfg);
    Monitor mon(cfg);
    PrimaryOs os(mon);
    auto root = os.createPageTable();
    ASSERT_TRUE(root.ok());
    EXPECT_EQ(root->value, machine.kernelGptRoot().value);
    const u64 normal_bytes = cfg.layout.normalRange().size();
    for (u64 addr = 0; addr < normal_bytes; addr += pageSize)
        ASSERT_TRUE(
            os.gptMap(*root, addr, Gpa(addr), PteFlags::userRw()).ok());

    for (u64 page = 0; page < cfg.layout.totalBytes; page += pageSize)
        ASSERT_EQ(std::memcmp(machine.monitor().mem().pageWords(Hpa(page)),
                              mon.mem().pageWords(Hpa(page)), pageSize),
                  0)
            << "page " << std::hex << page;
    EXPECT_EQ(machine.os().usedPages(), os.usedPages());
    auto next = machine.os().allocPage();
    auto twin_next = os.allocPage();
    ASSERT_TRUE(next.ok() && twin_next.ok());
    EXPECT_EQ(next->value, twin_next->value);
}

TEST(MachineTest, KernelCannotTouchSecureMemory)
{
    Machine machine(smallConfig());
    const u64 secure = machine.monitor().config().layout.secureBase();
    EXPECT_FALSE(machine.memLoad(Gva(secure)).ok());
    EXPECT_FALSE(machine.memStore(Gva(secure), 1).ok());
}

TEST(MachineTest, AppSeesOnlyItsMappings)
{
    Machine machine(smallConfig());
    auto app = machine.createApp(0x40'0000, 4);
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(machine.switchToApp(*app).ok());

    ASSERT_TRUE(machine.memStore(Gva(0x40'0000), 0xaa).ok());
    auto load = machine.memLoad(Gva(0x40'0000));
    ASSERT_TRUE(load.ok());
    EXPECT_EQ(*load, 0xaaull);

    // Unmapped VA faults.
    EXPECT_FALSE(machine.memLoad(Gva(0x80'0000)).ok());

    // The store landed in the app's backing page.
    EXPECT_EQ(machine.monitor().mem().read(Hpa(app->backing[0].value)),
              0xaaull);
    ASSERT_TRUE(machine.switchToKernel().ok());
}

TEST(MachineTest, TwoAppsAreIsolatedByTheirGpts)
{
    Machine machine(smallConfig());
    auto app1 = machine.createApp(0x40'0000, 2);
    auto app2 = machine.createApp(0x40'0000, 2); // same VA range
    ASSERT_TRUE(app1.ok() && app2.ok());

    ASSERT_TRUE(machine.switchToApp(*app1).ok());
    ASSERT_TRUE(machine.memStore(Gva(0x40'0000), 0x11).ok());
    ASSERT_TRUE(machine.switchToApp(*app2).ok());
    ASSERT_TRUE(machine.memStore(Gva(0x40'0000), 0x22).ok());

    ASSERT_TRUE(machine.switchToApp(*app1).ok());
    EXPECT_EQ(*machine.memLoad(Gva(0x40'0000)), 0x11ull);
    ASSERT_TRUE(machine.switchToApp(*app2).ok());
    EXPECT_EQ(*machine.memLoad(Gva(0x40'0000)), 0x22ull);
}

TEST(MachineTest, EnclaveSeesItsAddedPages)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 2, 1, 5000);
    ASSERT_TRUE(enclave.ok());
    ASSERT_TRUE(machine.monitor().hcEnclaveEnter(enclave->id,
                                                 machine.vcpu()).ok());
    // Page 0, word 0 was filled with 5000 + 0 * 1000 + 0.
    auto w0 = machine.memLoad(Gva(0x10'0000));
    ASSERT_TRUE(w0.ok());
    EXPECT_EQ(*w0, 5000ull);
    // Page 1, word 3.
    auto w13 = machine.memLoad(Gva(0x10'1000 + 24));
    ASSERT_TRUE(w13.ok());
    EXPECT_EQ(*w13, 6003ull);
    ASSERT_TRUE(machine.monitor().hcEnclaveExit(machine.vcpu()).ok());
}

TEST(MachineTest, EnclaveWritesArePrivate)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 1, 1, 0);
    ASSERT_TRUE(enclave.ok());
    Monitor &mon = machine.monitor();

    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memStore(Gva(0x10'0000), 0x5ec7e7).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());

    // From the normal world, the same VA either faults or reads
    // different (normal) memory — never the enclave's secret.
    auto host_view = machine.memLoad(Gva(0x10'0000));
    if (host_view.ok()) {
        EXPECT_NE(*host_view, 0x5ec7e7ull);
    }
}

TEST(MachineTest, MarshallingBufferIsSharedBothWays)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 1, 2, 0);
    ASSERT_TRUE(enclave.ok());
    Monitor &mon = machine.monitor();

    // Host writes a request.
    ASSERT_TRUE(machine.mbufWrite(*enclave, 0, 0xcafe).ok());

    // Enclave reads it, writes a response at word 1.
    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    auto req = machine.memLoad(enclave->mbufGva);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(*req, 0xcafeull);
    ASSERT_TRUE(machine.memStore(enclave->mbufGva + 8, 0xf00d).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());

    // Host reads the response.
    auto resp = machine.mbufRead(*enclave, 1);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(*resp, 0xf00dull);
}

TEST(MachineTest, MbufIndexBoundsChecked)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 1, 1, 0);
    ASSERT_TRUE(enclave.ok());
    const u64 words = pageSize / 8;
    EXPECT_TRUE(machine.mbufWrite(*enclave, words - 1, 1).ok());
    EXPECT_FALSE(machine.mbufWrite(*enclave, words, 1).ok());
    EXPECT_FALSE(machine.mbufRead(*enclave, words).ok());
}

TEST(MachineTest, EnclaveCannotReachHostMemoryOutsideMbuf)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 1, 1, 0);
    ASSERT_TRUE(enclave.ok());
    Monitor &mon = machine.monitor();
    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    // Arbitrary normal-memory VAs are not mapped for the enclave.
    EXPECT_FALSE(machine.memLoad(Gva(0x9'0000)).ok());
    EXPECT_FALSE(machine.memStore(Gva(0x9'0000), 1).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
}

TEST(MachineTest, TlbFlushOnContextSwitchPreventsStaleness)
{
    Machine machine(smallConfig());
    auto app1 = machine.createApp(0x40'0000, 1);
    auto app2 = machine.createApp(0x40'0000, 1);
    ASSERT_TRUE(app1.ok() && app2.ok());

    ASSERT_TRUE(machine.switchToApp(*app1).ok());
    ASSERT_TRUE(machine.memStore(Gva(0x40'0000), 0x1).ok());
    // This populated the TLB for (normal domain, 0x40'0000).
    ASSERT_TRUE(machine.switchToApp(*app2).ok());
    ASSERT_TRUE(machine.memStore(Gva(0x40'0000), 0x2).ok());

    // app1's backing page must still hold 0x1 (no stale-TLB bleed).
    EXPECT_EQ(machine.monitor().mem().read(Hpa(app1->backing[0].value)),
              0x1ull);
    EXPECT_EQ(machine.monitor().mem().read(Hpa(app2->backing[0].value)),
              0x2ull);
}

TEST(MachineTest, SetupManyEnclaves)
{
    Machine machine(smallConfig());
    std::vector<EnclaveHandle> enclaves;
    for (int i = 0; i < 5; ++i) {
        auto enclave = machine.setupEnclave(0x10'0000 + i * 0x10'0000, 2,
                                            1, 100 * i);
        ASSERT_TRUE(enclave.ok()) << "enclave " << i;
        enclaves.push_back(*enclave);
    }
    EXPECT_EQ(machine.monitor().liveEnclaves(), 5ull);

    // Each sees its own fill.
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(machine.monitor().hcEnclaveEnter(
            enclaves[i].id, machine.vcpu()).ok());
        auto w = machine.memLoad(Gva(enclaves[i].elrange.start.value));
        ASSERT_TRUE(w.ok());
        EXPECT_EQ(*w, u64(100 * i));
        ASSERT_TRUE(machine.monitor().hcEnclaveExit(machine.vcpu()).ok());
    }
}

TEST(MachineTest, MisalignedAccessRejected)
{
    Machine machine(smallConfig());
    EXPECT_EQ(machine.memLoad(Gva(0x9'0001)).error(), HvError::NotAligned);
    EXPECT_EQ(machine.memStore(Gva(0x9'0004), 1).error(),
              HvError::NotAligned);
}

} // namespace
} // namespace hev::hv
