#include "hv/machine.hh"

#include "support/logging.hh"

namespace hev::hv
{

Machine::Machine(const MonitorConfig &config)
    : monCfg(config), mon(config), primaryOs(mon)
{
    // Build the kernel's identity GPT over all of normal memory so the
    // primary OS can run immediately.
    auto root = primaryOs.createPageTable();
    if (!root)
        fatal("cannot allocate the kernel GPT root");
    kernelGpt = *root;
    const u64 normal_pages = config.layout.normalRange().size() / pageSize;
    if (auto st = primaryOs.gptMapRange(kernelGpt, 0, Gpa(0), normal_pages,
                                        PteFlags::userRw()); !st)
        fatal("kernel GPT identity map failed: %s", hvErrorName(st.error()));

    cpu.mode = CpuMode::GuestNormal;
    cpu.domain = normalVmDomain;
    cpu.gptRoot = Hpa(kernelGpt.value);
    cpu.eptRoot = mon.normalEptRoot();
}

Expected<App>
Machine::createApp(u64 va_base, u64 pages)
{
    if (va_base % pageSize != 0)
        return HvError::NotAligned;
    auto root = primaryOs.createPageTable();
    if (!root)
        return root.error();

    App app;
    app.gptRoot = *root;
    app.range = {Gva(va_base), Gva(va_base + pages * pageSize)};
    for (u64 i = 0; i < pages; ++i) {
        auto page = primaryOs.allocPage();
        if (!page)
            return page.error();
        if (auto st = primaryOs.gptMap(*root, va_base + i * pageSize,
                                       *page, PteFlags::userRw()); !st)
            return st.error();
        app.backing.push_back(*page);
    }
    return app;
}

Status
Machine::switchToApp(const App &app)
{
    return mon.guestSetGptRoot(cpu, Hpa(app.gptRoot.value));
}

Status
Machine::switchToKernel()
{
    return mon.guestSetGptRoot(cpu, Hpa(kernelGpt.value));
}

Expected<EnclaveHandle>
Machine::setupEnclave(u64 elrange_base, u64 pages, u64 mbuf_pages,
                      u64 fill)
{
    // Carve the marshalling buffer backing out of normal memory.
    std::vector<Gpa> mbuf_backing;
    for (u64 i = 0; i < mbuf_pages; ++i) {
        auto page = primaryOs.allocPage();
        if (!page)
            return page.error();
        mbuf_backing.push_back(*page);
    }
    if (mbuf_backing.empty())
        return HvError::InvalidParam;
    // The monitor requires a contiguous backing; the guest pool is
    // first-fit so consecutive allocations are contiguous on a fresh
    // machine, but verify rather than assume.
    for (u64 i = 1; i < mbuf_backing.size(); ++i) {
        if (mbuf_backing[i].value != mbuf_backing[0].value + i * pageSize)
            return HvError::InvalidParam;
    }

    EnclaveConfig config;
    config.elrange = {Gva(elrange_base),
                      Gva(elrange_base + (pages + 1) * pageSize)};
    config.mbufGva = Gva(elrange_base + (pages + 64) * pageSize);
    config.mbufPages = mbuf_pages;
    config.mbufBacking = mbuf_backing[0];
    config.creatorGptRoot = cpu.gptRoot;

    auto id = mon.hcEnclaveInit(config);
    if (!id)
        return id.error();

    // Stage initial contents in normal memory, then add pages.
    auto stage = primaryOs.allocPage();
    if (!stage)
        return stage.error();
    for (u64 i = 0; i < pages; ++i) {
        for (u64 w = 0; w < pageSize / sizeof(u64); ++w) {
            if (auto st = primaryOs.physWrite(
                    *stage + w * sizeof(u64), fill + i * 1000 + w); !st)
                return st.error();
        }
        if (auto st = mon.hcEnclaveAddPage(*id,
                                           Gva(elrange_base + i * pageSize),
                                           *stage, AddPageKind::Reg); !st)
            return st.error();
    }
    // One TCS page; its first word is the entry point.
    (void)primaryOs.zeroPage(*stage);
    if (auto st = primaryOs.physWrite(*stage, elrange_base); !st)
        return st.error();
    if (auto st = mon.hcEnclaveAddPage(
            *id, Gva(elrange_base + pages * pageSize), *stage,
            AddPageKind::Tcs); !st)
        return st.error();
    (void)primaryOs.freePage(*stage);

    if (auto st = mon.hcEnclaveInitFinish(*id); !st)
        return st.error();

    EnclaveHandle handle;
    handle.id = *id;
    handle.elrange = config.elrange;
    handle.mbufGva = config.mbufGva;
    handle.mbufBacking = config.mbufBacking;
    handle.mbufPages = mbuf_pages;
    return handle;
}

Expected<u64>
Machine::memLoad(Gva va)
{
    if (va.value % sizeof(u64) != 0)
        return HvError::NotAligned;
    auto hpa = mon.translate(cpu, va, false);
    if (!hpa)
        return hpa.error();
    return mon.mem().read(*hpa);
}

Status
Machine::memStore(Gva va, u64 value)
{
    if (va.value % sizeof(u64) != 0)
        return HvError::NotAligned;
    auto hpa = mon.translate(cpu, va, true);
    if (!hpa)
        return hpa.error();
    mon.mem().write(*hpa, value);
    return okStatus();
}

Status
Machine::mbufWrite(const EnclaveHandle &enclave, u64 word_index, u64 value)
{
    if (word_index >= enclave.mbufPages * pageSize / sizeof(u64))
        return HvError::InvalidParam;
    return primaryOs.physWrite(
        enclave.mbufBacking + word_index * sizeof(u64), value);
}

Expected<u64>
Machine::mbufRead(const EnclaveHandle &enclave, u64 word_index) const
{
    if (word_index >= enclave.mbufPages * pageSize / sizeof(u64))
        return HvError::InvalidParam;
    return primaryOs.physRead(enclave.mbufBacking +
                              word_index * sizeof(u64));
}

} // namespace hev::hv
