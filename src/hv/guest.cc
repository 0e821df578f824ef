#include "hv/guest.hh"

#include "support/logging.hh"

namespace hev::hv
{

PrimaryOs::PrimaryOs(Monitor &mon) : monitor(mon)
{
    const u64 pages = mon.config().layout.normalRange().size() / pageSize;
    pageBitmap.assign(pages, false);
    // Reserve page 0 so no allocation ever hands out the null page.
    pageBitmap[0] = true;
    ++usedCount;
}

Expected<Gpa>
PrimaryOs::allocPage()
{
    const u64 n = pageBitmap.size();
    for (u64 probe = 0; probe < n; ++probe) {
        const u64 idx = (searchHint + probe) % n;
        if (!pageBitmap[idx]) {
            pageBitmap[idx] = true;
            ++usedCount;
            searchHint = (idx + 1) % n;
            const Gpa page = Gpa(idx * pageSize);
            (void)zeroPage(page);
            return page;
        }
    }
    return HvError::OutOfMemory;
}

Status
PrimaryOs::freePage(Gpa page)
{
    if (page.value % pageSize != 0)
        return HvError::NotAligned;
    const u64 idx = page.value / pageSize;
    if (idx >= pageBitmap.size() || !pageBitmap[idx])
        return HvError::InvalidParam;
    pageBitmap[idx] = false;
    --usedCount;
    return okStatus();
}

PageTable
PrimaryOs::normalEpt() const
{
    // The OS kernel can touch any guest-physical address: model that as
    // a direct EPT translation (identity GPT), which is what an OS
    // running with a full linear mapping achieves.
    return PageTable(const_cast<PhysMem &>(monitor.mem()), nullptr,
                     monitor.normalEptRoot());
}

Expected<u64>
PrimaryOs::physRead(Gpa addr) const
{
    auto tr = normalEpt().translate(addr.value, false, false);
    if (!tr)
        return tr.error();
    return monitor.mem().read(Hpa(tr->physAddr));
}

Status
PrimaryOs::physWrite(Gpa addr, u64 value)
{
    auto tr = normalEpt().translate(addr.value, true, false);
    if (!tr)
        return tr.error();
    monitor.mem().write(Hpa(tr->physAddr), value);
    return okStatus();
}

Status
PrimaryOs::zeroPage(Gpa page)
{
    if (page.value % pageSize != 0)
        return HvError::NotAligned;
    // The smallest EPT leaf is a page, so one translation covers it.
    auto tr = normalEpt().translate(page.value, true, false);
    if (!tr)
        return tr.error();
    monitor.mem().zeroPage(Hpa(tr->physAddr));
    return okStatus();
}

Expected<Gpa>
PrimaryOs::createPageTable()
{
    return allocPage();
}

Expected<Gpa>
PrimaryOs::gptLeafTable(Gpa root, u64 va)
{
    Gpa table = root;
    for (int level = pagingLevels; level > 1; --level) {
        const u64 index = Gva(va).tableIndex(level);
        auto raw = physRead(table + index * sizeof(u64));
        if (!raw)
            return raw.error();
        Pte entry(*raw);
        if (!entry.present()) {
            auto frame = allocPage();
            if (!frame)
                return frame.error();
            entry = Pte::make(frame->value, PteFlags::tableLink());
            if (auto st = physWrite(table + index * sizeof(u64),
                                    entry.raw()); !st)
                return st.error();
        } else if (entry.huge()) {
            return HvError::AlreadyMapped;
        }
        table = Gpa(entry.addr());
    }
    return table;
}

Status
PrimaryOs::gptMap(Gpa root, u64 va, Gpa target, PteFlags flags)
{
    return gptMapRange(root, va, target, 1, flags);
}

Status
PrimaryOs::gptMapRange(Gpa root, u64 va, Gpa target, u64 pages,
                       PteFlags flags)
{
    if (va % pageSize != 0 || target.value % pageSize != 0)
        return HvError::NotAligned;
    flags.huge = false;
    u64 done = 0;
    while (done < pages) {
        const u64 page_va = va + done * pageSize;
        auto leaf = gptLeafTable(root, page_va);
        if (!leaf)
            return leaf.error();
        // Translate the leaf once for reading; a write needs the same
        // walk to have been writable, as physWrite would check.
        auto tr = normalEpt().translate(leaf->value, false, false);
        if (!tr)
            return tr.error();
        u64 *entries = monitor.mem().pageWordsMut(Hpa(tr->physAddr));
        for (u64 index = Gva(page_va).tableIndex(1);
             index < entriesPerTable && done < pages; ++index, ++done) {
            if (Pte(entries[index]).present())
                return HvError::AlreadyMapped;
            if (!tr->flags.writable)
                return HvError::PermissionDenied;
            entries[index] =
                Pte::make(target.value + done * pageSize, flags).raw();
        }
    }
    return okStatus();
}

Status
PrimaryOs::gptUnmap(Gpa root, u64 va)
{
    if (va % pageSize != 0)
        return HvError::NotAligned;
    Gpa table = root;
    for (int level = pagingLevels; level > 1; --level) {
        const u64 index = Gva(va).tableIndex(level);
        auto raw = physRead(table + index * sizeof(u64));
        if (!raw)
            return raw.error();
        const Pte entry(*raw);
        if (!entry.present())
            return HvError::NotMapped;
        if (entry.huge())
            return HvError::Unsupported;
        table = Gpa(entry.addr());
    }
    const u64 index = Gva(va).tableIndex(1);
    auto raw = physRead(table + index * sizeof(u64));
    if (!raw)
        return raw.error();
    if (!Pte(*raw).present())
        return HvError::NotMapped;
    return physWrite(table + index * sizeof(u64), 0);
}

Status
PrimaryOs::writePtEntryRaw(Gpa table, u64 index, u64 raw)
{
    if (index >= entriesPerTable)
        return HvError::InvalidParam;
    return physWrite(table + index * sizeof(u64), raw);
}

} // namespace hev::hv
