#include "hv/page_table.hh"

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace hev::hv
{

namespace
{

/** Bytes covered by one terminal entry at a level. */
u64
levelPageSize(int level)
{
    return 1ull << (pageShift + 9 * (level - 1));
}

const obs::Counter statMaps("hv.pt.maps");
const obs::Counter statUnmaps("hv.pt.unmaps");
const obs::Counter statQueries("hv.pt.queries");
const obs::Counter statWalkFaults("hv.pt.walk_faults");
/** Levels visited until the walk terminated (1..pagingLevels). */
const obs::Histogram statWalkDepth("hv.pt.walk_depth");

/** Record one terminated walk: depth histogram + PtWalk event. */
void
noteWalk(int resolved_level, u64 va)
{
    const u64 depth = u64(pagingLevels - resolved_level + 1);
    statWalkDepth.record(depth);
    obs::traceEvent(obs::EventType::PtWalk, "pt_walk", depth, va);
}

} // namespace

PageTable::PageTable(PhysMem &mem, FrameSource *alloc, Hpa root)
    : physMem(mem), frameAlloc(alloc), rootFrame(root)
{
    if (!root.pageAligned())
        panic("page table root %#llx not page aligned",
              (unsigned long long)root.value);
}

Expected<PageTable>
PageTable::create(PhysMem &mem, FrameSource &alloc)
{
    auto root = alloc.allocFrame();
    if (!root)
        return root.error();
    return PageTable(mem, &alloc, *root);
}

Pte
PageTable::entryAt(Hpa table, u64 index) const
{
    if (index >= entriesPerTable)
        panic("table index %llu out of range", (unsigned long long)index);
    // A guest-crafted entry can point a walk at any frame number at all;
    // real hardware's access to a non-existent physical address aborts
    // the walk.  Model that as a non-present entry.
    const Hpa addr = table + index * sizeof(u64);
    if (!physMem.validWord(addr))
        return Pte::empty();
    return Pte(physMem.read(addr));
}

void
PageTable::setEntryAt(Hpa table, u64 index, Pte entry)
{
    if (index >= entriesPerTable)
        panic("table index %llu out of range", (unsigned long long)index);
    physMem.write(table + index * sizeof(u64), entry.raw());
}

Expected<Hpa>
PageTable::walkToTable(u64 va, int stop_level, bool alloc_missing)
{
    Hpa table = rootFrame;
    for (int level = pagingLevels; level > stop_level; --level) {
        const u64 index = Gva(va).tableIndex(level);
        Pte entry = entryAt(table, index);
        if (entry.present() && entry.huge())
            return HvError::AlreadyMapped;
        if (!entry.present()) {
            if (!alloc_missing)
                return HvError::NotMapped;
            if (!frameAlloc)
                return HvError::Unsupported;
            auto frame = frameAlloc->allocFrame();
            if (!frame)
                return frame.error();
            entry = Pte::make(frame->value, PteFlags::tableLink());
            setEntryAt(table, index, entry);
        }
        table = Hpa(entry.addr());
    }
    return table;
}

Status
PageTable::map(u64 va, u64 pa, PteFlags flags)
{
    LeafCursor fresh;
    return map(va, pa, flags, fresh);
}

Status
PageTable::map(u64 va, u64 pa, PteFlags flags, LeafCursor &cursor)
{
    if (va % pageSize != 0 || pa % pageSize != 0)
        return HvError::NotAligned;
    if (!flags.present)
        return HvError::InvalidParam;
    flags.huge = false;
    const u64 span_base = va & ~(levelPageSize(2) - 1);
    if (cursor.vaBase != span_base) {
        auto leaf = walkToTable(va, 1, true);
        if (!leaf)
            return leaf.error();
        cursor.vaBase = span_base;
        cursor.table = *leaf;
    }
    const u64 index = Gva(va).tableIndex(1);
    if (entryAt(cursor.table, index).present())
        return HvError::AlreadyMapped;
    setEntryAt(cursor.table, index, Pte::make(pa, flags));
    statMaps.inc();
    return okStatus();
}

Status
PageTable::mapHuge(u64 va, u64 pa, PteFlags flags, int level)
{
    if (level < 2 || level > 3)
        return HvError::InvalidParam;
    const u64 span = levelPageSize(level);
    if (va % span != 0 || pa % span != 0)
        return HvError::NotAligned;
    if (!flags.present)
        return HvError::InvalidParam;

    auto table = walkToTable(va, level, true);
    if (!table)
        return table.error();
    const u64 index = Gva(va).tableIndex(level);
    if (entryAt(*table, index).present())
        return HvError::AlreadyMapped;
    flags.huge = true;
    setEntryAt(*table, index, Pte::make(pa, flags));
    statMaps.inc();
    return okStatus();
}

Status
PageTable::unmap(u64 va)
{
    LeafCursor fresh;
    return unmap(va, fresh);
}

Status
PageTable::unmap(u64 va, LeafCursor &cursor)
{
    if (va % pageSize != 0)
        return HvError::NotAligned;
    const u64 span_base = va & ~(levelPageSize(2) - 1);
    if (cursor.vaBase != span_base) {
        auto leaf = walkToTable(va, 1, false);
        if (!leaf)
            return leaf.error();
        cursor.vaBase = span_base;
        cursor.table = *leaf;
    }
    const u64 index = Gva(va).tableIndex(1);
    if (!entryAt(cursor.table, index).present())
        return HvError::NotMapped;
    setEntryAt(cursor.table, index, Pte::empty());
    statUnmaps.inc();
    return okStatus();
}

Expected<Translation>
PageTable::query(u64 va) const
{
    statQueries.inc();
    Hpa table = rootFrame;
    for (int level = pagingLevels; level >= 1; --level) {
        const u64 index = Gva(va).tableIndex(level);
        const Pte entry = entryAt(table, index);
        if (!entry.present()) {
            statWalkFaults.inc();
            return HvError::NotMapped;
        }
        if (level == 1 || entry.huge()) {
            const u64 span = levelPageSize(level);
            Translation result;
            result.physAddr = entry.addr() + (va & (span - 1));
            result.flags = entry.flags();
            result.level = level;
            noteWalk(level, va);
            return result;
        }
        table = Hpa(entry.addr());
    }
    panic("unreachable: page walk fell off the root");
}

Expected<Translation>
PageTable::translate(u64 va, bool is_write, bool is_user) const
{
    statQueries.inc();
    // An MMU applies the most restrictive permissions along the walk;
    // model that by intersecting W and U at every level.
    bool path_writable = true;
    bool path_user = true;

    Hpa table = rootFrame;
    for (int level = pagingLevels; level >= 1; --level) {
        const u64 index = Gva(va).tableIndex(level);
        const Pte entry = entryAt(table, index);
        if (!entry.present()) {
            statWalkFaults.inc();
            return HvError::NotMapped;
        }
        path_writable = path_writable && entry.writable();
        path_user = path_user && entry.user();
        if (level == 1 || entry.huge()) {
            noteWalk(level, va);
            if (is_write && !path_writable)
                return HvError::PermissionDenied;
            if (is_user && !path_user)
                return HvError::PermissionDenied;
            const u64 span = levelPageSize(level);
            Translation result;
            result.physAddr = entry.addr() + (va & (span - 1));
            result.flags = entry.flags();
            result.flags.writable = path_writable;
            result.flags.user = path_user;
            result.level = level;
            return result;
        }
        table = Hpa(entry.addr());
    }
    panic("unreachable: page walk fell off the root");
}

Status
PageTable::stampAccessedDirty(u64 va, bool is_write)
{
    Hpa table = rootFrame;
    for (int level = pagingLevels; level >= 1; --level) {
        const u64 index = Gva(va).tableIndex(level);
        const Pte entry = entryAt(table, index);
        if (!entry.present())
            return HvError::NotMapped;
        if (level == 1 || entry.huge()) {
            Pte stamped = entry.withAccessed();
            if (is_write)
                stamped = stamped.withDirty();
            if (stamped != entry)
                setEntryAt(table, index, stamped);
            return okStatus();
        }
        table = Hpa(entry.addr());
    }
    panic("unreachable: A/D stamp fell off the root");
}

Status
PageTable::destroy()
{
    if (!frameAlloc)
        return HvError::Unsupported;
    // Post-order, so a table goes after its subtree.  Frames outside
    // the allocator's area (e.g. acquired through the shallow-copy
    // bug) are deliberately skipped; the invariant checker flags them.
    struct : TableVisitor
    {
        static constexpr bool readsLeafTables() { return false; }
        FrameSource &alloc;
        void
        leave(u64 table, int)
        {
            if (alloc.owns(Hpa(table)))
                (void)alloc.freeFrame(Hpa(table));
        }
    } tables{{}, *frameAlloc};
    walkTables(PhysTablePages{physMem}, rootFrame.value, pagingLevels,
               tables);
    return okStatus();
}

u64
PageTable::tableFrameCount() const
{
    struct : TableVisitor
    {
        static constexpr bool readsLeafTables() { return false; }
        u64 count = 0;
        void reach(u64, int) { ++count; }
    } tables;
    walkTables(PhysTablePages{physMem}, rootFrame.value, pagingLevels,
               tables);
    return tables.count;
}

Status
PageTable::shallowCopyL4From(const PageTable &src, u64 va_start, u64 va_end)
{
    for (u64 va = va_start; va < va_end;
         va += levelPageSize(pagingLevels)) {
        const u64 index = Gva(va).tableIndex(pagingLevels);
        const Pte entry = src.entryAt(src.root(), index);
        if (entry.present())
            setEntryAt(rootFrame, index, entry);
    }
    return okStatus();
}

} // namespace hev::hv
