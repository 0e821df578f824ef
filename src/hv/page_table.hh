/**
 * @file
 * Four-level page tables over physical memory.
 *
 * One PageTable instance manages one radix tree rooted at a physical
 * frame.  The same machinery backs three distinct table roles in
 * HyperEnclave (paper Fig. 1): the monitor-managed extended page tables
 * (EPT) of the normal VM and of each enclave, the monitor-managed guest
 * page tables (GPT) of each enclave, and the untrusted, guest-managed
 * GPTs of the primary OS and its apps.  The walker itself is identical;
 * what differs is who owns the frames and who is allowed to mutate the
 * tree — exactly the distinction the paper's invariants police.
 *
 * Functions here mirror the Rust memory module the paper verifies: walk
 * the tables for a virtual address, look up intermediate entries,
 * allocate new intermediate frames by need, and ultimately retrieve or
 * install a terminal entry (Sec. 4.1).
 */

#ifndef HEV_HV_PAGE_TABLE_HH
#define HEV_HV_PAGE_TABLE_HH

#include "hv/frame_alloc.hh"
#include "hv/phys_mem.hh"
#include "hv/pte.hh"
#include "support/result.hh"
#include "support/table_walk.hh"
#include "support/types.hh"

namespace hev::hv
{

/** Result of a successful translation. */
struct Translation
{
    u64 physAddr = 0;       //!< translated physical address
    PteFlags flags;         //!< effective flags of the terminal entry
    int level = 1;          //!< level the walk terminated at (1 = 4K)

    bool operator==(const Translation &) const = default;
};

/**
 * Page source for walkTables() over physical memory: a table past its
 * end reads as all zero, as entryAt() reads it.  With an `area` (the
 * monitor's PT area), a table outside the area is escaped.
 */
struct PhysTablePages
{
    const PhysMem &mem;
    const FrameAllocator *area = nullptr;

    TablePage
    operator()(u64 table) const
    {
        if (area && !area->inArea(Hpa(table)))
            return {true};
        if (table + pageSize > mem.sizeBytes())
            return {};
        return {false, mem.pageWords(Hpa(table))};
    }
};

/** A radix page-table tree rooted at one physical frame. */
class PageTable
{
  public:
    /**
     * Cached result of one walk to a level-1 table, valid for every
     * 4 KiB mapping inside the same 2 MiB leaf-table span.  Batched
     * map/unmap runs hand the same cursor to consecutive calls so a
     * 512-page run costs one walk instead of 512; a cursor must not
     * outlive structural changes to the tree (destroy, huge remaps).
     */
    struct LeafCursor
    {
        u64 vaBase = ~0ull;  //!< leaf-span base the cached table covers
        Hpa table{};         //!< its level-1 table frame
    };


    /**
     * Bind to an existing root frame.
     *
     * @param mem backing physical memory.
     * @param alloc frame source for intermediate tables (the global
     *              allocator or a per-CPU cache); may be null for
     *              read-only use (e.g. walking a guest-built tree).
     * @param root physical address of the level-4 table.
     */
    PageTable(PhysMem &mem, FrameSource *alloc, Hpa root);

    /** Allocate a fresh zeroed root and bind to it. */
    static Expected<PageTable> create(PhysMem &mem, FrameSource &alloc);

    /** Physical address of the level-4 (root) table. */
    Hpa root() const { return rootFrame; }

    /**
     * Install a 4 KiB terminal mapping va -> pa.
     *
     * Intermediate tables are allocated on demand.  Fails with
     * AlreadyMapped if a terminal entry already covers va.  The cursor
     * overload started with a fresh cursor, which always walks.
     */
    Status map(u64 va, u64 pa, PteFlags flags);

    /** map() reusing (and refreshing) a cached leaf-table walk. */
    Status map(u64 va, u64 pa, PteFlags flags, LeafCursor &cursor);

    /**
     * Install a huge terminal mapping at the given level
     * (2 = 2 MiB, 3 = 1 GiB).  Alignment of va and pa must match the
     * level's page size.
     */
    Status mapHuge(u64 va, u64 pa, PteFlags flags, int level);

    /**
     * Remove the terminal mapping covering va (4 KiB only): the cursor
     * overload started with a fresh cursor.
     */
    Status unmap(u64 va);

    /** unmap() reusing (and refreshing) a cached leaf-table walk. */
    Status unmap(u64 va, LeafCursor &cursor);

    /**
     * Fetch the terminal entry covering va without permission checks.
     * This is the page-walk the paper reuses in its security model
     * (Sec. 5.1).
     */
    Expected<Translation> query(u64 va) const;

    /**
     * Full translation with permission checking, as the MMU would do.
     *
     * @param va virtual address to translate.
     * @param is_write demand write permission.
     * @param is_user demand user-mode access permission on every level.
     */
    Expected<Translation> translate(u64 va, bool is_write,
                                    bool is_user) const;

    /** Visit every terminal mapping: visit(va, entry, level). */
    template <typename Visit>
    void
    forEachMapping(Visit &&visit) const
    {
        struct : TableVisitor
        {
            Visit &visit;
            void
            entry(u64 va, u64 raw, int level, bool leaf)
            {
                if (leaf)
                    visit(va, Pte(raw), level);
            }
        } mappings{{}, visit};
        walkTables(PhysTablePages{physMem}, rootFrame.value, pagingLevels,
                   mappings);
    }

    /**
     * Stamp the accessed (and, for writes, dirty) bit on the terminal
     * entry covering va — what the hardware walker does as a side
     * effect of a successful translation.  The dirty bits feed the
     * live-migration pre-copy rounds (docs/MIGRATION.md).
     */
    Status stampAccessedDirty(u64 va, bool is_write);

    /**
     * Free all intermediate table frames (from the leaf level up),
     * leaving terminal pages untouched.  Requires an allocator.
     */
    Status destroy();

    /** Number of table frames in the tree, including the root. */
    u64 tableFrameCount() const;

    /**
     * Walk down to the table at `stop_level` on va's path (1 = the
     * leaf table).  A huge entry on the way answers AlreadyMapped; a
     * missing one NotMapped, or Unsupported without an allocator.
     *
     * @param va address being walked.
     * @param stop_level level of the table to return.
     * @param alloc_missing allocate intermediate tables on a miss.
     */
    Expected<Hpa> walkToTable(u64 va, int stop_level, bool alloc_missing);

    /** Read the raw entry at (table, index). */
    Pte entryAt(Hpa table, u64 index) const;

    /** Write the raw entry at (table, index). */
    void setEntryAt(Hpa table, u64 index, Pte entry);

    /**
     * Copy another tree's level-4 entries covering [va_start, va_end)
     * into this tree.  This reproduces the 2022 "shallow copy" bug the
     * paper describes (Sec. 4.1): the copied entries still point at
     * level-3 tables stored in physical memory the *source* controls.
     * Exists only so the checkers can demonstrate they reject it.
     */
    Status shallowCopyL4From(const PageTable &src, u64 va_start, u64 va_end);

  private:
    PhysMem &physMem;
    FrameSource *frameAlloc;
    Hpa rootFrame;
};

} // namespace hev::hv

#endif // HEV_HV_PAGE_TABLE_HH
