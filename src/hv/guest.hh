/**
 * @file
 * Model of the untrusted primary OS (the adversary of the threat model).
 *
 * The primary OS owns normal memory and manages its own and its apps'
 * guest page tables (paper Sec. 2.1) — the monitor never validates
 * those.  Per the threat model (Sec. 2.2) it may issue arbitrary memory
 * accesses through whatever its EPT permits, program malicious DMA, and
 * fire any hypercall sequence.  Everything here goes through the same
 * mediation real hardware would apply, so attack attempts exercise
 * exactly the isolation machinery under verification.
 */

#ifndef HEV_HV_GUEST_HH
#define HEV_HV_GUEST_HH

#include <vector>

#include "hv/monitor.hh"
#include "support/result.hh"
#include "support/types.hh"

namespace hev::hv
{

/** The untrusted primary OS. */
class PrimaryOs
{
  public:
    explicit PrimaryOs(Monitor &mon);

    PrimaryOs(const PrimaryOs &) = delete;
    PrimaryOs &operator=(const PrimaryOs &) = delete;

    /// @name Guest-side physical page management (normal memory)
    /// @{

    /** Allocate a free page of normal memory from the guest's pool. */
    Expected<Gpa> allocPage();

    /** Return a page to the guest's pool. */
    Status freePage(Gpa page);

    /// @}

    /// @name Guest-physical memory access, mediated by the normal EPT
    /// @{

    /** 64-bit load at a guest-physical address. */
    Expected<u64> physRead(Gpa addr) const;

    /** 64-bit store at a guest-physical address. */
    Status physWrite(Gpa addr, u64 value);

    /** Zero one page-aligned guest-physical page. */
    Status zeroPage(Gpa page);

    /// @}

    /// @name Guest page-table management (untrusted, guest-built)
    /// @{

    /**
     * Build a fresh, empty page-table root in normal memory.
     * @return the guest-physical address of the level-4 table.
     */
    Expected<Gpa> createPageTable();

    /**
     * Install a 4 KiB mapping va -> target in a guest-built table,
     * allocating intermediate tables from the guest pool.
     */
    Status gptMap(Gpa root, u64 va, Gpa target, PteFlags flags);

    /**
     * Install `pages` consecutive 4 KiB mappings va + i * 4K ->
     * target + i * 4K: the same tables, frames and allocation order as
     * that many gptMap calls, with one walk per leaf table.  Stops at
     * the first failure, leaving the mappings before it in place.  The
     * walk assumes a leaf table is not also one of the upper tables on
     * its own path, as in any table built by these calls.
     */
    Status gptMapRange(Gpa root, u64 va, Gpa target, u64 pages,
                       PteFlags flags);

    /** Remove a 4 KiB mapping from a guest-built table. */
    Status gptUnmap(Gpa root, u64 va);

    /**
     * Attack helper: write a raw 64-bit entry at (table, index) with no
     * validation whatsoever — the OS can always do this to its own
     * tables, and a malicious OS will.
     */
    Status writePtEntryRaw(Gpa table, u64 index, u64 raw);

    /// @}

    /** Pages currently allocated from the guest pool. */
    u64 usedPages() const { return usedCount; }

  private:
    /** The normal EPT, through which every guest-physical access goes. */
    PageTable normalEpt() const;

    /**
     * Walk root down to the leaf table covering va, allocating missing
     * intermediate tables from the guest pool.
     */
    Expected<Gpa> gptLeafTable(Gpa root, u64 va);

    Monitor &monitor;
    /** One bit per page of normal memory; true = allocated. */
    std::vector<bool> pageBitmap;
    u64 usedCount = 0;
    u64 searchHint = 0;
};

} // namespace hev::hv

#endif // HEV_HV_GUEST_HH
