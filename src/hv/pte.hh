/**
 * @file
 * 64-bit page-table entries.
 *
 * Entries follow the x86-64 long-mode format the paper's page tables use:
 * a physical frame number in bits [51:12] and permission/status flags in
 * the low bits plus NX in bit 63.  Both the guest page tables (GPT) and
 * the extended page tables (EPT) in this reproduction use the same entry
 * encoding, matching the implementation the paper verifies where entries
 * are "plain 64-bit integers" (Sec. 4.1).
 */

#ifndef HEV_HV_PTE_HH
#define HEV_HV_PTE_HH

#include <string>

#include "support/bitops.hh"
#include "support/table_walk.hh"
#include "support/types.hh"

namespace hev::hv
{

/** Permission / status flags carried by an entry. */
struct PteFlags
{
    bool present = false;   //!< P: entry is valid
    bool writable = false;  //!< W: write permitted
    bool user = false;      //!< U: user-mode access permitted
    bool accessed = false;  //!< A: set by walker on use
    bool dirty = false;     //!< D: set by walker on write
    bool huge = false;      //!< PS: terminal large mapping at level 2/3
    bool noExec = false;    //!< NX: instruction fetch forbidden

    bool operator==(const PteFlags &) const = default;

    /** Flags for a normal writable user mapping. */
    static PteFlags
    userRw()
    {
        return {.present = true, .writable = true, .user = true};
    }

    /** Flags for a read-only user mapping. */
    static PteFlags
    userRo()
    {
        return {.present = true, .writable = false, .user = true};
    }

    /** Flags for an intermediate (non-terminal) table link. */
    static PteFlags
    tableLink()
    {
        return {.present = true, .writable = true, .user = true};
    }
};

/** One page-table entry as stored in physical memory. */
class Pte
{
  public:
    constexpr Pte() = default;
    constexpr explicit Pte(u64 raw_bits) : rawBits(raw_bits) {}

    /** Build an entry from a frame address and flags. */
    static Pte make(u64 phys_addr, const PteFlags &flags);

    /** The raw 64-bit representation. */
    constexpr u64 raw() const { return rawBits; }

    /** Physical address field, bits [51:12] (page aligned). */
    constexpr u64
    addr() const
    {
        return rawBits & tableEntryAddrMask;
    }

    bool present() const { return rawBits & tableEntryPresent; }
    bool writable() const { return bit(rawBits, 1); }
    bool user() const { return bit(rawBits, 2); }
    bool accessed() const { return bit(rawBits, 5); }
    bool dirty() const { return bit(rawBits, 6); }
    bool huge() const { return rawBits & tableEntryHuge; }
    bool noExec() const { return bit(rawBits, 63); }

    /** Decode the flag bits into a PteFlags value. */
    PteFlags flags() const;

    /** Entry with the accessed bit set. */
    Pte withAccessed() const { return Pte(setBit(rawBits, 5, true)); }
    /** Entry with the dirty bit set. */
    Pte withDirty() const { return Pte(setBit(rawBits, 6, true)); }
    /** Entry with the dirty bit cleared (pre-copy round reset). */
    Pte withDirtyCleared() const { return Pte(setBit(rawBits, 6, false)); }

    /** The all-zero (non-present) entry. */
    static constexpr Pte empty() { return Pte(0); }

    constexpr bool operator==(const Pte &) const = default;

    /** Human-readable rendering for diagnostics. */
    std::string toString() const;

  private:
    u64 rawBits = 0;
};

} // namespace hev::hv

#endif // HEV_HV_PTE_HH
