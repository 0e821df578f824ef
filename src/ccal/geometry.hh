/**
 * @file
 * Geometry of the abstract machine the layered proofs run over.
 *
 * The abstract state's flat memory covers only the monitor's page-table
 * frame area (the paper's "big flat array of integers representing the
 * physical memory of the frame area", Sec. 4.1); EPC pages and normal
 * memory appear as address ranges with metadata, not as contents.
 * Keeping the geometry small makes exhaustive-ish conformance checking
 * tractable, and nothing in the models depends on the absolute sizes.
 */

#ifndef HEV_CCAL_GEOMETRY_HH
#define HEV_CCAL_GEOMETRY_HH

#include "support/table_walk.hh"
#include "support/types.hh"

namespace hev::ccal
{

/** Sizing and placement of the abstract machine's memory regions. */
struct Geometry
{
    /** First byte of the page-table frame area. */
    u64 frameBase = 0x10'0000;
    /** Number of 4 KiB frames in the frame area. */
    u64 frameCount = 64;
    /** First byte of the EPC. */
    u64 epcBase = 0x80'0000;
    /** Number of EPC pages. */
    u64 epcCount = 32;
    /** Addresses below this are untrusted normal memory. */
    u64 normalLimit = 0x10'0000;
    /** Guest-physical window where enclave EPC pages are mapped. */
    u64 epcGpaBase = 0x4000'0000;
    /** Guest-physical window where marshalling buffers are mapped. */
    u64 mbufGpaBase = 0x8000'0000;

    bool operator==(const Geometry &) const = default;

    /** Byte size of the frame area. */
    u64 frameAreaBytes() const { return frameCount * pageSize; }

    /** True iff addr lies in the frame area. */
    bool
    inFrameArea(u64 addr) const
    {
        return addr >= frameBase && addr < frameBase + frameAreaBytes();
    }

    /** True iff addr lies in the EPC. */
    bool
    inEpc(u64 addr) const
    {
        return addr >= epcBase && addr < epcBase + epcCount * pageSize;
    }

    /** True iff [addr, addr+bytes) is entirely normal memory. */
    bool
    inNormal(u64 addr, u64 bytes) const
    {
        return addr + bytes <= normalLimit && addr + bytes >= addr;
    }
};

/// @name Page-table entry encoding shared by models and specs
/// @{

/** Physical-address field of an entry: bits [51:12]. */
constexpr u64 pteAddrMask = tableEntryAddrMask;
constexpr u64 pteFlagP = tableEntryPresent;
constexpr u64 pteFlagW = 1ull << 1;
constexpr u64 pteFlagU = 1ull << 2;
constexpr u64 pteFlagAccessed = 1ull << 5;
constexpr u64 pteFlagDirty = 1ull << 6;
constexpr u64 pteFlagHuge = tableEntryHuge;
/** Flags of an intermediate table link. */
constexpr u64 pteLinkFlags = pteFlagP | pteFlagW | pteFlagU;
/** Flags of a normal read-write user mapping. */
constexpr u64 pteRwFlags = pteFlagP | pteFlagW | pteFlagU;

/// @}

/// @name Error codes shared by MIR models and specs
/// @{

constexpr i64 errAlreadyMapped = 1;
constexpr i64 errNotMapped = 2;
constexpr i64 errOutOfMemory = 3;
constexpr i64 errNotAligned = 4;
constexpr i64 errInvalidParam = 5;
constexpr i64 errOutOfEpc = 7;
constexpr i64 errIsolation = 8;
constexpr i64 errBadState = 9;
constexpr i64 errNoSuchEnclave = 10;
constexpr i64 errForeignHandle = 11;
constexpr i64 errSealAuth = 12;
constexpr i64 errSealRollback = 13;
constexpr i64 errImageAuth = 14;
constexpr i64 errImageRollback = 15;
constexpr i64 errImageTruncated = 16;

/// @}

/// @name EPCM page-state codes
/// @{

constexpr i64 epcStateFree = 0;
constexpr i64 epcStateReg = 1;
constexpr i64 epcStateTcs = 2;

/// @}

/// @name Enclave lifecycle codes
/// @{

constexpr i64 enclStateAdding = 0;
constexpr i64 enclStateInitialized = 1;
constexpr i64 enclStateDead = 2;

/// @}

} // namespace hev::ccal

#endif // HEV_CCAL_GEOMETRY_HH
