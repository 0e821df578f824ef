/**
 * @file
 * The flat ("low spec") abstract state of the layered development.
 *
 * This is the abstract data of paper Sec. 4.1/4.2: the page-table frame
 * area as a plain array of 64-bit words, the frame allocator's bitmap,
 * the EPCM, the address-space handle table of the RData layer, and the
 * enclave metadata of the hypercall layers.  Both the MIR models (via
 * trusted pointers) and the flat functional specs (directly) operate on
 * this one structure, which is what makes the conformance checks
 * meaningful.
 */

#ifndef HEV_CCAL_FLAT_STATE_HH
#define HEV_CCAL_FLAT_STATE_HH

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "ccal/geometry.hh"
#include "mirlight/abstract_state.hh"
#include "support/table_walk.hh"
#include "support/types.hh"

namespace hev::mir
{
class Interp;
} // namespace hev::mir

namespace hev::ccal
{

/**
 * The frame area's contents: one u64 per word, stored one page per
 * frame.  A frame's page is created on its first nonzero write, and an
 * absent frame reads as 0, so a state costs the frames it uses, not the
 * whole area.  Copies clone only the frames that exist, and equality
 * compares contents: an absent frame equals an all-zero one.
 */
class FrameWords
{
  public:
    explicit FrameWords(u64 frame_count) : frames(frame_count) {}

    FrameWords(const FrameWords &other);
    FrameWords &operator=(const FrameWords &other);
    FrameWords(FrameWords &&) noexcept = default;
    FrameWords &operator=(FrameWords &&) noexcept = default;

    /** Number of words (frames * entriesPerTable). */
    u64 size() const { return frames.size() * entriesPerTable; }

    /** Word `index`; index must be < size(). */
    u64
    operator[](u64 index) const
    {
        const Page *page = frames[index / entriesPerTable].get();
        return page ? (*page)[index % entriesPerTable] : 0;
    }

    /** Words of frame `index`, or nullptr if absent (reads as zero). */
    const u64 *
    frame(u64 index) const
    {
        const Page *page = frames[index].get();
        return page ? page->data() : nullptr;
    }

    /** Store word `index`; index must be < size(). */
    void set(u64 index, u64 value);

    /** Zero frame `frame` (< size() / entriesPerTable), freeing its page. */
    void zeroFrame(u64 frame) { frames[frame].reset(); }

    /** Frames that hold a page (written nonzero since last zeroed). */
    u64 framesPresent() const;

    bool operator==(const FrameWords &other) const;

  private:
    using Page = std::array<u64, entriesPerTable>;

    std::vector<std::unique_ptr<Page>> frames;
};

/** One EPCM entry of the abstract machine. */
struct AbsEpcmEntry
{
    i64 state = epcStateFree;  //!< epcStateFree / Reg / Tcs
    i64 owner = 0;
    u64 linAddr = 0;

    bool operator==(const AbsEpcmEntry &) const = default;
};

/**
 * Abstract descriptor of one evicted (sealed) enclave page.  This is
 * the spec-side image of hv::SealedBlob minus the MAC: authenticity is
 * a concrete-monitor concern, while the abstract machine records what a
 * genuine blob would restore — the stage-1 slot, the EPCM kind, the
 * anti-rollback version and the content token.
 */
struct AbsSealedPage
{
    u64 gpaSlot = 0;        //!< stage-1 slot in the EPC GPA window
    i64 kind = epcStateReg; //!< epcStateReg or epcStateTcs
    u64 version = 0;        //!< anti-rollback counter
    u64 content = 0;        //!< content token (valid iff hasContent)
    bool hasContent = false;

    bool operator==(const AbsSealedPage &) const = default;
};

/** One page of an abstract enclave image: the sealed record plus the
 *  enclave-linear address it restores at. */
struct AbsImagePage
{
    u64 gva = 0;
    AbsSealedPage sealed;

    bool operator==(const AbsImagePage &) const = default;
};

/**
 * Abstract enclave image — the spec-side view of hv::EnclaveImage.
 * The concrete image binds everything under a MAC; abstractly the MAC
 * collapses to the `authentic` flag (what a verifier would conclude),
 * and the measurement is an opaque token used only as the anti-rollback
 * ledger key.  Pages are in ascending gva order, sealed at
 * versionBase + i — the same version consumption an evict-all fold
 * performs, which is what the migration ≡ quiesced-fold equivalence
 * rests on.
 */
struct AbsImage
{
    i64 sourceId = 0;
    u64 measurement = 0;  //!< opaque token (ledger key)
    u64 elStart = 0;
    u64 elEnd = 0;
    u64 mbufGva = 0;
    u64 mbufPages = 0;
    u64 mbufBacking = 0;
    u64 addedPages = 0;   //!< header page count (truncation check)
    u64 tcsPages = 0;
    u64 versionBase = 0;
    std::vector<AbsImagePage> pages;
    bool authentic = true;  //!< abstraction of the MAC verdict

    bool operator==(const AbsImage &) const = default;
};

/** Enclave metadata held by the hypercall layers. */
struct AbsEnclave
{
    i64 state = enclStateAdding;
    u64 elStart = 0;
    u64 elEnd = 0;
    u64 mbufGva = 0;
    u64 mbufPages = 0;
    u64 mbufBacking = 0;
    i64 gptHandle = 0;  //!< address-space handle of the enclave GPT
    i64 eptHandle = 0;  //!< address-space handle of the enclave EPT
    u64 addedPages = 0;
    u64 tcsPages = 0;
    /** Evicted pages by enclave-linear address (non-resident state). */
    std::map<u64, AbsSealedPage> evicted;
    /** Next version counter an eviction will seal. */
    u64 nextSealVersion = 1;

    bool operator==(const AbsEnclave &) const = default;
};

/** The flat abstract state. */
struct FlatState
{
    Geometry geo;

    /** Frame-area contents, one u64 per word. */
    FrameWords words;
    /** Frame-allocator bitmap, one flag per frame. */
    std::vector<bool> allocated;
    /** EPCM, one entry per EPC page. */
    std::vector<AbsEpcmEntry> epcm;
    /** RData layer: address-space handle -> page-table root. */
    std::map<i64, u64> asRoots;
    i64 nextHandle = 1;
    /** Hypercall layer: enclave id -> metadata. */
    std::map<i64, AbsEnclave> enclaves;
    i64 nextEnclave = 1;
    /**
     * Content abstraction: physical page base -> token describing its
     * contents (page data is not part of page-table correctness, but
     * copies must be tracked for the security model).
     */
    std::map<u64, u64> pageContents;
    /**
     * Anti-rollback ledger of restored enclave images: measurement
     * token -> highest versionBase accepted.  A second restore of the
     * same measurement must strictly advance the version vector.
     */
    std::map<u64, u64> imageLedger;

    explicit FlatState(const Geometry &geometry = Geometry{});

    bool operator==(const FlatState &) const = default;

    /// @name Word access into the frame area
    /// @{

    /** True iff addr names a word of the frame area. */
    bool validWord(u64 addr) const;

    u64 readWord(u64 addr) const;
    void writeWord(u64 addr, u64 value);

    /// @}

    /** Entry of table `table` at `index`. */
    u64
    readEntry(u64 table, u64 index) const
    {
        return readWord(table + index * sizeof(u64));
    }

    void
    writeEntry(u64 table, u64 index, u64 entry)
    {
        writeWord(table + index * sizeof(u64), entry);
    }

    /** Zero a whole frame. */
    void zeroFrame(u64 frame);

    /** Frame base of frame-area frame i. */
    u64
    frameAt(u64 index) const
    {
        return geo.frameBase + index * pageSize;
    }

    /** Root address behind an address-space handle; 0 if unknown. */
    u64
    rootOf(i64 handle) const
    {
        auto it = asRoots.find(handle);
        return it == asRoots.end() ? 0 : it->second;
    }
};

/**
 * Page source for walkTables() over a FlatState's frame area: a table
 * outside it is escaped, an absent frame reads as all zero.
 */
struct FlatTablePages
{
    const FlatState &s;

    TablePage
    operator()(u64 table) const
    {
        if (!s.geo.inFrameArea(table))
            return {true};
        return {false, s.words.frame((table - s.geo.frameBase) / pageSize)};
    }
};

/**
 * Adapter exposing a FlatState to the MIR interpreter through trusted
 * pointers; the handler ids are the "getter/setter functions" of the
 * paper's trusted-pointer semantics.
 */
class FlatAbsState : public mir::AbstractState
{
  public:
    /// @name Trusted-pointer handler ids
    /// @{
    static constexpr u32 physWordHandler = 1;  //!< meta = byte address
    static constexpr u32 bitmapHandler = 2;    //!< meta = frame index
    static constexpr u32 epcmHandler = 3;      //!< meta = EPC page index
    /// @}

    explicit FlatAbsState(FlatState &state) : flat(state) {}

    FlatState &state() { return flat; }

    mir::Outcome<mir::Value> trustedLoad(u32 handler, u64 meta) override;
    mir::Outcome<mir::Done> trustedStore(u32 handler, u64 meta,
                                         const mir::Value &value) override;

  private:
    FlatState &flat;
};

/**
 * Register the trusted layer's primitives (paper Sec. 4.2) on an
 * interpreter bound to a FlatAbsState: the unsafe pointer casts that
 * return trusted pointers, the RData register/resolve internals of the
 * address-space layer, the enclave-metadata accessors, and the page
 * copy.  These are the functions "declared trusted and assumed
 * correct".
 */
void registerTrustedLayer(mir::Interp &interp, FlatState &state);

} // namespace hev::ccal

#endif // HEV_CCAL_FLAT_STATE_HH
