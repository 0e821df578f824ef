/**
 * @file
 * RustMonitor: the trusted software layer of HyperEnclave.
 *
 * The monitor owns the reserved secure memory, manages every EPT (the
 * normal VM's and each enclave's) plus the enclaves' GPTs, keeps the
 * EPCM, and implements the hypercalls through which the untrusted
 * primary OS drives the enclave life cycle (paper Sec. 2.1).  Its job,
 * and the property the paper verifies, is spatial isolation: no guest
 * mapping may reach the secure region except an enclave's own EPC pages
 * and the marshalling buffers.
 *
 * The historical 2022 "shallow copy" vulnerability (paper Sec. 4.1) can
 * be re-enabled via MonitorConfig::shallowCopyBug so the verification
 * analogue in src/ccal and src/sec can demonstrate catching it.
 */

#ifndef HEV_HV_MONITOR_HH
#define HEV_HV_MONITOR_HH

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "hv/enclave.hh"
#include "hv/epcm.hh"
#include "hv/frame_alloc.hh"
#include "hv/page_table.hh"
#include "hv/phys_mem.hh"
#include "hv/tlb.hh"
#include "hv/vcpu.hh"
#include "support/result.hh"

namespace hev::hv
{

/**
 * Deliberately plantable monitor bugs, all off by default.  These are
 * the fuzzer kill-suite targets (tests/fuzz/test_fuzz_kills.cc): each
 * one is a realistic slip the differential fuzzer must detect via a
 * spec divergence or an invariant violation, never via a crash.
 */
struct PlantedBugs
{
    /** add_page accepts page_gva == ELRANGE.end (off-by-one bound). */
    bool elrangeOffByOne = false;
    /** add_page records linear address 0 in the EPCM entry. */
    bool skipEpcmOwnerCheck = false;
    /** MOV CR3 skips the TLB domain flush (stale entries survive). */
    bool staleTlbOnUnmap = false;
    /** add_page maps the EPC page read-only in the enclave's EPT. */
    bool wrongPermMask = false;
    /** add_page force-frees the leaf GPT table frame it just used. */
    bool frameDoubleFree = false;
    /** reload_page skips the version check (accepts rolled-back blobs). */
    bool acceptSealRollback = false;
    /**
     * evict_pages_batch skips the TLB invalidation of every *middle*
     * page (indices 0 < i < n-1) of the batch: the endpoints still get
     * invalidated, so single- and two-element batches behave correctly
     * and only batches of three or more leak stale translations.
     */
    bool batchSkipMiddleInvalidate = false;
    /**
     * The final stop-and-copy round of a live migration skips pages
     * dirtied since the last pre-copy round, shipping their stale
     * pre-copy contents.  Migrations with no writes between rounds
     * stay correct; any written page diverges on the target, which the
     * migration ≡ quiesced-copy oracle flags.
     */
    bool skipDirtyOnFinalRound = false;

    bool
    any() const
    {
        return elrangeOffByOne || skipEpcmOwnerCheck || staleTlbOnUnmap ||
               wrongPermMask || frameDoubleFree || acceptSealRollback ||
               batchSkipMiddleInvalidate || skipDirtyOnFinalRound;
    }
};

/** Build-time configuration of the monitor. */
struct MonitorConfig
{
    MemLayout layout;
    /**
     * Re-enable the 2022 bug: initialize enclave GPTs by shallow-copying
     * the creator's level-4 entries instead of building from scratch.
     */
    bool shallowCopyBug = false;
    /** Map the normal VM's EPT with 2 MiB pages where possible. */
    bool hugeNormalEpt = true;
    /** Injected bugs for the fuzzer kill suite (all off by default). */
    PlantedBugs planted;
};

/** Kind of page being added by the add_page hypercall. */
enum class AddPageKind : u8
{
    Reg,  //!< regular data/code page
    Tcs,  //!< thread control structure (entry-point) page
};

/**
 * An evicted EPC page sealed for untrusted custody (EWB analogue).
 *
 * The monitor hands this whole structure to the primary OS, which may
 * store it anywhere and present it back at reload time.  Everything the
 * OS could usefully tamper with — owner, linear address, page kind, the
 * guest-physical slot, the anti-rollback version and the page contents —
 * is covered by the MAC, so the only freedom the OS has is to present a
 * stale-but-genuine blob, and the per-address version counter closes
 * exactly that (see Enclave::evictedPages).  In real EWB the words would
 * be AES-GCM ciphertext; this model declassifies the sealed image as an
 * opaque blob (src/sec treats its ciphertext as OS-observable and the
 * plaintext as secret).
 */
struct SealedBlob
{
    EnclaveId owner = invalidEnclave;
    Gva gva{};                //!< enclave-linear address of the page
    AddPageKind kind = AddPageKind::Reg;
    Gpa gpaSlot{};            //!< stage-1 slot in the EPC GPA window
    u64 version = 0;          //!< anti-rollback counter
    std::array<u64, pageSize / sizeof(u64)> words{};
    u64 mac = 0;

    bool operator==(const SealedBlob &) const = default;
};

/** The sealing MAC over a blob's OS-tamperable fields (keyed FNV). */
u64 sealedBlobMac(const SealedBlob &blob);

/** What snapshot leaves of the source enclave. */
enum class SnapshotMode : u8
{
    Fork,  //!< source stays intact (backup / fork)
    Move,  //!< source is destroyed after sealing (migration)
};

/** Header + per-page digest metadata of one image page. */
struct ImagePageMeta
{
    Gva gva{};                       //!< enclave-linear address
    AddPageKind kind = AddPageKind::Reg;
    u64 version = 0;                 //!< anti-rollback version (base+i)
    u64 digest = 0;                  //!< FNV digest of the page words

    bool operator==(const ImagePageMeta &) const = default;
};

/**
 * A whole-enclave snapshot sealed for untrusted custody: the composite
 * of sealing every EPC page (EWB-equivalent), plus a MAC'd header
 * binding the measurement, geometry, per-page digests and the
 * anti-rollback version vector.  Like SealedBlob, the OS may store and
 * transport it freely; restore re-verifies everything.
 */
struct EnclaveImage
{
    EnclaveId sourceId = invalidEnclave;
    EnclaveConfig cfg;               //!< ELRANGE + mbuf geometry
    u64 measurement = 0;
    u64 addedPages = 0;
    u64 tcsPages = 0;
    u64 entryPoint = 0;
    /**
     * First version of the image's version vector: page i is sealed at
     * versionBase + i, and the whole vector is consumed from the
     * source's nextSealVersion exactly as an evict-all fold would.
     */
    u64 versionBase = 0;
    std::vector<ImagePageMeta> pageMeta; //!< header copy, MAC'd
    std::vector<SealedBlob> pages;       //!< sealed payloads, in gva order
    u64 mac = 0;

    bool operator==(const EnclaveImage &) const = default;
};

/** The image MAC over the header and the per-page blob MACs. */
u64 enclaveImageMac(const EnclaveImage &image);

/**
 * The per-page digest bound into an image's page-meta vector (an FNV
 * fold over the page's words).  Public so the live-migration engine
 * can rebuild a consistent image from pre-copied page contents.
 */
u64 enclavePageDigest(const u64 *words);

/**
 * Statistics counters exposed for the benches.  Atomic so concurrent
 * hypercalls from multiple vCPUs (src/smp/) can bump them without a
 * lock; single-vCPU readers just see plain integers.
 */
struct MonitorStats
{
    std::atomic<u64> hypercalls{0};
    std::atomic<u64> enclavesCreated{0};
    std::atomic<u64> pagesAdded{0};
    std::atomic<u64> enters{0};
    std::atomic<u64> exits{0};
    std::atomic<u64> reports{0};
    std::atomic<u64> rejectedRequests{0};
    std::atomic<u64> pagesEvicted{0};
    std::atomic<u64> pagesReloaded{0};
    std::atomic<u64> imagesSnapshotted{0};
    std::atomic<u64> imagesRestored{0};
};

/** One element of an add_pages_batch hypercall. */
struct AddPageRequest
{
    Gva gva{};                       //!< enclave-linear target address
    Gpa src{};                       //!< normal-memory source page
    AddPageKind kind = AddPageKind::Reg;

    bool operator==(const AddPageRequest &) const = default;
};

/** What the report hypercall hands back (EREPORT stub). */
struct EnclaveReport
{
    EnclaveId id = invalidEnclave;
    u64 measurement = 0;  //!< the enclave's rolling measurement
    u64 addedPages = 0;   //!< EPC pages folded into the measurement

    bool operator==(const EnclaveReport &) const = default;
};

/** The trusted monitor. */
class Monitor
{
  public:
    explicit Monitor(const MonitorConfig &config);

    Monitor(const Monitor &) = delete;
    Monitor &operator=(const Monitor &) = delete;

    /// @name Component access (for checkers, tests and benches)
    /// @{
    PhysMem &mem() { return physMem; }
    const PhysMem &mem() const { return physMem; }
    FrameAllocator &ptAlloc() { return frameAlloc; }
    const FrameAllocator &ptAlloc() const { return frameAlloc; }
    Epcm &epcm() { return epcMap; }
    const Epcm &epcm() const { return epcMap; }
    Tlb &tlb() { return tlbModel; }
    const MonitorConfig &config() const { return cfg; }
    const MonitorStats &stats() const { return statCounters; }
    /// @}

    /** Root of the normal VM's extended page table. */
    Hpa normalEptRoot() const { return normalEpt->root(); }

    /**
     * Look up a live enclave; null if unknown.  Removal erases an
     * enclave and ids are never reused, so a removed id stays unknown.
     */
    const Enclave *findEnclave(EnclaveId id) const;

    /**
     * Mutable enclave lookup for the SMP layer (src/smp/), which
     * manages occupancy counts and per-vCPU contexts itself.  Callers
     * must hold whatever lock discipline they impose on the enclave
     * table; the single-vCPU paths never need this.
     */
    Enclave *findEnclaveMutable(EnclaveId id);

    /** Number of live enclaves (the table holds no others). */
    u64 liveEnclaves() const;

    /** Visit every live enclave. */
    void forEachEnclave(
        const std::function<void(const Enclave &)> &visit) const;

    /// @name Hypercalls (the primitives the paper's model transitions on)
    /// @{

    /**
     * init (ECREATE analogue): create an enclave.
     *
     * Validates the proposed geometry (ELRANGE page-aligned and
     * non-empty, marshalling buffer disjoint from ELRANGE and backed by
     * normal memory), builds the enclave's empty GPT and EPT, and maps
     * the marshalling buffer into both stages.  The mapping of the
     * marshalling buffer is fixed for the enclave's entire life cycle.
     *
     * @return the new enclave's id.
     */
    Expected<EnclaveId> hcEnclaveInit(const EnclaveConfig &config);

    /**
     * add_page (EADD analogue): allocate an EPC page, copy its initial
     * contents from normal memory, record it in the EPCM, and map it at
     * page_gva in the enclave's GPT/EPT.
     *
     * @param id target enclave (must be in Adding state).
     * @param page_gva enclave-linear address; must lie in ELRANGE.
     * @param src guest-physical source of the initial contents; must be
     *            normal memory.
     * @param kind Reg or Tcs.
     * @param frames optional frame source for the page-table frames the
     *               mapping needs (a per-CPU cache under SMP); defaults
     *               to the global allocator.
     */
    Status hcEnclaveAddPage(EnclaveId id, Gva page_gva, Gpa src,
                            AddPageKind kind, FrameSource *frames = nullptr);

    /**
     * init_finish (EINIT analogue): finalize the measurement and make
     * the enclave enterable.  Requires at least one TCS page.
     */
    Status hcEnclaveInitFinish(EnclaveId id);

    /**
     * enter (EENTER analogue): world-switch the vCPU into the enclave.
     * Saves the app context, installs the enclave's GPT/EPT roots,
     * scrubs the register file, jumps to the TCS entry point, and
     * flushes the TLB tags involved.
     */
    Status hcEnclaveEnter(EnclaveId id, VCpu &vcpu);

    /**
     * exit (EEXIT analogue): world-switch back to the normal VM,
     * saving the enclave context and restoring the app context.
     */
    Status hcEnclaveExit(VCpu &vcpu);

    /**
     * remove (EREMOVE analogue): tear the enclave down, scrub and free
     * its EPC pages and page-table frames, and erase its record; the id
     * answers NoSuchEnclave from then on.  Not callable while a vCPU
     * is inside the enclave.
     */
    Status hcEnclaveRemove(EnclaveId id);

    /**
     * report (EREPORT analogue): local attestation of the calling
     * enclave.  Only callable from enclave mode; reads fields that are
     * immutable once the enclave is Initialized, so concurrent callers
     * need no enclave lock.
     */
    Expected<EnclaveReport> hcEnclaveReport(const VCpu &vcpu);

    /**
     * evict_page (EWB analogue): seal a resident enclave page — its
     * contents, EPCM metadata and a fresh anti-rollback version — into
     * an OS-held blob, then unmap it from the enclave's GPT/EPT, scrub
     * the EPC frame and release it.  The caller (the untrusted OS,
     * under memory pressure) keeps the blob; the enclave must be
     * Initialized and the page resident at an ELRANGE address.
     */
    Expected<SealedBlob> hcEnclaveEvictPage(EnclaveId id, Gva page_gva);

    /**
     * reload_page (ELD analogue): verify a sealed blob's MAC, owner and
     * version, then restore the page — same EPC GPA slot, same EPCM
     * metadata, bit-identical contents.  A tampered or cross-enclave
     * blob fails with SealAuthFailed; a genuine-but-stale blob fails
     * with SealRollback.
     */
    Status hcEnclaveReloadPage(EnclaveId id, const SealedBlob &blob,
                               FrameSource *frames = nullptr);

    /**
     * add_pages_batch: the fold of hcEnclaveAddPage over @p reqs with
     * one hypercall's worth of fixed overhead and all-or-nothing
     * semantics.  Each element runs hcEnclaveAddPage's per-element
     * steps, in order, over one shared leaf cursor and EPCM scan hint,
     * with a bulk page copy between them; on the first failure every already-applied element is released
     * (pages unmapped, EPC frames scrubbed and freed, the measurement
     * and page counters restored) and the error returned is exactly the
     * error the failing single call would have produced, so batch(ops)
     * ≡ fold(single, ops) including the error channel.
     */
    Status hcEnclaveAddPagesBatch(EnclaveId id,
                                  const std::vector<AddPageRequest> &reqs,
                                  FrameSource *frames = nullptr);

    /**
     * evict_pages_batch: the fold of hcEnclaveEvictPage over @p gvas
     * with one hypercall's worth of overhead and all-or-nothing
     * semantics.  Each element runs hcEnclaveEvictPage's own
     * per-element step; per-page TLB invalidation replaces the per-call
     * domain flush (the SMP layer turns this into one vectored
     * shootdown); on the first failure every already-sealed page is
     * restored — contents, EPCM slot (same index), stage-1/2 mappings
     * and the anti-rollback ledger — leaving the state bit-identical to
     * the pre-batch state.
     */
    Expected<std::vector<SealedBlob>>
    hcEnclaveEvictPagesBatch(EnclaveId id, const std::vector<Gva> &gvas);

    /**
     * snapshot: quiesce the enclave and fold every EPC page through
     * evict-equivalent sealing into a single MAC'd image.  Rejected
     * while any vCPU is resident (the enclave must be quiesced), while
     * the enclave is not Initialized, or while pages are evicted (the
     * OS holds part of the state).  Versions are consumed from
     * nextSealVersion exactly like an evict-all fold; Fork leaves the
     * source intact, Move destroys it (remove-equivalent teardown).
     * Single-vCPU path flushes the TLB domain; the SMP wrapper runs
     * one vectored shootdown instead.
     */
    Expected<EnclaveImage> hcEnclaveSnapshot(EnclaveId id,
                                             SnapshotMode mode);

    /**
     * restore_image: rebuild an enclave from a snapshot on this host
     * (typically a twin machine).  Verifies the image MAC, the page
     * vector against the header (ImageTruncated), every per-page blob
     * MAC and digest (ImageAuthFailed), and the anti-rollback ledger
     * (ImageRollback: a measurement's images must restore in
     * non-decreasing versionBase order).  Construction runs init and
     * then reload_page's install step for every blob in one run, with
     * all-or-nothing rollback through the release step: any mid-build
     * failure unwinds to a state with no trace of the attempt and
     * returns the first error.
     *
     * @return the restored enclave's (fresh) id.
     */
    Expected<EnclaveId> hcEnclaveRestoreImage(const EnclaveImage &image);

    /// @}

    /// @name Dirty-page tracking (live-migration support)
    /// @{

    /**
     * Take the enclave's dirty log in one GPT walk: return the ELRANGE
     * pages whose level-1 entry carries the dirty bit, in ascending
     * gva order, and clear the bit on every dirty level-1 entry the
     * walk passes (the marshalling buffer's included).  Then flush the
     * TLB domain so the next write re-walks and re-stamps.  The walker
     * stamps the bit on write translations (see
     * PageTable::stampAccessedDirty).
     */
    Expected<std::vector<Gva>> takeEnclaveDirty(EnclaveId id);

    /**
     * Store into a resident enclave page through the dirty-stamping
     * translation path, as a resident vCPU's store would.  The
     * migration engine's workload model and the benches use this to
     * dirty pages without a full enter/exit round.
     */
    Status enclaveStore(EnclaveId id, Gva va, u64 value);

    /** Read from a resident enclave page (no dirty stamping). */
    Expected<u64> enclaveLoad(EnclaveId id, Gva va) const;

    /**
     * Every resident ELRANGE page of the enclave, in ascending gva
     * order (the pre-copy engine's round-0 work list).
     */
    Expected<std::vector<Gva>> enclaveResidentPages(EnclaveId id) const;

    /**
     * Copy one resident enclave page's words out (pre-copy transfer
     * read; no dirty stamping).  @p out must hold pageSize bytes.
     */
    Status enclaveReadPage(EnclaveId id, Gva page_va, u64 *out) const;

    /// @}

    /**
     * Two-stage translation for a running vCPU: GVA --GPT--> GPA
     * --EPT--> HPA, consulting and filling the TLB.
     *
     * @param vcpu the executing vCPU (mode selects the table roots).
     * @param va guest-virtual address.
     * @param is_write demand write permission on both stages.
     */
    Expected<Hpa> translate(VCpu &vcpu, Gva va, bool is_write);

    /**
     * TLB-less two-stage translation from explicit roots, for the
     * normal VM: the guest page table is addressed in guest-physical
     * space, so every stage-1 table access is itself EPT-translated.
     * Used by the checkers so they see the tables, not the cache.
     */
    Expected<Hpa> translateUncached(Hpa gpt_root, Hpa ept_root, Gva va,
                                    bool is_write) const;

    /**
     * TLB-less two-stage translation for an enclave: the GPT is
     * monitor-managed in secure memory and walked directly from its
     * host-physical root; only the resulting GPA goes through the EPT.
     */
    Expected<Hpa> translateEnclaveUncached(Hpa gpt_root, Hpa ept_root,
                                           Gva va, bool is_write) const;

    /** A guest writes a new GPT root (MOV CR3 in the normal VM). */
    Status guestSetGptRoot(VCpu &vcpu, Hpa new_root);

    /**
     * The image anti-rollback ledger: highest versionBase restored so
     * far, per source measurement.  Read-only view for the checkers.
     */
    const std::map<u64, u64> &restoredImageLedger() const
    {
        return imageLedger;
    }

  private:
    /** Shared init validation; returns the id to use. */
    Expected<EnclaveId> validateInitConfig(const EnclaveConfig &config);

    /**
     * hcEnclaveInit without its hypercall scope and without counting
     * the enclave as created, so restore runs it under its own scope
     * and a restore that fails after it leaves the creation count
     * alone.
     */
    Expected<EnclaveId> initEnclave(const EnclaveConfig &config);

    /**
     * One enclave's GPT and EPT bound to a frame source, plus the leaf
     * cursors and the EPCM scan hint that a run of page steps shares.
     * A single-page hypercall steps a fresh run (every map walks from
     * the root, every EPC grant scans from index 0); a batch steps one
     * run across its elements, which is the same while nothing is
     * freed between grants.
     */
    struct PageRun
    {
        PageRun(PhysMem &mem, FrameSource &frames, const Enclave &enclave);

        PageTable gpt;
        PageTable ept;
        PageTable::LeafCursor gptCursor;
        PageTable::LeafCursor eptCursor;
        u64 epcHint = 0;
    };

    /** Where one enclave page lives: gva -> gpaSlot -> epcPage. */
    struct PlacedPage
    {
        u64 gva;
        u64 gpaSlot;
        Hpa epcPage;
    };

    /** A resident page as the lookup step found it. */
    struct ResidentPage : PlacedPage
    {
        PteFlags gptFlags;
        PteFlags eptFlags;
        EpcmEntry entry;
    };

    /**
     * The install step, where every enclave page gains its owner: map
     * gva -> gpa_slot in the GPT, take an EPC page for (owner,
     * epcm_lin_addr, kind) at the run's scan hint, and map gpa_slot ->
     * page in the EPT with ept_flags.  On failure it undoes the stages
     * it did and returns the error.
     */
    Expected<PlacedPage> installPage(PageRun &run, EnclaveId owner, Gva gva,
                                     u64 gpa_slot, Gva epcm_lin_addr,
                                     AddPageKind kind, PteFlags ept_flags);

    /**
     * The release step, where every evicted or rolled-back page loses
     * its owner: unmap both stages, scrub the frame and free it.  The
     * caller owns the TLB action.
     */
    void releasePage(PageRun &run, const PlacedPage &page);

    /**
     * The lookup step: GPT query -> EPT query -> EPC range -> EPCM
     * owner.  NotMapped if a stage misses, IsolationViolation if the
     * frame is not an EPC page owned by @p id.
     */
    Expected<ResidentPage> lookupPage(const PageRun &run, EnclaveId id,
                                      Gva gva) const;

    /** The seal step: fill @p blob from @p page at @p version and MAC it. */
    void sealPage(SealedBlob &blob, const ResidentPage &page,
                  u64 version) const;

    /** Install a blob's page at its recorded slot and copy its words in. */
    Expected<PlacedPage> placeBlob(PageRun &run, EnclaveId id,
                                   const SealedBlob &blob);

    /**
     * The first half of one add_page element, shared by the single call
     * and the batch: validate in fold order and install at the next
     * EPC GPA slot.  The caller copies the initial contents in and then
     * runs measureAddedPage.
     */
    Expected<PlacedPage> placeAddedPage(PageRun &run, const Enclave &enclave,
                                        const AddPageRequest &req);

    /**
     * The second half: fold the copied page into the measurement,
     * record the first TCS entry point, run the planted frame double
     * free, and bump addedPages.
     */
    void measureAddedPage(PageRun &run, Enclave &enclave,
                          const AddPageRequest &req, Hpa epc_page);

    /**
     * One evict_page element, shared by the single call and the batch:
     * validate, look the page up, seal it into @p blob at the next
     * version, release it and record the version.  Flushes no TLB.
     */
    Expected<ResidentPage> evictPage(PageRun &run, Enclave &enclave,
                                     Gva page_gva, SealedBlob &blob);

    /** Map the marshalling buffer into an enclave's GPT and EPT. */
    Status mapMarshallingBuffer(Enclave &enclave);

    /** Scrub an EPC page before releasing it. */
    void scrubPage(Hpa page);

    /**
     * The one teardown path, shared by remove and a Move snapshot:
     * scrub and free the enclave's EPC pages, destroy its GPT and EPT,
     * and erase its record.  Flushes no TLB; the callers own that.
     */
    void teardownEnclave(const Enclave &enclave);

    MonitorConfig cfg;
    PhysMem physMem;
    FrameAllocator frameAlloc;
    Epcm epcMap;
    Tlb tlbModel;
    std::unique_ptr<PageTable> normalEpt;
    /** Live enclaves only; teardownEnclave erases the record. */
    std::map<EnclaveId, Enclave> enclaves;
    /** Ids are monotonic and never reused: an id below this that is
     *  missing from enclaves was removed (NoSuchEnclave). */
    EnclaveId nextEnclaveId = 1;
    MonitorStats statCounters;
    /** measurement -> highest restored versionBase (anti-rollback). */
    std::map<u64, u64> imageLedger;
};

} // namespace hev::hv

#endif // HEV_HV_MONITOR_HH
