/**
 * @file
 * Functional specifications of the 15 layers, over the flat state.
 *
 * Each function here is the Coq-style specification of one function of
 * the memory module: a pure-looking transformer
 * `(Args, AbsState) -> (Ret, AbsState)` realized as C++ mutating a
 * FlatState.  The MIR models in src/mirmodels must conform to these
 * exactly; the conformance checker (ccal/checker.hh) is the executable
 * stand-in for the paper's code proofs.
 *
 * Layer map (paper Sec. 4: 15 layers, frame allocation -> isolation):
 *   L1  trusted primitives      (flat_state.cc, registerTrustedLayer)
 *   L2  frame allocator         specFrameAlloc / specFrameFree
 *   L3  PTE packing             specPteMake / specPteAddr / ...
 *   L4  VA index extraction     specVaIndex
 *   L5  entry access            specEntryRead / specEntryWrite
 *   L6  next-table resolution   specNextTable
 *   L7  table walk              specWalkToLeaf
 *   L8  query                   specPtQuery
 *   L9  map                     specPtMap
 *   L10 unmap                   specPtUnmap
 *   L11 address spaces (RData)  specAsCreate / specAsMap / ...
 *   L12 EPCM                    specEpcmAlloc / specEpcmFree
 *   L13 marshalling buffer      specMbufMap
 *   L14 hypercalls              specHcInit / specHcAddPage / ...
 *   L15 memory isolation iface  specMemTranslate
 */

#ifndef HEV_CCAL_SPECS_HH
#define HEV_CCAL_SPECS_HH

#include <string>
#include <vector>

#include "ccal/flat_state.hh"

namespace hev::ccal::spec
{

/** Result of a fallible spec returning a value. */
struct IntResult
{
    bool isOk = false;
    i64 errCode = 0;  //!< valid iff !isOk
    u64 value = 0;    //!< valid iff isOk

    static IntResult
    ok(u64 v)
    {
        return {true, 0, v};
    }

    static IntResult
    err(i64 code)
    {
        return {false, code, 0};
    }

    bool operator==(const IntResult &) const = default;
};

/** Result of a translation-style query. */
struct QueryResult
{
    bool isSome = false;
    u64 physAddr = 0;
    u64 flags = 0;

    static QueryResult
    some(u64 pa, u64 fl)
    {
        return {true, pa, fl};
    }

    static QueryResult none() { return {}; }

    bool operator==(const QueryResult &) const = default;
};

/// @name L2 — frame allocator
/// @{

/** First-fit allocation of a zeroed frame; 0 means out of memory. */
u64 specFrameAlloc(FlatState &s);

/** Release a frame; returns 0 or an error code. */
i64 specFrameFree(FlatState &s, u64 frame);

/** Two consecutive allocations; each element 0 on exhaustion. */
struct FramePair
{
    u64 first = 0;
    u64 second = 0;

    bool operator==(const FramePair &) const = default;
};

FramePair specFrameAllocPair(FlatState &s);

/// @}

/// @name L3 — PTE packing (pure)
/// @{

u64 specPteMake(u64 addr, u64 flags);
/** Builder-idiom equivalent of specPteMake (pte_build conformance). */
u64 specPteBuild(u64 addr, u64 flags);
u64 specPteAddr(u64 entry);
u64 specPteFlags(u64 entry);
bool specPtePresent(u64 entry);
bool specPteHuge(u64 entry);
bool specPteWritable(u64 entry);
/** Entry with the walker's dirty bit set (write-fault stamping). */
u64 specPteSetDirty(u64 entry);
/** Entry with the dirty bit cleared (pre-copy round reset). */
u64 specPteClearDirty(u64 entry);

/// @}

/// @name L4 — VA decomposition (pure)
/// @{

/** Table index of va at paging level (4 = root .. 1 = leaf). */
u64 specVaIndex(u64 va, i64 level);

/// @}

/// @name L5 — entry access
/// @{

u64 specEntryRead(const FlatState &s, u64 table, u64 index);
void specEntryWrite(FlatState &s, u64 table, u64 index, u64 entry);

/// @}

/// @name L6/L7 — walking
/// @{

/**
 * Resolve the child table behind (table, index), allocating it when
 * `alloc_missing` and absent.  Errors: errAlreadyMapped on a huge
 * entry, errNotMapped on a miss without allocation, errOutOfMemory.
 */
IntResult specNextTable(FlatState &s, u64 table, u64 index,
                        bool alloc_missing);

/** Walk from the root to the level-1 table containing va's leaf. */
IntResult specWalkToLeaf(FlatState &s, u64 root, u64 va,
                         bool alloc_missing);

/// @}

/// @name L8/L9/L10 — query, map, unmap
/// @{

/** The page walk: terminal entry covering va, honoring huge pages. */
QueryResult specPtQuery(const FlatState &s, u64 root, u64 va);

/** Install a 4 KiB mapping; 0 on success, error code otherwise. */
i64 specPtMap(FlatState &s, u64 root, u64 va, u64 pa, u64 flags);

/** True iff a map request's flags carry the huge bit. */
bool specMapReqHuge(u64 flags);

/** Strict map: rejects the huge bit instead of stripping it. */
i64 specPtMapChecked(FlatState &s, u64 root, u64 va, u64 pa, u64 flags);

/** Remove a 4 KiB mapping. */
i64 specPtUnmap(FlatState &s, u64 root, u64 va);

/**
 * Free every table frame of the tree rooted at `table` (level 4 at
 * the root), leaf tables first; terminal pages are untouched.
 * Returns the root's frame_free result.
 */
i64 specPtDestroy(FlatState &s, u64 table, i64 level);

/// @}

/// @name L11 — address spaces (the RData layer)
/// @{

/** Create an empty address space; value is the opaque handle. */
IntResult specAsCreate(FlatState &s);

i64 specAsMap(FlatState &s, i64 handle, u64 va, u64 pa, u64 flags);
QueryResult specAsQuery(const FlatState &s, i64 handle, u64 va);
i64 specAsUnmap(FlatState &s, i64 handle, u64 va);

/** Tear the address space down: free its tables, retire the handle. */
i64 specAsDestroy(FlatState &s, i64 handle);

/// @}

/// @name L12 — EPCM
/// @{

/** Allocate an EPC page to an enclave; value is the page base. */
IntResult specEpcmAlloc(FlatState &s, i64 owner, u64 lin_addr, i64 kind);

i64 specEpcmFree(FlatState &s, u64 page);

/** State code (epcStateFree/Reg/Tcs) of an EPC page. */
IntResult specEpcmLookup(const FlatState &s, u64 page);

/** Owner id of a used EPC page; errNotMapped when free. */
IntResult specEpcmOwner(const FlatState &s, u64 page);

/// @}

/// @name L13 — marshalling buffer
/// @{

i64 specMbufMap(FlatState &s, i64 gpt_handle, i64 ept_handle,
                u64 mbuf_gva, u64 gpa_window, u64 backing, u64 pages);

/**
 * Audit a marshalling buffer's two-stage mappings: every page of the
 * window must still translate gva -> window -> backing with read-write
 * flags on both stages.  errNotMapped on a missing stage, errIsolation
 * on a retargeted one.
 */
i64 specMbufCheck(const FlatState &s, i64 gpt_handle, i64 ept_handle,
                  u64 mbuf_gva, u64 gpa_window, u64 backing, u64 pages);

/// @}

/// @name L14 — hypercalls
/// @{

/** init (ECREATE): validate geometry, build tables, map the mbuf. */
IntResult specHcInit(FlatState &s, u64 el_start, u64 el_end, u64 mbuf_gva,
                     u64 mbuf_pages, u64 backing);

/** add_page (EADD). */
i64 specHcAddPage(FlatState &s, i64 id, u64 gva, u64 src, i64 kind);

/** init_finish (EINIT). */
i64 specHcInitFinish(FlatState &s, i64 id);

/**
 * remove (EREMOVE): scrub and free the enclave's EPC pages, destroy
 * both its address spaces, and retire the enclave id.
 */
i64 specHcRemove(FlatState &s, i64 id);

/**
 * evict_page (EWB): seal a resident ELRANGE page into an abstract
 * sealed record, unmap it from both stages, free its EPCM entry and
 * erase its content token.  Value is the sealed version counter.
 */
IntResult specHcEvictPage(FlatState &s, i64 id, u64 gva);

/**
 * reload_page (ELD): restore an evicted page from its sealed record.
 * `blob_owner` and `blob_version` are the fields of the blob the OS
 * presents; the spec rejects a foreign owner with errSealAuth and a
 * stale version with errSealRollback, mirroring the monitor's typed
 * verdicts.
 */
i64 specHcReloadPage(FlatState &s, i64 id, i64 blob_owner, u64 gva,
                     u64 blob_version);

/// @}

/// @name L14b — batched hypercalls
/// @{

/** One element of an add_pages batch (one EADD request). */
struct SpecAddPageOp
{
    u64 gva = 0;
    u64 src = 0;
    i64 kind = epcStateReg;

    bool operator==(const SpecAddPageOp &) const = default;
};

/**
 * add_pages_batch: all-or-nothing fold of specHcAddPage.  Returns 0 and
 * commits every element, or returns the error the fold's *first*
 * failing element produces and leaves `s` exactly as it was.  Realized
 * as a single-pass fold over a scratch copy committed on success — the
 * only spec shape that preserves the fold's error channel (a
 * validate-everything-first pass can report a later element's error
 * when an earlier one only fails against intermediate state; see
 * docs/BATCHING.md).
 */
i64 specHcAddPagesBatch(FlatState &s, i64 id,
                        const std::vector<SpecAddPageOp> &ops);

/**
 * evict_pages_batch: all-or-nothing fold of specHcEvictPage.  On
 * success the value is the element count and `versions`, when non-null,
 * receives the sealed version of each element in batch order.  On
 * failure the fold's first error is returned, `s` is untouched and
 * `versions` is not written.
 */
IntResult specHcEvictPagesBatch(FlatState &s, i64 id,
                                const std::vector<u64> &gvas,
                                std::vector<u64> *versions = nullptr);

/** Verdict of a batch≡fold equivalence check. */
struct BatchEquivalence
{
    bool equivalent = true;
    std::string detail;  //!< first divergence found, for diagnostics
};

/**
 * The batch≡fold theorem for add_pages, checked executably from `pre`:
 *  - fold succeeds  => batch succeeds and the states are equal;
 *  - fold fails at element k with error e => batch fails with exactly
 *    e and leaves the state equal to `pre` (all-or-nothing);
 *  - on success, the tree-level batch (treeApplyBatch of the implied
 *    gpt mappings) lands on the lift of the flat batch result.
 */
BatchEquivalence checkAddBatchFold(const FlatState &pre, i64 id,
                                   const std::vector<SpecAddPageOp> &ops);

/** The batch≡fold theorem for evict_pages; same obligations. */
BatchEquivalence checkEvictBatchFold(const FlatState &pre, i64 id,
                                     const std::vector<u64> &gvas);

/// @}

/// @name L14c — snapshot / restore (migration)
/// @{

/**
 * snapshot: fold a quiesced enclave's resident pages into an abstract
 * image.  Pages are enumerated in ascending enclave-linear order and
 * sealed at versionBase + i with versionBase = nextSealVersion; the
 * counter advances past the run, exactly as an evict-all fold would
 * consume it.  `measurement` is the opaque token the concrete monitor
 * computes (the fold over page contents); the abstract machine treats
 * it as data.  With `move_source` the source's pages move into its
 * evicted set and the enclave is torn down (evict-all + remove);
 * without it the source keeps running untouched (fork).  Rejected with
 * errBadState while the enclave is un-initialized or has evicted
 * pages in OS custody.  Returns 0 and fills *out on success.
 */
i64 specHcSnapshot(FlatState &s, i64 id, bool move_source,
                   u64 measurement, AbsImage *out);

/**
 * restore_image: rebuild an enclave from an abstract image on this
 * host.  Typed rejections in monitor order: errImageTruncated when the
 * page vector contradicts the header, errImageAuth when the image is
 * not authentic (the MAC verdict, abstracted), errImageRollback when
 * the ledger has already accepted this measurement at an equal-or-
 * later versionBase.  The build itself is all-or-nothing: a mid-build
 * failure (EPC or frame exhaustion on this host) leaves the state
 * exactly as it was.  Value is the new enclave id.
 */
IntResult specHcRestoreImage(FlatState &s, const AbsImage &img);

/**
 * The migration ≡ quiesced-fold theorem, checked executably from the
 * two hosts' pre-states: migrating enclave `id` from `src_pre` to
 * `dst_pre` (snapshot + restore_image) must agree with the quiesced
 * copy semantics — an evict-all fold on the source (plus remove when
 * moving) and an init + reload-all fold of the sealed records on the
 * destination:
 *  - the quiesce preconditions reject with the same error both ways;
 *  - a destination-side fold failure at element k with error e means
 *    restore fails with exactly e and leaves the destination equal to
 *    `dst_pre` (all-or-nothing), while the source still committed the
 *    same post-state both ways;
 *  - on success both hosts' states are equal pairwise across the two
 *    paths, and the tree-level image of the page installs lands on
 *    the lift of the restored GPT.
 */
BatchEquivalence checkMigrateQuiescedFold(const FlatState &src_pre,
                                          const FlatState &dst_pre,
                                          i64 id, bool move_source,
                                          u64 measurement);

/// @}

/// @name L15 — memory isolation interface
/// @{

/** Two-stage translation through a GPT handle then an EPT handle. */
QueryResult specMemTranslate(const FlatState &s, i64 gpt_handle,
                             i64 ept_handle, u64 va, bool is_write);

/// @}

} // namespace hev::ccal::spec

#endif // HEV_CCAL_SPECS_HH
