#include "ccal/specs.hh"

#include <algorithm>
#include <utility>

#include "ccal/checker.hh"
#include "ccal/tree_state.hh"

namespace hev::ccal::spec
{

u64
specFrameAlloc(FlatState &s)
{
    for (u64 i = 0; i < s.geo.frameCount; ++i) {
        if (!s.allocated[i]) {
            s.allocated[i] = true;
            const u64 frame = s.frameAt(i);
            s.zeroFrame(frame);
            return frame;
        }
    }
    return 0;
}

i64
specFrameFree(FlatState &s, u64 frame)
{
    if (frame % pageSize != 0 || !s.geo.inFrameArea(frame))
        return errInvalidParam;
    const u64 index = (frame - s.geo.frameBase) / pageSize;
    if (!s.allocated[index])
        return errInvalidParam;
    s.allocated[index] = false;
    return 0;
}

u64
specPteMake(u64 addr, u64 flags)
{
    return (addr & pteAddrMask) | (flags & ~pteAddrMask);
}

u64
specPteBuild(u64 addr, u64 flags)
{
    // Sealing masks the flags to the non-address bits; packing then
    // behaves exactly like specPteMake.
    return specPteMake(addr, flags & ~pteAddrMask);
}

FramePair
specFrameAllocPair(FlatState &s)
{
    FramePair pair;
    pair.first = specFrameAlloc(s);
    pair.second = specFrameAlloc(s);
    return pair;
}

u64
specPteAddr(u64 entry)
{
    return entry & pteAddrMask;
}

u64
specPteFlags(u64 entry)
{
    return entry & ~pteAddrMask;
}

bool
specPtePresent(u64 entry)
{
    return entry & pteFlagP;
}

bool
specPteHuge(u64 entry)
{
    return entry & pteFlagHuge;
}

bool
specPteWritable(u64 entry)
{
    return entry & pteFlagW;
}

u64
specPteSetDirty(u64 entry)
{
    return entry | pteFlagDirty;
}

u64
specPteClearDirty(u64 entry)
{
    return entry & ~pteFlagDirty;
}

u64
specVaIndex(u64 va, i64 level)
{
    return (va >> (12 + 9 * (level - 1))) & 0x1ff;
}

u64
specEntryRead(const FlatState &s, u64 table, u64 index)
{
    return s.readEntry(table, index);
}

void
specEntryWrite(FlatState &s, u64 table, u64 index, u64 entry)
{
    s.writeEntry(table, index, entry);
}

IntResult
specNextTable(FlatState &s, u64 table, u64 index, bool alloc_missing)
{
    const u64 entry = specEntryRead(s, table, index);
    if (specPtePresent(entry)) {
        if (specPteHuge(entry))
            return IntResult::err(errAlreadyMapped);
        return IntResult::ok(specPteAddr(entry));
    }
    if (!alloc_missing)
        return IntResult::err(errNotMapped);
    const u64 frame = specFrameAlloc(s);
    if (frame == 0)
        return IntResult::err(errOutOfMemory);
    specEntryWrite(s, table, index, specPteMake(frame, pteLinkFlags));
    return IntResult::ok(frame);
}

IntResult
specWalkToLeaf(FlatState &s, u64 root, u64 va, bool alloc_missing)
{
    u64 table = root;
    for (i64 level = pagingLevels; level > 1; --level) {
        IntResult next =
            specNextTable(s, table, specVaIndex(va, level), alloc_missing);
        if (!next.isOk)
            return next;
        table = next.value;
    }
    return IntResult::ok(table);
}

QueryResult
specPtQuery(const FlatState &s, u64 root, u64 va)
{
    u64 table = root;
    for (i64 level = pagingLevels; level >= 1; --level) {
        const u64 entry = specEntryRead(s, table, specVaIndex(va, level));
        if (!specPtePresent(entry))
            return QueryResult::none();
        if (level == 1 || specPteHuge(entry)) {
            const u64 span = 1ull << (12 + 9 * (level - 1));
            return QueryResult::some(
                specPteAddr(entry) + (va & (span - 1)),
                specPteFlags(entry));
        }
        table = specPteAddr(entry);
    }
    return QueryResult::none(); // unreachable
}

i64
specPtMap(FlatState &s, u64 root, u64 va, u64 pa, u64 flags)
{
    if (va % pageSize != 0 || pa % pageSize != 0)
        return errNotAligned;
    if (!(flags & pteFlagP))
        return errInvalidParam;
    IntResult leaf = specWalkToLeaf(s, root, va, true);
    if (!leaf.isOk)
        return leaf.errCode;
    const u64 index = specVaIndex(va, 1);
    if (specPtePresent(specEntryRead(s, leaf.value, index)))
        return errAlreadyMapped;
    specEntryWrite(s, leaf.value, index,
                   specPteMake(pa, flags & ~pteFlagHuge));
    return 0;
}

bool
specMapReqHuge(u64 flags)
{
    return flags & pteFlagHuge;
}

i64
specPtMapChecked(FlatState &s, u64 root, u64 va, u64 pa, u64 flags)
{
    if (specMapReqHuge(flags))
        return errInvalidParam;
    return specPtMap(s, root, va, pa, flags);
}

i64
specPtUnmap(FlatState &s, u64 root, u64 va)
{
    if (va % pageSize != 0)
        return errNotAligned;
    IntResult leaf = specWalkToLeaf(s, root, va, false);
    if (!leaf.isOk)
        return leaf.errCode;
    const u64 index = specVaIndex(va, 1);
    if (!specPtePresent(specEntryRead(s, leaf.value, index)))
        return errNotMapped;
    specEntryWrite(s, leaf.value, index, 0);
    return 0;
}

i64
specPtDestroy(FlatState &s, u64 table, i64 level)
{
    for (u64 index = 0; index < entriesPerTable; ++index) {
        const u64 entry = specEntryRead(s, table, index);
        if (!specPtePresent(entry) || level <= 1 ||
            specPteHuge(entry))
            continue;
        (void)specPtDestroy(s, specPteAddr(entry), level - 1);
    }
    return specFrameFree(s, table);
}

IntResult
specAsCreate(FlatState &s)
{
    const u64 root = specFrameAlloc(s);
    if (root == 0)
        return IntResult::err(errOutOfMemory);
    const i64 handle = s.nextHandle++;
    s.asRoots[handle] = root;
    return IntResult::ok(u64(handle));
}

i64
specAsMap(FlatState &s, i64 handle, u64 va, u64 pa, u64 flags)
{
    const u64 root = s.rootOf(handle);
    if (root == 0)
        return errForeignHandle;
    return specPtMap(s, root, va, pa, flags);
}

QueryResult
specAsQuery(const FlatState &s, i64 handle, u64 va)
{
    const u64 root = s.rootOf(handle);
    if (root == 0)
        return QueryResult::none();
    return specPtQuery(s, root, va);
}

i64
specAsUnmap(FlatState &s, i64 handle, u64 va)
{
    const u64 root = s.rootOf(handle);
    if (root == 0)
        return errForeignHandle;
    return specPtUnmap(s, root, va);
}

i64
specAsDestroy(FlatState &s, i64 handle)
{
    const u64 root = s.rootOf(handle);
    if (root == 0)
        return errForeignHandle;
    const i64 rc = specPtDestroy(s, root, pagingLevels);
    s.asRoots.erase(handle);
    return rc;
}

IntResult
specEpcmAlloc(FlatState &s, i64 owner, u64 lin_addr, i64 kind)
{
    if (owner <= 0 || (kind != epcStateReg && kind != epcStateTcs))
        return IntResult::err(errInvalidParam);
    for (u64 i = 0; i < s.geo.epcCount; ++i) {
        if (s.epcm[i].state == epcStateFree) {
            s.epcm[i] = {kind, owner, lin_addr};
            return IntResult::ok(s.geo.epcBase + i * pageSize);
        }
    }
    return IntResult::err(errOutOfEpc);
}

i64
specEpcmFree(FlatState &s, u64 page)
{
    if (page % pageSize != 0 || !s.geo.inEpc(page))
        return errInvalidParam;
    const u64 index = (page - s.geo.epcBase) / pageSize;
    if (s.epcm[index].state == epcStateFree)
        return errInvalidParam;
    s.epcm[index] = AbsEpcmEntry{};
    return 0;
}

IntResult
specEpcmLookup(const FlatState &s, u64 page)
{
    if (page % pageSize != 0 || !s.geo.inEpc(page))
        return IntResult::err(errInvalidParam);
    const u64 index = (page - s.geo.epcBase) / pageSize;
    return IntResult::ok(u64(s.epcm[index].state));
}

IntResult
specEpcmOwner(const FlatState &s, u64 page)
{
    if (page % pageSize != 0 || !s.geo.inEpc(page))
        return IntResult::err(errInvalidParam);
    const u64 index = (page - s.geo.epcBase) / pageSize;
    if (s.epcm[index].state == epcStateFree)
        return IntResult::err(errNotMapped);
    return IntResult::ok(u64(s.epcm[index].owner));
}

i64
specMbufMap(FlatState &s, i64 gpt_handle, i64 ept_handle, u64 mbuf_gva,
            u64 gpa_window, u64 backing, u64 pages)
{
    for (u64 i = 0; i < pages; ++i) {
        const u64 off = i * pageSize;
        i64 rc = specAsMap(s, gpt_handle, mbuf_gva + off,
                           gpa_window + off, pteRwFlags);
        if (rc != 0)
            return rc;
        rc = specAsMap(s, ept_handle, gpa_window + off, backing + off,
                       pteRwFlags);
        if (rc != 0)
            return rc;
    }
    return 0;
}

i64
specMbufCheck(const FlatState &s, i64 gpt_handle, i64 ept_handle,
              u64 mbuf_gva, u64 gpa_window, u64 backing, u64 pages)
{
    for (u64 i = 0; i < pages; ++i) {
        const u64 off = i * pageSize;
        const QueryResult stage1 =
            specAsQuery(s, gpt_handle, mbuf_gva + off);
        if (!stage1.isSome)
            return errNotMapped;
        if (stage1.physAddr != gpa_window + off ||
            !(stage1.flags & pteFlagW))
            return errIsolation;
        const QueryResult stage2 =
            specAsQuery(s, ept_handle, gpa_window + off);
        if (!stage2.isSome)
            return errNotMapped;
        if (stage2.physAddr != backing + off ||
            !(stage2.flags & pteFlagW))
            return errIsolation;
    }
    return 0;
}

IntResult
specHcInit(FlatState &s, u64 el_start, u64 el_end, u64 mbuf_gva,
           u64 mbuf_pages, u64 backing)
{
    if (el_start >= el_end || el_start % pageSize != 0 ||
        el_end % pageSize != 0)
        return IntResult::err(errInvalidParam);
    if (mbuf_pages == 0 || mbuf_gva % pageSize != 0)
        return IntResult::err(errInvalidParam);
    if (backing % pageSize != 0)
        return IntResult::err(errNotAligned);
    const u64 mbuf_end = mbuf_gva + mbuf_pages * pageSize;
    // Enclave invariant: ELRANGE and the marshalling buffer disjoint.
    if (!(mbuf_end <= el_start || mbuf_gva >= el_end))
        return IntResult::err(errIsolation);
    // The backing must be normal memory.
    if (!s.geo.inNormal(backing, mbuf_pages * pageSize))
        return IntResult::err(errIsolation);

    const IntResult gpt = specAsCreate(s);
    if (!gpt.isOk)
        return gpt;
    const IntResult ept = specAsCreate(s);
    if (!ept.isOk)
        return ept;
    const i64 rc =
        specMbufMap(s, i64(gpt.value), i64(ept.value), mbuf_gva,
                    s.geo.mbufGpaBase, backing, mbuf_pages);
    if (rc != 0)
        return IntResult::err(rc);

    AbsEnclave enclave;
    enclave.elStart = el_start;
    enclave.elEnd = el_end;
    enclave.mbufGva = mbuf_gva;
    enclave.mbufPages = mbuf_pages;
    enclave.mbufBacking = backing;
    enclave.gptHandle = i64(gpt.value);
    enclave.eptHandle = i64(ept.value);
    const i64 id = s.nextEnclave++;
    s.enclaves[id] = enclave;
    return IntResult::ok(u64(id));
}

i64
specHcAddPage(FlatState &s, i64 id, u64 gva, u64 src, i64 kind)
{
    auto it = s.enclaves.find(id);
    if (it == s.enclaves.end() || it->second.state == enclStateDead)
        return errNoSuchEnclave;
    AbsEnclave &enclave = it->second;
    if (enclave.state != enclStateAdding)
        return errBadState;
    if (gva % pageSize != 0 || src % pageSize != 0)
        return errNotAligned;
    if (!(enclave.elStart <= gva && gva + pageSize <= enclave.elEnd))
        return errIsolation;
    if (!s.geo.inNormal(src, pageSize))
        return errIsolation;

    const u64 gpa = s.geo.epcGpaBase + enclave.addedPages * pageSize;
    i64 rc = specAsMap(s, enclave.gptHandle, gva, gpa, pteRwFlags);
    if (rc != 0)
        return rc;
    const IntResult page = specEpcmAlloc(s, id, gva, kind);
    if (!page.isOk) {
        (void)specAsUnmap(s, enclave.gptHandle, gva);
        return page.errCode;
    }
    rc = specAsMap(s, enclave.eptHandle, gpa, page.value, pteRwFlags);
    if (rc != 0) {
        (void)specAsUnmap(s, enclave.gptHandle, gva);
        (void)specEpcmFree(s, page.value);
        return rc;
    }
    s.pageContents[page.value] = src;
    ++enclave.addedPages;
    if (kind == epcStateTcs)
        ++enclave.tcsPages;
    return 0;
}

i64
specHcInitFinish(FlatState &s, i64 id)
{
    auto it = s.enclaves.find(id);
    if (it == s.enclaves.end() || it->second.state == enclStateDead)
        return errNoSuchEnclave;
    if (it->second.state != enclStateAdding)
        return errBadState;
    if (it->second.tcsPages == 0)
        return errInvalidParam;
    it->second.state = enclStateInitialized;
    return 0;
}

i64
specHcRemove(FlatState &s, i64 id)
{
    auto it = s.enclaves.find(id);
    if (it == s.enclaves.end() || it->second.state == enclStateDead)
        return errNoSuchEnclave;
    AbsEnclave &enclave = it->second;

    // Scrub and free every EPC page the enclave owns.
    for (u64 index = 0; index < s.geo.epcCount; ++index) {
        if (s.epcm[index].state == epcStateFree ||
            s.epcm[index].owner != id)
            continue;
        const u64 page = s.geo.epcBase + index * pageSize;
        s.pageContents.erase(page);
        s.epcm[index] = AbsEpcmEntry{};
    }

    (void)specAsDestroy(s, enclave.gptHandle);
    (void)specAsDestroy(s, enclave.eptHandle);
    enclave.state = enclStateDead;
    return 0;
}

IntResult
specHcEvictPage(FlatState &s, i64 id, u64 gva)
{
    auto it = s.enclaves.find(id);
    if (it == s.enclaves.end() || it->second.state == enclStateDead)
        return IntResult::err(errNoSuchEnclave);
    AbsEnclave &enclave = it->second;
    if (enclave.state != enclStateInitialized)
        return IntResult::err(errBadState);
    if (gva % pageSize != 0)
        return IntResult::err(errNotAligned);
    if (!(enclave.elStart <= gva && gva + pageSize <= enclave.elEnd))
        return IntResult::err(errIsolation);

    const QueryResult stage1 = specAsQuery(s, enclave.gptHandle, gva);
    if (!stage1.isSome)
        return IntResult::err(errNotMapped);
    const u64 gpa_slot = stage1.physAddr & ~(pageSize - 1);
    const QueryResult stage2 =
        specAsQuery(s, enclave.eptHandle, gpa_slot);
    if (!stage2.isSome)
        return IntResult::err(errNotMapped);
    const u64 page = stage2.physAddr & ~(pageSize - 1);
    if (!s.geo.inEpc(page))
        return IntResult::err(errIsolation);
    const u64 index = (page - s.geo.epcBase) / pageSize;
    if (s.epcm[index].state == epcStateFree ||
        s.epcm[index].owner != id)
        return IntResult::err(errIsolation);

    AbsSealedPage sealed;
    sealed.gpaSlot = gpa_slot;
    sealed.kind = s.epcm[index].state;
    sealed.version = enclave.nextSealVersion++;
    const auto content = s.pageContents.find(page);
    if (content != s.pageContents.end()) {
        sealed.content = content->second;
        sealed.hasContent = true;
    }

    (void)specAsUnmap(s, enclave.gptHandle, gva);
    (void)specAsUnmap(s, enclave.eptHandle, gpa_slot);
    (void)specEpcmFree(s, page);
    s.pageContents.erase(page);
    enclave.evicted[gva] = sealed;
    return IntResult::ok(sealed.version);
}

i64
specHcReloadPage(FlatState &s, i64 id, i64 blob_owner, u64 gva,
                 u64 blob_version)
{
    auto it = s.enclaves.find(id);
    if (it == s.enclaves.end() || it->second.state == enclStateDead)
        return errNoSuchEnclave;
    AbsEnclave &enclave = it->second;
    if (enclave.state != enclStateInitialized)
        return errBadState;
    // Cross-enclave replay: a blob sealed for another enclave fails
    // authenticity, exactly as the monitor's MAC+owner check does.
    if (blob_owner != id)
        return errSealAuth;
    const auto rec = enclave.evicted.find(gva);
    if (rec == enclave.evicted.end())
        return errNotMapped;
    if (blob_version != rec->second.version)
        return errSealRollback;
    const AbsSealedPage sealed = rec->second;

    // Mirror add_page's map/alloc/map order (and hv's reload).
    i64 rc = specAsMap(s, enclave.gptHandle, gva, sealed.gpaSlot,
                       pteRwFlags);
    if (rc != 0)
        return rc;
    const IntResult page = specEpcmAlloc(s, id, gva, sealed.kind);
    if (!page.isOk) {
        (void)specAsUnmap(s, enclave.gptHandle, gva);
        return page.errCode;
    }
    rc = specAsMap(s, enclave.eptHandle, sealed.gpaSlot, page.value,
                   pteRwFlags);
    if (rc != 0) {
        (void)specAsUnmap(s, enclave.gptHandle, gva);
        (void)specEpcmFree(s, page.value);
        return rc;
    }
    if (sealed.hasContent)
        s.pageContents[page.value] = sealed.content;
    enclave.evicted.erase(gva);
    return 0;
}

i64
specHcAddPagesBatch(FlatState &s, i64 id,
                    const std::vector<SpecAddPageOp> &ops)
{
    // Single-pass fold over a scratch copy, committed on success.  A
    // validate-everything-first shape cannot reproduce the fold's
    // error channel: element k may be valid against the pre-state yet
    // fail in the fold because element j < k consumed the last EPC
    // page or mapped the same gva first.
    FlatState scratch = s;
    for (const SpecAddPageOp &op : ops) {
        if (const i64 rc =
                specHcAddPage(scratch, id, op.gva, op.src, op.kind);
            rc != 0)
            return rc;
    }
    s = std::move(scratch);
    return 0;
}

IntResult
specHcEvictPagesBatch(FlatState &s, i64 id, const std::vector<u64> &gvas,
                      std::vector<u64> *versions)
{
    FlatState scratch = s;
    std::vector<u64> sealed;
    sealed.reserve(gvas.size());
    for (const u64 gva : gvas) {
        const IntResult r = specHcEvictPage(scratch, id, gva);
        if (!r.isOk)
            return r;
        sealed.push_back(r.value);
    }
    s = std::move(scratch);
    if (versions)
        *versions = std::move(sealed);
    return IntResult::ok(u64(gvas.size()));
}

namespace
{

/**
 * Shared tail of the two batch≡fold checkers: compare the batch
 * outcome against the fold outcome, then (on success) check that the
 * tree-level batch `tree_ops` applied to the lift of the *pre* GPT
 * lands on the lift of the flat batch result.  R between a flat
 * table and its own lift holds by construction, so it is not
 * re-checked here.
 */
BatchEquivalence
compareBatchAgainstFold(const FlatState &pre, i64 id, i64 batch_rc,
                        const FlatState &batch_s, i64 fold_rc,
                        u64 fold_failed_index, const FlatState &fold_s,
                        const std::vector<TreeBatchOp> &tree_ops)
{
    if (fold_rc != 0) {
        if (batch_rc != fold_rc)
            return {false,
                    "error mismatch: batch " + std::to_string(batch_rc) +
                        " vs fold " + std::to_string(fold_rc) +
                        " at element " +
                        std::to_string(fold_failed_index)};
        if (!(batch_s == pre))
            return {false, "failed batch left residue (fold failed at "
                               "element " +
                               std::to_string(fold_failed_index) + ")"};
        return {};
    }
    if (batch_rc != 0)
        return {false, "batch failed (" + std::to_string(batch_rc) +
                           ") where the fold succeeded"};
    if (!(batch_s == fold_s))
        return {false, "state mismatch after successful batch"};

    const auto it = batch_s.enclaves.find(id);
    if (it == batch_s.enclaves.end())
        return {};
    const u64 gpt_root = batch_s.rootOf(it->second.gptHandle);
    if (gpt_root != 0) {
        const u64 pre_root =
            pre.enclaves.count(id)
                ? pre.rootOf(pre.enclaves.at(id).gptHandle)
                : 0;
        if (pre_root != 0) {
            TreeState tree = treeFromFlat(pre, pre_root);
            if (const i64 rc = treeApplyBatch(tree, tree_ops); rc != 0)
                return {false, "tree batch failed (" +
                                   std::to_string(rc) +
                                   ") where the flat batch succeeded"};
            if (!treesEqual(tree, treeFromFlat(batch_s, gpt_root)))
                return {false, "tree batch diverges from the lift of "
                               "the flat batch result"};
        }
    }
    return {};
}

} // namespace

BatchEquivalence
checkAddBatchFold(const FlatState &pre, i64 id,
                  const std::vector<SpecAddPageOp> &ops)
{
    FlatState batch_s = pre;
    const i64 batch_rc = specHcAddPagesBatch(batch_s, id, ops);

    FlatState fold_s = pre;
    i64 fold_rc = 0;
    u64 failed = 0;
    for (u64 i = 0; i < ops.size(); ++i) {
        fold_rc =
            specHcAddPage(fold_s, id, ops[i].gva, ops[i].src, ops[i].kind);
        if (fold_rc != 0) {
            failed = i;
            break;
        }
    }

    // The tree-level image of the batch on the enclave GPT: element i
    // maps gva -> epcGpaBase + (addedPages_pre + i) * pageSize, the
    // same slot assignment specHcAddPage makes.
    std::vector<TreeBatchOp> tree_ops;
    if (pre.enclaves.count(id)) {
        const u64 base = pre.enclaves.at(id).addedPages;
        tree_ops.reserve(ops.size());
        for (u64 i = 0; i < ops.size(); ++i)
            tree_ops.push_back(
                {true, ops[i].gva,
                 pre.geo.epcGpaBase + (base + i) * pageSize,
                 pteRwFlags});
    }
    return compareBatchAgainstFold(pre, id, batch_rc, batch_s, fold_rc,
                                   failed, fold_s, tree_ops);
}

BatchEquivalence
checkEvictBatchFold(const FlatState &pre, i64 id,
                    const std::vector<u64> &gvas)
{
    FlatState batch_s = pre;
    const IntResult batch = specHcEvictPagesBatch(batch_s, id, gvas);
    const i64 batch_rc = batch.isOk ? 0 : batch.errCode;

    FlatState fold_s = pre;
    i64 fold_rc = 0;
    u64 failed = 0;
    for (u64 i = 0; i < gvas.size(); ++i) {
        const IntResult r = specHcEvictPage(fold_s, id, gvas[i]);
        if (!r.isOk) {
            fold_rc = r.errCode;
            failed = i;
            break;
        }
    }

    std::vector<TreeBatchOp> tree_ops;
    tree_ops.reserve(gvas.size());
    for (const u64 gva : gvas)
        tree_ops.push_back({false, gva, 0, 0});
    return compareBatchAgainstFold(pre, id, batch_rc, batch_s, fold_rc,
                                   failed, fold_s, tree_ops);
}

i64
specHcSnapshot(FlatState &s, i64 id, bool move_source, u64 measurement,
               AbsImage *out)
{
    auto it = s.enclaves.find(id);
    if (it == s.enclaves.end() || it->second.state == enclStateDead)
        return errNoSuchEnclave;
    AbsEnclave &enclave = it->second;
    if (enclave.state != enclStateInitialized)
        return errBadState;
    // Evicted pages are in OS custody; the monitor cannot summon them
    // into the image, so the enclave must be fully resident first.
    if (!enclave.evicted.empty())
        return errBadState;

    // Resident pages in ascending enclave-linear order, read off the
    // EPCM (the marshalling buffer is backed by normal memory and has
    // no EPCM entries, so this is exactly the ELRANGE residency set).
    std::vector<std::pair<u64, u64>> resident;  // (linAddr, epc page)
    for (u64 index = 0; index < s.geo.epcCount; ++index) {
        if (s.epcm[index].state == epcStateFree ||
            s.epcm[index].owner != id)
            continue;
        resident.push_back(
            {s.epcm[index].linAddr, s.geo.epcBase + index * pageSize});
    }
    std::sort(resident.begin(), resident.end());
    if (resident.size() != enclave.addedPages)
        return errBadState;

    AbsImage img;
    img.sourceId = id;
    img.measurement = measurement;
    img.elStart = enclave.elStart;
    img.elEnd = enclave.elEnd;
    img.mbufGva = enclave.mbufGva;
    img.mbufPages = enclave.mbufPages;
    img.mbufBacking = enclave.mbufBacking;
    img.addedPages = enclave.addedPages;
    img.tcsPages = enclave.tcsPages;
    // The image consumes the version vector exactly as an evict-all
    // fold would: page i seals at versionBase + i and the counter
    // advances past the run.
    img.versionBase = enclave.nextSealVersion;
    img.pages.reserve(resident.size());
    if (move_source) {
        // Move semantics IS evict-all + remove: evicting page i mints
        // the sealed record at versionBase + i, which goes straight
        // into the image, and the emptied source is torn down.  Being
        // literally the fold makes the migration ≡ quiesced-fold
        // equality hold by construction on this side.
        for (const auto &[gva, page] : resident) {
            (void)page;
            if (!specHcEvictPage(s, id, gva).isOk)
                return errBadState; // unreachable past the quiesce
            AbsImagePage image_page;
            image_page.gva = gva;
            image_page.sealed = s.enclaves.at(id).evicted.at(gva);
            img.pages.push_back(image_page);
        }
        (void)specHcRemove(s, id);
    } else {
        // Fork reads the pages without disturbing them; only the
        // version counter advances, exactly as the evict run would
        // have moved it.
        for (u64 i = 0; i < resident.size(); ++i) {
            const u64 gva = resident[i].first;
            const u64 page = resident[i].second;
            const QueryResult stage1 =
                specAsQuery(s, enclave.gptHandle, gva);
            if (!stage1.isSome)
                return errNotMapped;
            AbsImagePage image_page;
            image_page.gva = gva;
            image_page.sealed.gpaSlot =
                stage1.physAddr & ~(pageSize - 1);
            image_page.sealed.kind =
                s.epcm[(page - s.geo.epcBase) / pageSize].state;
            image_page.sealed.version = img.versionBase + i;
            const auto content = s.pageContents.find(page);
            if (content != s.pageContents.end()) {
                image_page.sealed.content = content->second;
                image_page.sealed.hasContent = true;
            }
            img.pages.push_back(image_page);
        }
        enclave.nextSealVersion += resident.size();
    }
    if (out)
        *out = img;
    return 0;
}

IntResult
specHcRestoreImage(FlatState &s, const AbsImage &img)
{
    // Structural honesty first, then authenticity, then freshness —
    // the monitor's verification order.
    if (img.pages.size() != img.addedPages)
        return IntResult::err(errImageTruncated);
    if (!img.authentic)
        return IntResult::err(errImageAuth);
    for (u64 i = 0; i < img.pages.size(); ++i)
        if (img.pages[i].sealed.version != img.versionBase + i)
            return IntResult::err(errImageAuth);
    if (const auto led = s.imageLedger.find(img.measurement);
        led != s.imageLedger.end() && img.versionBase <= led->second)
        return IntResult::err(errImageRollback);

    // All-or-nothing build on a scratch copy committed on success (the
    // batch idiom): init on this host's geometry, then install every
    // page at its recorded slot in image order.
    FlatState scratch = s;
    const IntResult created =
        specHcInit(scratch, img.elStart, img.elEnd, img.mbufGva,
                   img.mbufPages, img.mbufBacking);
    if (!created.isOk)
        return created;
    const i64 id = i64(created.value);
    AbsEnclave &enclave = scratch.enclaves[id];
    for (const AbsImagePage &image_page : img.pages) {
        i64 rc = specAsMap(scratch, enclave.gptHandle, image_page.gva,
                           image_page.sealed.gpaSlot, pteRwFlags);
        if (rc != 0)
            return IntResult::err(rc);
        const IntResult page = specEpcmAlloc(scratch, id, image_page.gva,
                                             image_page.sealed.kind);
        if (!page.isOk)
            return page;
        rc = specAsMap(scratch, enclave.eptHandle,
                       image_page.sealed.gpaSlot, page.value, pteRwFlags);
        if (rc != 0)
            return IntResult::err(rc);
        if (image_page.sealed.hasContent)
            scratch.pageContents[page.value] = image_page.sealed.content;
        ++enclave.addedPages;
        if (image_page.sealed.kind == epcStateTcs)
            ++enclave.tcsPages;
    }
    enclave.state = enclStateInitialized;
    // Continue past the image's vector: the twin can never re-mint a
    // version the image already spent.
    enclave.nextSealVersion = img.versionBase + img.pages.size();
    scratch.imageLedger[img.measurement] = img.versionBase;
    s = std::move(scratch);
    return IntResult::ok(u64(id));
}

BatchEquivalence
checkMigrateQuiescedFold(const FlatState &src_pre, const FlatState &dst_pre,
                         i64 id, bool move_source, u64 measurement)
{
    // --- Migration path: snapshot on the source, restore on the twin.
    FlatState src_m = src_pre;
    FlatState dst_m = dst_pre;
    AbsImage img;
    const i64 snap_rc =
        specHcSnapshot(src_m, id, move_source, measurement, &img);
    IntResult restore;
    if (snap_rc == 0)
        restore = specHcRestoreImage(dst_m, img);

    // --- Quiesce preconditions of the reference semantics, in the
    // monitor's rejection order.
    i64 pre_rc = 0;
    const auto pre_it = src_pre.enclaves.find(id);
    if (pre_it == src_pre.enclaves.end() ||
        pre_it->second.state == enclStateDead)
        pre_rc = errNoSuchEnclave;
    else if (pre_it->second.state != enclStateInitialized ||
             !pre_it->second.evicted.empty())
        pre_rc = errBadState;

    if (pre_rc != 0) {
        if (snap_rc != pre_rc)
            return {false, "precondition error mismatch: snapshot " +
                               std::to_string(snap_rc) +
                               " vs quiesce contract " +
                               std::to_string(pre_rc)};
        if (!(src_m == src_pre) || !(dst_m == dst_pre))
            return {false, "rejected snapshot left residue"};
        return {};
    }
    if (snap_rc != 0)
        return {false, "snapshot failed (" + std::to_string(snap_rc) +
                           ") where the quiesce contract holds"};

    // --- Source side of the fold: evict every resident page in
    // ascending gva order; with move semantics, then remove.
    FlatState src_f = src_pre;
    std::vector<u64> gvas;
    for (u64 index = 0; index < src_pre.geo.epcCount; ++index) {
        if (src_pre.epcm[index].state == epcStateFree ||
            src_pre.epcm[index].owner != id)
            continue;
        gvas.push_back(src_pre.epcm[index].linAddr);
    }
    std::sort(gvas.begin(), gvas.end());
    std::map<u64, AbsSealedPage> sealed;
    for (u64 i = 0; i < gvas.size(); ++i) {
        const IntResult r = specHcEvictPage(src_f, id, gvas[i]);
        if (!r.isOk)
            return {false, "evict-all fold failed (" +
                               std::to_string(r.errCode) +
                               ") at element " + std::to_string(i) +
                               " where the snapshot succeeded"};
    }
    sealed = src_f.enclaves.at(id).evicted;
    if (move_source) {
        (void)specHcRemove(src_f, id);
    } else {
        // Fork leaves the source resident: the reference post-state is
        // the pre-state with the version vector consumed.
        src_f = src_pre;
        src_f.enclaves.at(id).nextSealVersion += u64(gvas.size());
    }
    if (!(src_m == src_f))
        return {false, "source state diverges from the quiesced fold: " +
                           diffStates(src_m, src_f)};

    // --- Destination side of the fold: init a twin, hand it the
    // transported metadata (the evicted set, counters and state the
    // image carries), then a reload-all fold materializes residency.
    FlatState dst_f = dst_pre;
    FlatState dst_init_only;
    i64 dst_fold_rc = 0;
    u64 dst_failed = 0;
    i64 twin_id = 0;
    // The freshness contract is part of the quiesced reference too:
    // a destination whose ledger already records this lineage at or
    // past the image's version vector must reject the whole fold.
    if (const auto led = dst_pre.imageLedger.find(measurement);
        led != dst_pre.imageLedger.end() && img.versionBase <= led->second)
        dst_fold_rc = errImageRollback;
    IntResult twin;
    if (dst_fold_rc == 0)
        twin = specHcInit(dst_f, img.elStart, img.elEnd, img.mbufGva,
                          img.mbufPages, img.mbufBacking);
    if (dst_fold_rc != 0) {
        // rejected before the init: nothing to fold
    } else if (!twin.isOk) {
        dst_fold_rc = twin.errCode;
    } else {
        twin_id = i64(twin.value);
        dst_init_only = dst_f;
        AbsEnclave &twin_enclave = dst_f.enclaves.at(twin_id);
        twin_enclave.evicted = sealed;
        twin_enclave.state = enclStateInitialized;
        twin_enclave.addedPages = img.addedPages;
        twin_enclave.tcsPages = img.tcsPages;
        twin_enclave.nextSealVersion =
            img.versionBase + img.pages.size();
        u64 i = 0;
        for (const auto &[gva, rec] : sealed) {
            const i64 rc = specHcReloadPage(dst_f, twin_id, twin_id,
                                            gva, rec.version);
            if (rc != 0) {
                dst_fold_rc = rc;
                dst_failed = i;
                break;
            }
            ++i;
        }
        if (dst_fold_rc == 0)
            dst_f.imageLedger[measurement] = img.versionBase;
    }

    if (dst_fold_rc != 0) {
        const i64 restore_rc = restore.isOk ? 0 : restore.errCode;
        if (restore_rc != dst_fold_rc)
            return {false, "error mismatch: restore " +
                               std::to_string(restore_rc) +
                               " vs destination fold " +
                               std::to_string(dst_fold_rc) +
                               " at element " +
                               std::to_string(dst_failed)};
        if (!(dst_m == dst_pre))
            return {false,
                    "failed restore left residue on the destination"};
        return {};
    }
    if (!restore.isOk)
        return {false, "restore failed (" +
                           std::to_string(restore.errCode) +
                           ") where the destination fold succeeded"};
    if (i64(restore.value) != twin_id)
        return {false, "restored id diverges from the fold's twin"};
    if (!(dst_m == dst_f))
        return {false,
                "destination state diverges from the quiesced fold"};

    // --- Tree lift on the twin.
    const AbsEnclave &twin_enclave = dst_m.enclaves.at(twin_id);
    const u64 gpt_root = dst_m.rootOf(twin_enclave.gptHandle);
    if (gpt_root != 0) {
        const u64 init_root = dst_init_only.rootOf(
            dst_init_only.enclaves.at(twin_id).gptHandle);
        TreeState tree = treeFromFlat(dst_init_only, init_root);
        std::vector<TreeBatchOp> tree_ops;
        tree_ops.reserve(img.pages.size());
        for (const AbsImagePage &image_page : img.pages)
            tree_ops.push_back({true, image_page.gva,
                                image_page.sealed.gpaSlot, pteRwFlags});
        if (const i64 rc = treeApplyBatch(tree, tree_ops); rc != 0)
            return {false, "tree install failed (" + std::to_string(rc) +
                               ") where the restore succeeded"};
        if (!treesEqual(tree, treeFromFlat(dst_m, gpt_root)))
            return {false, "tree install diverges from the lift of the "
                           "restored GPT"};
    }
    return {};
}

QueryResult
specMemTranslate(const FlatState &s, i64 gpt_handle, i64 ept_handle,
                 u64 va, bool is_write)
{
    const QueryResult stage1 = specAsQuery(s, gpt_handle, va);
    if (!stage1.isSome)
        return QueryResult::none();
    if (is_write && !(stage1.flags & pteFlagW))
        return QueryResult::none();
    const QueryResult stage2 =
        specAsQuery(s, ept_handle, stage1.physAddr);
    if (!stage2.isSome)
        return QueryResult::none();
    if (is_write && !(stage2.flags & pteFlagW))
        return QueryResult::none();
    return stage2;
}

} // namespace hev::ccal::spec
