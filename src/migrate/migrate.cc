#include "migrate/migrate.hh"

#include <array>
#include <chrono>
#include <map>

namespace hev::migrate
{

namespace
{

using Clock = std::chrono::steady_clock;
using PageWords = std::array<u64, pageSize / sizeof(u64)>;

/** Pages staged on the "wire", keyed by enclave-linear address. */
using Staging = std::map<u64, PageWords>;

u64
nsSince(Clock::time_point t0)
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0)
                   .count());
}

/**
 * One wire transfer: read the page out of the source and checksum the
 * copy (the serialization cost a real transport pays per page).
 */
Status
transferPage(const hv::Monitor &mon, EnclaveId id, Gva gva,
             Staging &staged)
{
    PageWords &slot = staged[gva.value];
    if (auto st = mon.enclaveReadPage(id, gva, slot.data()); !st)
        return st;
    (void)hv::enclavePageDigest(slot.data());
    return okStatus();
}

/**
 * Seal the quiesced source and rebuild the image payloads from the
 * staged copies: every page's words come from the wire staging, so a
 * stale staged page (the planted skip-dirty bug) ships stale contents
 * under freshly recomputed, *valid* MACs — only a content oracle on
 * the restored twin can catch it.
 */
Expected<hv::EnclaveImage>
sealFromStaging(hv::Monitor &mon, EnclaveId id, hv::SnapshotMode mode,
                const Staging &staged)
{
    auto image = mon.hcEnclaveSnapshot(id, mode);
    if (!image)
        return image.error();
    for (u64 i = 0; i < image->pages.size(); ++i) {
        hv::SealedBlob &blob = image->pages[i];
        const auto it = staged.find(blob.gva.value);
        if (it == staged.end())
            continue; // never staged: keep the authoritative words
        if (blob.words != it->second) {
            blob.words = it->second;
            blob.mac = hv::sealedBlobMac(blob);
        }
        image->pageMeta[i].digest =
            hv::enclavePageDigest(blob.words.data());
    }
    image->mac = hv::enclaveImageMac(*image);
    return image;
}

void
recordRound(u16 tag, EnclaveId id, u64 round, u64 pages, u64 ns)
{
    obs::flightRecord(flightOpMigrateRound, round, pages, ns, u64(id),
                      0, u16(round), tag);
}

} // namespace

Expected<MigrateResult>
migrateLive(hv::Machine &src, EnclaveId id, hv::Machine &dst,
            const Workload &between_rounds, const MigrateOptions &opts)
{
    hv::Monitor &mon = src.monitor();
    const u16 tag = obs::newFlightRunTag();
    MigrateResult res;
    Staging staged;

    // Round 0: clear the tracking bits, then copy every resident page
    // while the source keeps running.  Clearing first means any write
    // landing after this point is re-copied by a later round.
    auto resident = mon.enclaveResidentPages(id);
    if (!resident)
        return resident.error();
    if (auto st = mon.clearEnclaveDirty(id); !st)
        return st.error();
    {
        const auto t0 = Clock::now();
        for (const Gva gva : *resident)
            if (auto st = transferPage(mon, id, gva, staged); !st)
                return st.error();
        const u64 ns = nsSince(t0);
        res.roundPages.push_back(resident->size());
        res.roundNs.push_back(ns);
        res.totalPagesCopied += resident->size();
        recordRound(tag, id, 0, resident->size(), ns);
    }

    // Iterative pre-copy: let the source run, re-copy what it wrote.
    // The loop exits into stop-and-copy when the dirty set is small
    // enough or the round budget is spent.
    u64 workSteps = 0;
    for (u64 round = 1; round <= opts.maxPrecopyRounds; ++round) {
        between_rounds(workSteps++);
        auto dirty = mon.enclaveDirtyPages(id);
        if (!dirty)
            return dirty.error();
        if (dirty->size() <= opts.dirtyThreshold ||
            round == opts.maxPrecopyRounds)
            break;
        if (auto st = mon.clearEnclaveDirty(id); !st)
            return st.error();
        const auto t0 = Clock::now();
        for (const Gva gva : *dirty)
            if (auto st = transferPage(mon, id, gva, staged); !st)
                return st.error();
        const u64 ns = nsSince(t0);
        res.roundPages.push_back(dirty->size());
        res.roundNs.push_back(ns);
        res.totalPagesCopied += dirty->size();
        ++res.precopyRounds;
        recordRound(tag, id, round, dirty->size(), ns);
    }

    res.workloadSteps = workSteps;

    // Stop-and-copy: the source is paused from here on.  Only the
    // residual dirty set crosses the wire inside the downtime window.
    auto final_dirty = mon.enclaveDirtyPages(id);
    if (!final_dirty)
        return final_dirty.error();
    const bool skip_final = mon.config().planted.skipDirtyOnFinalRound;
    {
        const auto t0 = Clock::now();
        if (!skip_final) {
            for (const Gva gva : *final_dirty)
                if (auto st = transferPage(mon, id, gva, staged); !st)
                    return st.error();
            res.downtimePages = final_dirty->size();
            res.totalPagesCopied += final_dirty->size();
        }
        res.downtimeNs = nsSince(t0);
        res.roundPages.push_back(res.downtimePages);
        res.roundNs.push_back(res.downtimeNs);
        recordRound(tag, id, res.precopyRounds + 1, res.downtimePages,
                    res.downtimeNs);
    }

    // Switchover: seal, rebuild from staging, restore on the twin.
    const auto s0 = Clock::now();
    auto image = sealFromStaging(mon, id, opts.mode, staged);
    if (!image)
        return image.error();
    auto dst_id = dst.monitor().hcEnclaveRestoreImage(*image);
    if (!dst_id)
        return dst_id.error();
    res.switchoverNs = nsSince(s0);
    res.dstId = *dst_id;
    return res;
}

Expected<MigrateResult>
migrateStopAndCopy(hv::Machine &src, EnclaveId id, hv::Machine &dst,
                   const Workload &workload, u64 rounds,
                   const MigrateOptions &opts)
{
    hv::Monitor &mon = src.monitor();
    const u16 tag = obs::newFlightRunTag();
    MigrateResult res;
    Staging staged;

    // The whole workload runs first: same final source state as the
    // live path, but nothing has been transferred yet.
    for (u64 i = 0; i < rounds; ++i)
        workload(i);
    res.workloadSteps = rounds;

    // Stop the source and transfer everything inside the window.
    auto resident = mon.enclaveResidentPages(id);
    if (!resident)
        return resident.error();
    {
        const auto t0 = Clock::now();
        for (const Gva gva : *resident)
            if (auto st = transferPage(mon, id, gva, staged); !st)
                return st.error();
        res.downtimeNs = nsSince(t0);
    }
    res.downtimePages = resident->size();
    res.totalPagesCopied = resident->size();
    res.roundPages.push_back(resident->size());
    res.roundNs.push_back(res.downtimeNs);
    recordRound(tag, id, 0, res.downtimePages, res.downtimeNs);

    const auto s0 = Clock::now();
    auto image = sealFromStaging(mon, id, opts.mode, staged);
    if (!image)
        return image.error();
    auto dst_id = dst.monitor().hcEnclaveRestoreImage(*image);
    if (!dst_id)
        return dst_id.error();
    res.switchoverNs = nsSince(s0);
    res.dstId = *dst_id;
    return res;
}

} // namespace hev::migrate
