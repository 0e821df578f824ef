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
 * under recomputed, *valid* MACs — only a content oracle on the
 * restored twin can catch it.  A staged page equal to the sealed one
 * keeps the MAC and digest the snapshot computed.
 */
Expected<hv::EnclaveImage>
sealFromStaging(hv::Monitor &mon, EnclaveId id, hv::SnapshotMode mode,
                const Staging &staged)
{
    auto image = mon.hcEnclaveSnapshot(id, mode);
    if (!image)
        return image.error();
    bool restaged = false;
    for (u64 i = 0; i < image->pages.size(); ++i) {
        hv::SealedBlob &blob = image->pages[i];
        const auto it = staged.find(blob.gva.value);
        if (it == staged.end() || blob.words == it->second)
            continue; // never staged, or staged as sealed
        blob.words = it->second;
        blob.mac = hv::sealedBlobMac(blob);
        image->pageMeta[i].digest =
            hv::enclavePageDigest(blob.words.data());
        restaged = true;
    }
    if (restaged)
        image->mac = hv::enclaveImageMac(*image);
    return image;
}

/** One migration of enclave `id` off a source monitor. */
struct Transfer
{
    hv::Monitor &mon;
    EnclaveId id;
    u16 tag = obs::newFlightRunTag();
    Staging staged{};
    MigrateResult res{};

    /**
     * Stage `pages` over the wire as round `round`: time the
     * transfers, then account the round in `res` and the flight
     * recorder.
     */
    Status
    copy(const std::vector<Gva> &pages, u64 round)
    {
        const auto t0 = Clock::now();
        for (const Gva gva : pages)
            if (auto st = transferPage(mon, id, gva, staged); !st)
                return st;
        const u64 ns = nsSince(t0);
        res.roundPages.push_back(pages.size());
        res.roundNs.push_back(ns);
        res.totalPagesCopied += pages.size();
        obs::flightRecord(flightOpMigrateRound, round, pages.size(), ns,
                          u64(id), 0, u16(round), tag);
        return okStatus();
    }

    /**
     * Switchover: seal, rebuild from staging, restore on the twin.
     * The round copied last ran with the source stopped, so it is the
     * downtime window.
     */
    Expected<MigrateResult>
    switchover(hv::Machine &dst, hv::SnapshotMode mode)
    {
        res.downtimePages = res.roundPages.back();
        res.downtimeNs = res.roundNs.back();
        const auto s0 = Clock::now();
        auto image = sealFromStaging(mon, id, mode, staged);
        if (!image)
            return image.error();
        auto dst_id = dst.monitor().hcEnclaveRestoreImage(*image);
        if (!dst_id)
            return dst_id.error();
        res.switchoverNs = nsSince(s0);
        res.dstId = *dst_id;
        return std::move(res);
    }
};

} // namespace

Expected<MigrateResult>
migrateLive(hv::Machine &src, EnclaveId id, hv::Machine &dst,
            const Workload &between_rounds, const MigrateOptions &opts)
{
    Transfer xfer{src.monitor(), id};
    hv::Monitor &mon = xfer.mon;

    // Round 0: take (and so clear) the dirty log, then copy every
    // resident page while the source keeps running.  Taking first
    // means any write landing after this point is re-copied by a
    // later round.
    auto resident = mon.enclaveResidentPages(id);
    if (!resident)
        return resident.error();
    if (auto taken = mon.takeEnclaveDirty(id); !taken)
        return taken.error();
    if (auto st = xfer.copy(*resident, 0); !st)
        return st.error();

    // Iterative pre-copy: each round lets the source run, then takes
    // its dirty set once.  The round whose set is small enough, or the
    // last one, hands that set to stop-and-copy uncopied.
    std::vector<Gva> dirty;
    for (u64 round = 1;; ++round) {
        if (round <= opts.maxPrecopyRounds)
            between_rounds(xfer.res.workloadSteps++);
        auto taken = mon.takeEnclaveDirty(id);
        if (!taken)
            return taken.error();
        dirty = std::move(*taken);
        if (round >= opts.maxPrecopyRounds ||
            dirty.size() <= opts.dirtyThreshold)
            break;
        if (auto st = xfer.copy(dirty, round); !st)
            return st.error();
        ++xfer.res.precopyRounds;
    }

    // Stop-and-copy: the source is paused from here on.  Only the
    // residual dirty set crosses the wire inside the downtime window.
    if (mon.config().planted.skipDirtyOnFinalRound)
        dirty.clear();
    if (auto st = xfer.copy(dirty, xfer.res.precopyRounds + 1); !st)
        return st.error();
    return xfer.switchover(dst, opts.mode);
}

Expected<MigrateResult>
migrateStopAndCopy(hv::Machine &src, EnclaveId id, hv::Machine &dst,
                   const Workload &workload, u64 rounds,
                   const MigrateOptions &opts)
{
    Transfer xfer{src.monitor(), id};

    // The whole workload runs first: same final source state as the
    // live path, but nothing has been transferred yet.
    for (u64 i = 0; i < rounds; ++i)
        workload(i);
    xfer.res.workloadSteps = rounds;

    // Stop the source and transfer everything inside the window.
    auto resident = xfer.mon.enclaveResidentPages(id);
    if (!resident)
        return resident.error();
    if (auto st = xfer.copy(*resident, 0); !st)
        return st.error();
    return xfer.switchover(dst, opts.mode);
}

} // namespace hev::migrate
