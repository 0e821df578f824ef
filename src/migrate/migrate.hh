/**
 * @file
 * Live enclave migration on top of the snapshot/restore hypercalls.
 *
 * The engine moves an Initialized enclave from a source hv::Machine to
 * a twin host with iterative pre-copy: while the source keeps running
 * (modeled by a caller-supplied workload invoked between rounds), page
 * contents are staged across the "wire".  Each round takes the
 * enclave's dirty log once (Monitor::takeEnclaveDirty: the pages
 * written since the last take, cleared by the same GPT walk).  The
 * round whose set is at most `dirtyThreshold` pages, or round
 * `maxPrecopyRounds`, hands its set to stop-and-copy: the source is
 * paused, those pages are re-staged, the enclave is sealed into an
 * EnclaveImage via hcEnclaveSnapshot, the image's page payloads are
 * rebuilt from the staged copies (MAC and digest recomputed for each
 * page that differs), and the twin host restores it.
 *
 * Downtime accounting: `downtimeNs`/`downtimePages` cover the wire
 * transfers performed while the source is stopped — the quantity
 * pre-copy exists to shrink (stop-and-copy transfers every page in
 * that window; pre-copy only the final dirty set).  The local
 * image-activation mechanics (snapshot + restore), paid identically by
 * both strategies, are reported separately as `switchoverNs`.  See
 * docs/MIGRATION.md.
 */

#ifndef HEV_MIGRATE_MIGRATE_HH
#define HEV_MIGRATE_MIGRATE_HH

#include <functional>
#include <vector>

#include "hv/machine.hh"
#include "obs/flight.hh"

namespace hev::migrate
{

/** Flight-recorder op id of one migration round span. */
constexpr u16 flightOpMigrateRound = obs::flightOpBase + 2;

/** Tuning knobs for one migration. */
struct MigrateOptions
{
    /** Bound on dirty-set re-copy rounds after the full round 0. */
    u64 maxPrecopyRounds = 8;
    /** Stop pre-copying early once the dirty set is this small. */
    u64 dirtyThreshold = 0;
    /** Move destroys the source (migration); Fork keeps it (clone). */
    hv::SnapshotMode mode = hv::SnapshotMode::Move;
};

/** What one migration did, round by round. */
struct MigrateResult
{
    EnclaveId dstId = invalidEnclave;
    /** Dirty re-copy rounds run (excludes the full round 0). */
    u64 precopyRounds = 0;
    /** Workload invocations made; feed to migrateStopAndCopy's
     *  `rounds` for an identical final source state. */
    u64 workloadSteps = 0;
    /** Pages transferred per round; index 0 is the full copy. */
    std::vector<u64> roundPages;
    /** Wire-transfer nanoseconds per round, same indexing. */
    std::vector<u64> roundNs;
    u64 totalPagesCopied = 0;
    /** Pages transferred while the source was stopped. */
    u64 downtimePages = 0;
    /** Wire-transfer time while the source was stopped. */
    u64 downtimeNs = 0;
    /** Image activation (snapshot + restore), common to both paths. */
    u64 switchoverNs = 0;
};

/**
 * The source enclave "running" between pre-copy rounds: called with
 * the round number about to start; typically issues
 * Monitor::enclaveStore writes, which stamp the dirty bits the next
 * round reads.
 */
using Workload = std::function<void(u64 round)>;

/**
 * Iteratively pre-copy enclave `id` from `src` to `dst`, then
 * stop-and-copy the residual dirty set.  Returns the restored twin's
 * id on `dst`; in Move mode the source enclave is erased exactly as a
 * quiesced evict-all + remove would leave it.
 */
Expected<MigrateResult> migrateLive(hv::Machine &src, EnclaveId id,
                                    hv::Machine &dst,
                                    const Workload &between_rounds,
                                    const MigrateOptions &opts = {});

/**
 * The baseline strategy: run the same workload schedule to produce an
 * identical final source state, then transfer every page inside the
 * stop-the-world window.  `rounds` controls how many workload steps
 * run before the pause (match the live run's `workloadSteps` for a
 * fair downtime comparison).
 */
Expected<MigrateResult> migrateStopAndCopy(hv::Machine &src,
                                           EnclaveId id,
                                           hv::Machine &dst,
                                           const Workload &workload,
                                           u64 rounds,
                                           const MigrateOptions &opts = {});

} // namespace hev::migrate

#endif // HEV_MIGRATE_MIGRATE_HH
