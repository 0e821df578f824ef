/**
 * @file
 * The live-migration engine end to end: pre-copy beating stop-and-copy
 * on a write-skewed workload (the deterministic pages metric), move
 * semantics destroying the source, flight-recorder round spans, and
 * the planted skip-dirty-on-final-round bug surfacing as concrete
 * content divergence on the twin — under valid, freshly recomputed
 * MACs, which is exactly why only a content oracle catches it.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "hv/hv_invariants.hh"
#include "migrate/migrate.hh"
#include "migrate_test_util.hh"
#include "obs/flight.hh"

namespace hev::migrate
{
namespace
{

using test::PageWords;
using test::readPage;
using test::smallConfig;

constexpr u64 elStart = 0x10'0000;

/** A write-skewed workload: every round rewrites a few words of the
 *  same hot page, recording each store in a shadow map. */
struct HotPageWorkload
{
    hv::Machine &machine;
    EnclaveId id;
    u64 hotVa;
    std::map<u64, u64> written;

    void
    operator()(u64 round)
    {
        for (u64 k = 0; k < 4; ++k) {
            const u64 va = hotVa + k * sizeof(u64);
            const u64 value = 0x9000'0000 + round * 16 + k;
            ASSERT_TRUE(
                machine.monitor().enclaveStore(id, Gva(va), value).ok());
            written[va] = value;
        }
    }
};

TEST(MigrateLive, PrecopyBeatsStopAndCopyOnWriteSkew)
{
    // 48 resident pages, one hot: live migration's stop-the-world
    // window should carry only the hot page while stop-and-copy hauls
    // all 49 (48 Reg + 1 TCS) — far beyond the 2x gate.
    const u64 pages = 48;
    hv::Machine live_src(smallConfig()), live_dst(smallConfig());
    hv::Machine stop_src(smallConfig()), stop_dst(smallConfig());
    auto live_enc = live_src.setupEnclave(elStart, pages, 1, 0x111a);
    auto stop_enc = stop_src.setupEnclave(elStart, pages, 1, 0x111a);
    ASSERT_TRUE(live_enc);
    ASSERT_TRUE(stop_enc);

    MigrateOptions opts;
    opts.mode = hv::SnapshotMode::Fork;
    opts.maxPrecopyRounds = 4;

    HotPageWorkload live_work{live_src, live_enc->id, elStart, {}};
    auto live = migrateLive(live_src, live_enc->id, live_dst,
                            [&](u64 r) { live_work(r); }, opts);
    ASSERT_TRUE(live) << hvErrorName(live.error());

    HotPageWorkload stop_work{stop_src, stop_enc->id, elStart, {}};
    auto stop = migrateStopAndCopy(
        stop_src, stop_enc->id, stop_dst, [&](u64 r) { stop_work(r); },
        live->workloadSteps, opts);
    ASSERT_TRUE(stop) << hvErrorName(stop.error());

    // Stop-and-copy's downtime window carries every resident page.
    EXPECT_EQ(stop->downtimePages, pages + 1);
    // Live's final round carries only what the workload kept dirtying.
    EXPECT_LE(live->downtimePages, 2u);
    EXPECT_GE(stop->downtimePages, 2 * live->downtimePages);

    // Round 0 was the full copy; later rounds shrank to the hot set.
    ASSERT_FALSE(live->roundPages.empty());
    EXPECT_EQ(live->roundPages.front(), pages + 1);
    for (u64 r = 1; r < live->roundPages.size(); ++r)
        EXPECT_LE(live->roundPages[r], 2u);

    // Both twins converged on the same contents.
    for (u64 p = 0; p < pages; ++p) {
        const u64 gva = elStart + p * pageSize;
        EXPECT_EQ(readPage(live_dst.monitor(), live->dstId, gva),
                  readPage(stop_dst.monitor(), stop->dstId, gva))
            << "strategies diverge on page " << p;
    }
    for (const auto &[va, value] : live_work.written) {
        PageWords words = readPage(live_dst.monitor(), live->dstId,
                                   va & ~(pageSize - 1));
        EXPECT_EQ(words[(va & (pageSize - 1)) / sizeof(u64)], value);
    }
}

TEST(MigrateLive, MoveModeRetiresTheSource)
{
    hv::Machine src(smallConfig()), dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 6, 1, 0x222b);
    ASSERT_TRUE(enclave);
    const PageWords before = readPage(src.monitor(), enclave->id,
                                      elStart + 2 * pageSize);

    MigrateOptions opts;
    opts.mode = hv::SnapshotMode::Move;
    HotPageWorkload work{src, enclave->id, elStart + pageSize, {}};
    auto result = migrateLive(src, enclave->id, dst,
                              [&](u64 r) { work(r); }, opts);
    ASSERT_TRUE(result) << hvErrorName(result.error());

    // The source is gone: no residency, no reads, no re-entry.
    EXPECT_FALSE(src.monitor().enclaveResidentPages(enclave->id));
    PageWords scratch{};
    EXPECT_FALSE(src.monitor()
                     .enclaveReadPage(enclave->id, Gva(elStart),
                                      scratch.data())
                     .ok());

    // The twin carries the untouched page verbatim and every shadow
    // write the workload made.
    EXPECT_EQ(readPage(dst.monitor(), result->dstId,
                       elStart + 2 * pageSize),
              before);
    for (const auto &[va, value] : work.written) {
        PageWords words = readPage(dst.monitor(), result->dstId,
                                   va & ~(pageSize - 1));
        EXPECT_EQ(words[(va & (pageSize - 1)) / sizeof(u64)], value);
    }

    // Both hosts stay invariant-clean after the handover.
    EXPECT_TRUE(hv::checkMonitorInvariants(src.monitor()).empty());
    EXPECT_TRUE(hv::checkMonitorInvariants(dst.monitor()).empty());
}

TEST(MigrateLive, RoundsLandInTheFlightRecorder)
{
    hv::Machine src(smallConfig()), dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 4, 1, 0x333c);
    ASSERT_TRUE(enclave);

    obs::clearFlight();
    MigrateOptions opts;
    opts.mode = hv::SnapshotMode::Fork;
    opts.maxPrecopyRounds = 3;
    HotPageWorkload work{src, enclave->id, elStart, {}};
    auto result = migrateLive(src, enclave->id, dst,
                              [&](u64 r) { work(r); }, opts);
    ASSERT_TRUE(result) << hvErrorName(result.error());

    u64 spans = 0;
    for (const obs::FlightRecord &record : obs::flightTail(0))
        if (record.op == flightOpMigrateRound)
            ++spans;
    EXPECT_EQ(spans, result->roundPages.size())
        << "every migration round should leave one flight span";
}

TEST(MigrateLive, NoPrecopyRoundsTakesAnEmptyFinalSet)
{
    // With no pre-copy round the workload never runs, so the final
    // take finds nothing written since round 0's take: the stopped
    // window copies no page, and round 0's copy alone is the twin.
    hv::Machine src(smallConfig()), dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 6, 1, 0x555e);
    ASSERT_TRUE(enclave);
    // Pages dirtied before the migration are round 0's to copy.
    ASSERT_TRUE(src.monitor()
                    .enclaveStore(enclave->id, Gva(elStart + pageSize), 7)
                    .ok());

    MigrateOptions opts;
    opts.mode = hv::SnapshotMode::Fork;
    opts.maxPrecopyRounds = 0;
    u64 calls = 0;
    auto result = migrateLive(src, enclave->id, dst,
                              [&](u64) { ++calls; }, opts);
    ASSERT_TRUE(result) << hvErrorName(result.error());
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(result->precopyRounds, 0u);
    EXPECT_EQ(result->downtimePages, 0u);
    EXPECT_EQ(result->roundPages, (std::vector<u64>{7, 0}));
    EXPECT_EQ(result->totalPagesCopied, 7u);

    auto resident = src.monitor().enclaveResidentPages(enclave->id);
    ASSERT_TRUE(resident);
    ASSERT_EQ(resident->size(), 7u);
    for (const Gva gva : *resident)
        EXPECT_EQ(readPage(src.monitor(), enclave->id, gva.value),
                  readPage(dst.monitor(), result->dstId, gva.value))
            << "twin diverges at gva " << std::hex << gva.value;
}

TEST(MigrateLive, PlantedFinalRoundSkipShipsStalePagesUnderValidMacs)
{
    hv::MonitorConfig cfg = smallConfig();
    cfg.planted.skipDirtyOnFinalRound = true;
    hv::Machine src(cfg), dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 4, 1, 0x444d);
    ASSERT_TRUE(enclave);

    MigrateOptions opts;
    opts.mode = hv::SnapshotMode::Fork;
    opts.maxPrecopyRounds = 2;
    HotPageWorkload work{src, enclave->id, elStart, {}};
    auto result = migrateLive(src, enclave->id, dst,
                              [&](u64 r) { work(r); }, opts);

    // The bug is silent at the protocol level: the image's MACs are
    // recomputed over the stale staging, so the restore SUCCEEDS.
    ASSERT_TRUE(result) << hvErrorName(result.error());

    // Only a concrete content comparison exposes it: the hot page the
    // final round skipped is stale on the twin.
    const PageWords src_hot =
        readPage(src.monitor(), enclave->id, elStart);
    const PageWords dst_hot =
        readPage(dst.monitor(), result->dstId, elStart);
    EXPECT_NE(src_hot, dst_hot)
        << "the skipped final round should have left the twin stale";

    // And it is precisely the workload's last writes that are missing.
    const u64 last = work.written[elStart];
    EXPECT_EQ(src_hot[0], last);
    EXPECT_NE(dst_hot[0], last);
}

} // namespace
} // namespace hev::migrate
