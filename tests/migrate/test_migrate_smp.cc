/**
 * @file
 * Snapshot/restore under SMP: the exclusive structural lock and
 * all-vCPU residency check of SmpMonitor::hcEnclaveSnapshot, move-mode
 * teardown of the per-vCPU enclave contexts, restore onto a second
 * multi-vCPU host, and a real-thread snapshot storm — snapshots raced
 * against enter/store/exit workers, with the anti-rollback ledger
 * checked on the images the storm produced.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "smp/smp_invariants.hh"
#include "smp/smp_monitor.hh"
#include "../smp/smp_test_util.hh"

namespace hev::smp
{
namespace
{

using test::installServiceAllDriver;
using test::makeMultiTcsEnclave;
using test::smallConfig;

constexpr u64 elStart = 0x10'0000;

TEST(MigrateSmp, SnapshotRejectsWhileAnyVcpuIsResident)
{
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    const auto enc = makeMultiTcsEnclave(smp, 0, elStart, 3, 2);
    ASSERT_TRUE(enc);

    // Another vCPU inside the enclave blocks the quiesce — even though
    // the *calling* vCPU is outside.
    ASSERT_TRUE(smp.hcEnclaveEnter(1, *enc));
    auto blocked = smp.hcEnclaveSnapshot(0, *enc,
                                         hv::SnapshotMode::Fork);
    ASSERT_FALSE(blocked);
    EXPECT_EQ(blocked.error(), HvError::BadEnclaveState);

    ASSERT_TRUE(smp.hcEnclaveExit(1));
    auto image = smp.hcEnclaveSnapshot(0, *enc, hv::SnapshotMode::Fork);
    ASSERT_TRUE(image) << hvErrorName(image.error());
    EXPECT_EQ(image->pages.size(), 5u); // 3 Reg + 2 TCS

    EXPECT_TRUE(checkSmpInvariants(smp).empty());
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(MigrateSmp, MoveRetiresTheSourceAndTheTwinHostTakesOver)
{
    SmpMonitor src(smallConfig(2));
    installServiceAllDriver(src);
    const auto enc = makeMultiTcsEnclave(src, 0, elStart, 2, 1, 0x5e7);
    ASSERT_TRUE(enc);

    auto image = src.hcEnclaveSnapshot(0, *enc, hv::SnapshotMode::Move);
    ASSERT_TRUE(image) << hvErrorName(image.error());

    // The source host no longer knows the enclave.
    EXPECT_FALSE(src.hcEnclaveEnter(0, *enc));
    EXPECT_TRUE(checkSmpInvariants(src).empty());
    EXPECT_TRUE(checkTlbCoherence(src).empty());

    // The twin host restores and runs it: contents survive the hop.
    SmpMonitor dst(smallConfig(2));
    installServiceAllDriver(dst);
    auto twin = dst.hcEnclaveRestoreImage(0, *image);
    ASSERT_TRUE(twin) << hvErrorName(twin.error());
    ASSERT_TRUE(dst.hcEnclaveEnter(0, *twin));
    for (u64 page = 0; page < 2; ++page) {
        const auto word =
            dst.memLoad(0, Gva(elStart + page * pageSize + 8));
        ASSERT_TRUE(word);
        EXPECT_EQ(*word, 0x5e7 + page * 1000 + 1);
    }
    ASSERT_TRUE(dst.hcEnclaveExit(0));
    EXPECT_TRUE(checkSmpInvariants(dst).empty());
    EXPECT_TRUE(checkTlbCoherence(dst).empty());
}

TEST(MigrateSmp, SnapshotStormRacesWorkersAndStaysCoherent)
{
    constexpr u32 vcpus = 4;
    constexpr u32 workers = vcpus - 1; // vCPU 3 is the snapshotter
    constexpr int rounds = 30;
    SmpMonitor smp(smallConfig(vcpus)); // default yield IPI driver

    const auto enc = makeMultiTcsEnclave(smp, 0, elStart, 2, workers);
    ASSERT_TRUE(enc);

    std::atomic<u32> active{workers};
    std::atomic<bool> snapshotterDone{false};
    std::atomic<u32> failures{0};
    // Start gate: no thread runs ahead while the others are spawned.
    std::atomic<bool> go{false};
    // Handshake: worker 0 stays resident until the snapshotter's first
    // attempt, so that attempt must meet the residency check.
    std::atomic<bool> resident{false};
    std::atomic<bool> attempted{false};
    const auto awaitFlag = [&](const std::atomic<bool> &flag, VcpuId v) {
        while (!flag.load()) {
            smp.serviceIpis(v);
            std::this_thread::yield();
        }
    };

    const auto worker = [&](VcpuId t) {
        awaitFlag(go, t);
        if (t == 0) {
            if (!smp.hcEnclaveEnter(t, *enc))
                failures.fetch_add(1);
            resident.store(true);
            awaitFlag(attempted, t);
            if (!smp.hcEnclaveExit(t))
                failures.fetch_add(1);
        }
        for (int i = 0; i < rounds; ++i) {
            bool ok = true;
            ok = ok && bool(smp.hcEnclaveEnter(t, *enc));
            ok = ok &&
                 bool(smp.memStore(t, Gva(elStart + u64(t) * 8),
                                   0x7000 + u64(i)));
            ok = ok && bool(smp.hcEnclaveExit(t));
            if (!ok)
                failures.fetch_add(1);
            smp.serviceIpis(t);
        }
        active.fetch_sub(1);
        // Keep acking until the snapshotter is done, not merely until
        // every worker is: a snapshot that wins the final quiesce
        // window still shoots down every other vCPU, and a vCPU whose
        // thread has returned would never ack it.
        awaitFlag(snapshotterDone, t);
    };

    // The snapshotter hammers fork snapshots against the workers: most
    // attempts bounce off the residency check with BadEnclaveState,
    // any success is a quiesce window it legitimately won.
    std::vector<hv::EnclaveImage> images;
    u32 rejected = 0;
    const auto attempt = [&] {
        auto image = smp.hcEnclaveSnapshot(3, *enc, hv::SnapshotMode::Fork);
        if (image)
            images.push_back(std::move(*image));
        else if (image.error() == HvError::BadEnclaveState)
            ++rejected;
        else
            failures.fetch_add(1);
        smp.serviceIpis(3);
        std::this_thread::yield();
    };
    const auto snapshotter = [&] {
        awaitFlag(go, 3);
        awaitFlag(resident, 3);
        attempt(); // worker 0 is inside and waits for this one
        attempted.store(true);
        while (active.load() != 0)
            attempt();
        snapshotterDone.store(true);
    };

    std::vector<std::thread> pool;
    for (u32 t = 0; t < workers; ++t)
        pool.emplace_back(worker, VcpuId(t));
    pool.emplace_back(snapshotter);
    go.store(true);
    for (std::thread &thread : pool)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_GE(rejected, 1u);
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
    for (VcpuId v = 0; v < vcpus; ++v)
        EXPECT_FALSE(smp.ipiPending(v));

    // Everyone is out now: one final snapshot is guaranteed to land,
    // so the storm always yields at least one image.
    installServiceAllDriver(smp);
    auto final_image =
        smp.hcEnclaveSnapshot(0, *enc, hv::SnapshotMode::Fork);
    ASSERT_TRUE(final_image) << hvErrorName(final_image.error());
    images.push_back(std::move(*final_image));

    // Version vectors of successive snapshots strictly advance.
    for (u64 i = 1; i < images.size(); ++i)
        EXPECT_GT(images[i].versionBase, images[i - 1].versionBase);

    // The newest image restores on a twin host; every earlier one —
    // and a replay of the newest itself — is ledger-rejected.
    SmpMonitor dst(smallConfig(2));
    installServiceAllDriver(dst);
    auto twin = dst.hcEnclaveRestoreImage(0, images.back());
    ASSERT_TRUE(twin) << hvErrorName(twin.error());
    for (const hv::EnclaveImage &stale : images) {
        auto replay = dst.hcEnclaveRestoreImage(0, stale);
        ASSERT_FALSE(replay);
        EXPECT_EQ(replay.error(), HvError::ImageRollback);
    }

    // The twin runs: each worker's lane holds a value the storm wrote.
    ASSERT_TRUE(dst.hcEnclaveEnter(0, *twin));
    for (u32 t = 0; t < workers; ++t) {
        const auto word = dst.memLoad(0, Gva(elStart + u64(t) * 8));
        ASSERT_TRUE(word);
        EXPECT_EQ(*word, 0x7000 + u64(rounds - 1));
    }
    ASSERT_TRUE(dst.hcEnclaveExit(0));
    EXPECT_TRUE(checkSmpInvariants(dst).empty());
    EXPECT_TRUE(checkTlbCoherence(dst).empty());
}

} // namespace
} // namespace hev::smp
