/**
 * @file
 * Real-thread SMP stress: one std::thread per vCPU hammering enters,
 * exits, stores and shootdown-inducing page-table edits concurrently.
 * Run under -DHEV_SANITIZE=thread (tools/smp_tsan.sh) this is the
 * data-race smoke; under any build the post-join oracles must hold.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "smp/smp_invariants.hh"
#include "smp/smp_monitor.hh"
#include "smp_test_util.hh"

using namespace hev;
using namespace hev::smp;
using namespace hev::smp::test;

TEST(SmpThreads, ConcurrentHypercallStormStaysCoherent)
{
    constexpr u32 vcpus = 4;
    constexpr int rounds = 40;
    SmpMonitor smp(smallConfig(vcpus)); // default yield IPI driver

    const auto encA = makeMultiTcsEnclave(smp, 0, 0x10'0000, 2, 2);
    const auto encB = makeMultiTcsEnclave(smp, 0, 0x30'0000, 2, 2);
    ASSERT_TRUE(encA);
    ASSERT_TRUE(encB);

    // One private normal-VM slot and backing page per thread.
    std::vector<Gpa> backing;
    for (u32 t = 0; t < vcpus; ++t) {
        const auto page = smp.machine().os().allocPage();
        ASSERT_TRUE(page);
        backing.push_back(*page);
    }

    // Threads leaving the main loop keep servicing IPIs until everyone
    // is out, so no initiator waits on a thread that already returned.
    std::atomic<u32> active{vcpus};
    std::atomic<u32> failures{0};

    const auto worker = [&](VcpuId t) {
        const EnclaveId enc = (t % 2 == 0) ? *encA : *encB;
        const u64 elbase = (t % 2 == 0) ? 0x10'0000 : 0x30'0000;
        const u64 slotVa = 0x300'0000 + u64(t) * pageSize;
        for (int i = 0; i < rounds; ++i) {
            bool ok = true;
            // Normal-world phase: private page churn with shootdowns.
            ok = ok && bool(smp.osMap(t, slotVa, backing[t]));
            ok = ok && bool(smp.memStore(t, Gva(slotVa), 0x1000 + t));
            const auto slot = smp.memLoad(t, Gva(slotVa));
            ok = ok && slot && *slot == 0x1000 + t;
            if (i % 8 == 3) {
                ok = ok && bool(smp.osProtectRo(t, slotVa, backing[t]));
                ok = ok && !smp.memStore(t, Gva(slotVa), 1);
            }
            ok = ok && bool(smp.osUnmap(t, slotVa));

            // Enclave phase: two threads resident per enclave, each on
            // its own TCS, writing its own word.
            ok = ok && bool(smp.hcEnclaveEnter(t, enc));
            const Gva word(elbase + u64(t) * 8);
            ok = ok && bool(smp.memStore(t, word, 0x2000 + u64(i)));
            const auto readback = smp.memLoad(t, word);
            ok = ok && readback && *readback == 0x2000 + u64(i);
            const auto report = smp.hcEnclaveReport(t);
            ok = ok && report && report->id == enc;
            ok = ok && bool(smp.hcEnclaveExit(t));

            if (!ok)
                failures.fetch_add(1);
            smp.serviceIpis(t);
        }
        active.fetch_sub(1);
        while (active.load() != 0) {
            smp.serviceIpis(t);
            std::this_thread::yield();
        }
    };

    std::vector<std::thread> pool;
    for (u32 t = 0; t < vcpus; ++t)
        pool.emplace_back(worker, VcpuId(t));
    for (std::thread &thread : pool)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
    EXPECT_TRUE(checkTlbCoherence(smp).empty());

    const SmpStats &stats = smp.stats();
    EXPECT_EQ(stats.enters.load(), u64(vcpus) * rounds);
    EXPECT_EQ(stats.exits.load(), u64(vcpus) * rounds);
    // One shootdown per unmap plus one per permission downgrade.
    const u64 downgrades = u64(vcpus) * 5; // i in {3, 11, 19, 27, 35}
    EXPECT_EQ(stats.shootdowns.load(), u64(vcpus) * rounds + downgrades);
    // Quiescence: every posted IPI has been serviced.
    EXPECT_EQ(stats.ipisAcked.load(), stats.ipisSent.load());
    for (VcpuId v = 0; v < vcpus; ++v)
        EXPECT_FALSE(smp.ipiPending(v));

    // The enclave words hold each thread's last write.
    for (u32 t = 0; t < vcpus; ++t) {
        ASSERT_TRUE(smp.hcEnclaveEnter(t, (t % 2 == 0) ? *encA : *encB));
        const u64 elbase = (t % 2 == 0) ? 0x10'0000 : 0x30'0000;
        const auto value = smp.memLoad(t, Gva(elbase + u64(t) * 8));
        ASSERT_TRUE(value);
        EXPECT_EQ(*value, 0x2000 + u64(rounds - 1));
        ASSERT_TRUE(smp.hcEnclaveExit(t));
    }
}

TEST(SmpThreads, PagingStormStaysCoherent)
{
    // Evict/reload interleaved with shootdown-heavy OS page-table edits
    // and enclave occupancy on real threads.  Each thread round-trips
    // its own enclave page (disjoint from its sibling's) so success is
    // deterministic; the cross-enclave and rollback probes exercise the
    // typed rejections concurrently with everything else.
    constexpr u32 vcpus = 4;
    constexpr int rounds = 30;
    SmpMonitor smp(smallConfig(vcpus)); // default yield IPI driver

    const auto encA = makeMultiTcsEnclave(smp, 0, 0x10'0000, 2, 2);
    const auto encB = makeMultiTcsEnclave(smp, 0, 0x30'0000, 2, 2);
    ASSERT_TRUE(encA);
    ASSERT_TRUE(encB);

    std::vector<Gpa> backing;
    for (u32 t = 0; t < vcpus; ++t) {
        const auto page = smp.machine().os().allocPage();
        ASSERT_TRUE(page);
        backing.push_back(*page);
    }

    std::atomic<u32> active{vcpus};
    std::atomic<u32> failures{0};

    const auto worker = [&](VcpuId t) {
        const EnclaveId enc = (t % 2 == 0) ? *encA : *encB;
        const EnclaveId other = (t % 2 == 0) ? *encB : *encA;
        const u64 elbase = (t % 2 == 0) ? 0x10'0000 : 0x30'0000;
        // Threads t and t+2 share an enclave; each owns one page of it.
        const u64 pageGva = elbase + (t / 2) * pageSize;
        const u64 word = pageGva + u64(t) * 8;
        const u64 slotVa = 0x300'0000 + u64(t) * pageSize;
        std::optional<hv::SealedBlob> stale;
        for (int i = 0; i < rounds; ++i) {
            bool ok = true;
            // Shootdown-heavy OS churn concurrent with the paging.
            ok = ok && bool(smp.osMap(t, slotVa, backing[t]));
            ok = ok && bool(smp.memStore(t, Gva(slotVa), 0x1000 + t));
            if (i % 8 == 3) {
                ok = ok && bool(smp.osProtectRo(t, slotVa, backing[t]));
                ok = ok && !smp.memStore(t, Gva(slotVa), 1);
            }
            ok = ok && bool(smp.osUnmap(t, slotVa));

            // Stamp this round's value into the thread's own page.
            ok = ok && bool(smp.hcEnclaveEnter(t, enc));
            ok = ok && bool(smp.memStore(t, Gva(word), 0x7000 + u64(i)));
            ok = ok && bool(smp.hcEnclaveExit(t));

            // EWB: the resident page seals and unmaps.
            auto blob = smp.hcEnclaveEvictPage(t, enc, Gva(pageGva));
            ok = ok && bool(blob);
            if (blob) {
                // Replay to the sibling enclave: authenticity failure.
                const auto replay =
                    smp.hcEnclaveReloadPage(t, other, *blob);
                ok = ok && !replay &&
                     replay.error() == HvError::SealAuthFailed;
                // A blob superseded by this evict must roll back.
                if (stale) {
                    const auto rollback =
                        smp.hcEnclaveReloadPage(t, enc, *stale);
                    ok = ok && !rollback &&
                         rollback.error() == HvError::SealRollback;
                }
                // ELD: the fresh blob restores the page.
                ok = ok && bool(smp.hcEnclaveReloadPage(t, enc, *blob));
                stale = *blob;
            }

            // The restored page holds this round's stamp.
            ok = ok && bool(smp.hcEnclaveEnter(t, enc));
            const auto readback = smp.memLoad(t, Gva(word));
            ok = ok && readback && *readback == 0x7000 + u64(i);
            ok = ok && bool(smp.hcEnclaveExit(t));

            if (!ok)
                failures.fetch_add(1);
            smp.serviceIpis(t);
        }
        active.fetch_sub(1);
        while (active.load() != 0) {
            smp.serviceIpis(t);
            std::this_thread::yield();
        }
    };

    std::vector<std::thread> pool;
    for (u32 t = 0; t < vcpus; ++t)
        pool.emplace_back(worker, VcpuId(t));
    for (std::thread &thread : pool)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
    EXPECT_TRUE(checkTlbCoherence(smp).empty());

    const hv::MonitorStats &mon = smp.monitor().stats();
    EXPECT_EQ(mon.pagesEvicted.load(), u64(vcpus) * rounds);
    EXPECT_EQ(mon.pagesReloaded.load(), u64(vcpus) * rounds);
    EXPECT_EQ(smp.stats().ipisAcked.load(), smp.stats().ipisSent.load());
    for (VcpuId v = 0; v < vcpus; ++v)
        EXPECT_FALSE(smp.ipiPending(v));

    // Every thread's page survived its last round-trip intact.
    for (u32 t = 0; t < vcpus; ++t) {
        ASSERT_TRUE(smp.hcEnclaveEnter(t, (t % 2 == 0) ? *encA : *encB));
        const u64 elbase = (t % 2 == 0) ? 0x10'0000 : 0x30'0000;
        const u64 word = elbase + (t / 2) * pageSize + u64(t) * 8;
        const auto value = smp.memLoad(t, Gva(word));
        ASSERT_TRUE(value);
        EXPECT_EQ(*value, 0x7000 + u64(rounds - 1));
        ASSERT_TRUE(smp.hcEnclaveExit(t));
    }
}

TEST(SmpThreads, ParallelEnclaveLifecyclesDontInterfere)
{
    constexpr u32 vcpus = 3;
    SmpMonitor smp(smallConfig(vcpus));

    std::atomic<u32> active{vcpus};
    std::atomic<u32> failures{0};
    // The enclave builder drives the primary OS's unsynchronized page
    // pool, so builds are serialized; the lock is taken with a
    // servicing spin — a plain blocking wait here could stall a
    // sibling's destroy shootdown waiting for this thread's ack.
    std::mutex buildLock;
    const auto worker = [&](VcpuId t) {
        // Each thread owns a disjoint ELRANGE window and repeatedly
        // builds, uses and destroys its own enclave.
        const u64 base = 0x100'0000 + u64(t) * 0x10'0000;
        for (int i = 0; i < 6; ++i) {
            bool ok = true;
            while (!buildLock.try_lock()) {
                smp.serviceIpis(t);
                std::this_thread::yield();
            }
            const auto id = makeMultiTcsEnclave(smp, t, base, 1, 1,
                                                0x40 + t);
            buildLock.unlock();
            if (!id) {
                failures.fetch_add(1);
                break;
            }
            ok = ok && bool(smp.hcEnclaveEnter(t, *id));
            const auto load = smp.memLoad(t, Gva(base));
            ok = ok && load && *load == 0x40 + t;
            ok = ok && bool(smp.hcEnclaveExit(t));
            ok = ok && bool(smp.hcEnclaveRemove(t, *id));
            if (!ok)
                failures.fetch_add(1);
            smp.serviceIpis(t);
        }
        active.fetch_sub(1);
        while (active.load() != 0) {
            smp.serviceIpis(t);
            std::this_thread::yield();
        }
    };

    std::vector<std::thread> pool;
    for (u32 t = 0; t < vcpus; ++t)
        pool.emplace_back(worker, VcpuId(t));
    for (std::thread &thread : pool)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
    EXPECT_EQ(smp.stats().destroys.load(), u64(vcpus) * 6);
    u64 live = 0;
    smp.monitor().forEachEnclave([&](const hv::Enclave &) { ++live; });
    EXPECT_EQ(live, 0u);
}

TEST(SmpThreads, BatchStormStaysCoherent)
{
    // The batched paths on real threads: every round each thread runs
    // an osUnmapBatch over its two private slots, a batched permission
    // downgrade every fourth round, and a two-page hcEnclaveEvictPagesBatch
    // / reload round-trip over the enclave pages it owns — all while
    // its enclave sibling does the same, so the single vectored
    // shootdowns constantly cross each other and the in-flight reload
    // fence gets exercised under contention.
    constexpr u32 vcpus = 4;
    constexpr int rounds = 24; // divisible by 4: see the stats math
    SmpMonitor smp(smallConfig(vcpus)); // default yield IPI driver

    // Threads t and t+2 share an enclave; each owns two Reg pages.
    const auto encA = makeMultiTcsEnclave(smp, 0, 0x10'0000, 4, 2);
    const auto encB = makeMultiTcsEnclave(smp, 0, 0x30'0000, 4, 2);
    ASSERT_TRUE(encA);
    ASSERT_TRUE(encB);

    std::vector<Gpa> backing;
    for (u32 t = 0; t < 2 * vcpus; ++t) {
        const auto page = smp.machine().os().allocPage();
        ASSERT_TRUE(page);
        backing.push_back(*page);
    }

    std::atomic<u32> active{vcpus};
    std::atomic<u32> failures{0};

    const auto worker = [&](VcpuId t) {
        const EnclaveId enc = (t % 2 == 0) ? *encA : *encB;
        const u64 elbase = (t % 2 == 0) ? 0x10'0000 : 0x30'0000;
        const u64 pageGva = elbase + (t / 2) * 2 * pageSize;
        const std::vector<Gva> own = {Gva(pageGva),
                                      Gva(pageGva + pageSize)};
        const std::vector<u64> slots = {0x300'0000 + u64(t) * 2 * pageSize,
                                        0x300'0000 +
                                            u64(t) * 2 * pageSize +
                                            pageSize};
        for (int i = 0; i < rounds; ++i) {
            bool ok = true;
            // Normal-world phase: map both slots, touch them, then
            // retire them with one batched shootdown.
            ok = ok && bool(smp.osMap(t, slots[0], backing[2 * t]));
            ok = ok && bool(smp.osMap(t, slots[1], backing[2 * t + 1]));
            ok = ok && bool(smp.memStore(t, Gva(slots[0]), u64(i)));
            ok = ok && bool(smp.memStore(t, Gva(slots[1]), u64(i) + 1));
            if (i % 4 == 3) {
                ok = ok && bool(smp.osProtectRoBatch(
                                 t, {{slots[0], backing[2 * t]},
                                     {slots[1], backing[2 * t + 1]}}));
                ok = ok && !smp.memStore(t, Gva(slots[0]), 1);
                ok = ok && !smp.memStore(t, Gva(slots[1]), 1);
            }
            ok = ok && bool(smp.osUnmapBatch(t, slots));

            // Stamp this round into both owned enclave pages.
            ok = ok && bool(smp.hcEnclaveEnter(t, enc));
            ok = ok && bool(smp.memStore(t, own[0], 0x8000 + u64(i)));
            ok = ok && bool(smp.memStore(t, own[1], 0x9000 + u64(i)));
            ok = ok && bool(smp.hcEnclaveExit(t));

            // Batched EWB of both pages, then reload them; a reload
            // that races a sibling's batched unmap of an aliasing va
            // is typed ShootdownInFlight and simply retried (the slots
            // and ELRANGEs are disjoint, so this never fires here, but
            // the retry loop is the documented client discipline).
            const auto blobs = smp.hcEnclaveEvictPagesBatch(t, enc, own);
            ok = ok && bool(blobs);
            if (blobs) {
                for (const hv::SealedBlob &blob : *blobs) {
                    Status reload = smp.hcEnclaveReloadPage(t, enc, blob);
                    while (!reload &&
                           reload.error() == HvError::ShootdownInFlight) {
                        smp.serviceIpis(t);
                        reload = smp.hcEnclaveReloadPage(t, enc, blob);
                    }
                    ok = ok && bool(reload);
                }
            }

            // Both restored pages hold this round's stamps.
            ok = ok && bool(smp.hcEnclaveEnter(t, enc));
            const auto a = smp.memLoad(t, own[0]);
            const auto b = smp.memLoad(t, own[1]);
            ok = ok && a && *a == 0x8000 + u64(i);
            ok = ok && b && *b == 0x9000 + u64(i);
            ok = ok && bool(smp.hcEnclaveExit(t));

            if (!ok)
                failures.fetch_add(1);
            smp.serviceIpis(t);
        }
        active.fetch_sub(1);
        while (active.load() != 0) {
            smp.serviceIpis(t);
            std::this_thread::yield();
        }
    };

    std::vector<std::thread> pool;
    for (u32 t = 0; t < vcpus; ++t)
        pool.emplace_back(worker, VcpuId(t));
    for (std::thread &thread : pool)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
    EXPECT_TRUE(checkTlbCoherence(smp).empty());

    // The amortization is visible in the counters: one generation per
    // batch — unmap and evict every round, protect every fourth —
    // never one per page.
    const u64 perThread = u64(rounds) * 2 + u64(rounds) / 4;
    EXPECT_EQ(smp.stats().shootdowns.load(), u64(vcpus) * perThread);
    EXPECT_EQ(smp.monitor().stats().pagesEvicted.load(),
              u64(vcpus) * rounds * 2);
    EXPECT_EQ(smp.monitor().stats().pagesReloaded.load(),
              u64(vcpus) * rounds * 2);
    EXPECT_EQ(smp.stats().ipisAcked.load(), smp.stats().ipisSent.load());
    for (VcpuId v = 0; v < vcpus; ++v)
        EXPECT_FALSE(smp.ipiPending(v));
}
