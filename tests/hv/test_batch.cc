/**
 * @file
 * Batched hypercalls at the monitor level: batch ≡ fold on success
 * (twin machines, digest-compared), all-or-nothing rollback carrying
 * the fold's *first* error on failure (misaligned middle element,
 * duplicate target, EPC exhaustion mid-batch), sealed-blob and
 * version-counter continuity across a rolled-back evict batch, and the
 * vectored (per-page, not whole-domain) TLB maintenance of the batch
 * paths, including the planted skip-middle-invalidate bug's residue.
 */

#include <gtest/gtest.h>

#include "hv/machine.hh"
#include "hv/monitor.hh"

namespace hev::hv
{
namespace
{

MonitorConfig
smallConfig()
{
    MonitorConfig cfg;
    cfg.layout.totalBytes = 32 * 1024 * 1024;
    cfg.layout.ptAreaBytes = 4 * 1024 * 1024;
    cfg.layout.epcBytes = 8 * 1024 * 1024;
    return cfg;
}

/** An 8-page ELRANGE enclave config for ad-hoc batch tests. */
EnclaveConfig
batchEnclaveConfig()
{
    EnclaveConfig cfg;
    cfg.elrange = {Gva(0x10'0000), Gva(0x18'0000)};
    cfg.mbufGva = Gva(0x20'0000);
    cfg.mbufPages = 1;
    cfg.mbufBacking = Gpa(0x8000);
    return cfg;
}

u64
mix(u64 h, u64 v)
{
    h ^= v;
    h *= 0x100000001b3ull;
    return h;
}

/**
 * Digest of everything the batch theorem quantifies over: the EPCM
 * (entries *and* page contents), the free-page count, each live
 * enclave's lifecycle metadata including the anti-rollback ledger, and
 * every terminal mapping of its GPT and EPT (so a rollback that leaves
 * a stray mapping behind shows).  The TLB is deliberately excluded — it is a cache, and the batch path
 * legitimately leaves different (never stale) residue than the fold.
 */
u64
monitorDigest(const Monitor &mon)
{
    u64 h = 0xcbf29ce484222325ull;
    mon.epcm().forEachUsed([&](Hpa page, const EpcmEntry &entry) {
        h = mix(h, page.value);
        h = mix(h, u64(entry.state));
        h = mix(h, u64(entry.owner));
        h = mix(h, entry.linAddr.value);
        for (u64 off = 0; off < pageSize; off += 8)
            h = mix(h, mon.mem().read(Hpa(page.value + off)));
    });
    h = mix(h, mon.epcm().freePages());
    mon.forEachEnclave([&](const Enclave &enc) {
        h = mix(h, u64(enc.id));
        h = mix(h, u64(enc.state));
        h = mix(h, enc.addedPages);
        h = mix(h, enc.tcsPages);
        h = mix(h, enc.entryPoint);
        h = mix(h, enc.measurement);
        h = mix(h, enc.nextSealVersion);
        for (const auto &[gva, version] : enc.evictedPages) {
            h = mix(h, gva);
            h = mix(h, version);
        }
        for (const Hpa root : {enc.gptRoot, enc.eptRoot}) {
            const PageTable pt(const_cast<PhysMem &>(mon.mem()), nullptr,
                               root);
            pt.forEachMapping([&](u64 va, Pte entry, int level) {
                h = mix(h, va);
                h = mix(h, entry.raw());
                h = mix(h, u64(level));
            });
        }
    });
    return h;
}

/** Fill a normal-memory source page with a recognizable pattern. */
void
fillSource(Monitor &mon, Gpa src, u64 seed)
{
    for (u64 off = 0; off < pageSize; off += 8)
        mon.mem().write(Hpa(src.value + off), seed + off);
}

/** A five-element batch (four Reg pages, TCS last) over fresh sources. */
std::vector<AddPageRequest>
fiveElementBatch(Monitor &mon)
{
    std::vector<AddPageRequest> reqs;
    for (u64 i = 0; i < 5; ++i) {
        const Gpa src(0x4'0000 + i * pageSize);
        fillSource(mon, src, 0x1000 * (i + 1));
        reqs.push_back({Gva(0x10'0000 + i * pageSize), src,
                        i == 4 ? AddPageKind::Tcs : AddPageKind::Reg});
    }
    return reqs;
}

TEST(BatchAdd, BatchEqualsFoldOnSuccess)
{
    Monitor batch(smallConfig());
    Monitor fold(smallConfig());
    auto id_a = batch.hcEnclaveInit(batchEnclaveConfig());
    auto id_b = fold.hcEnclaveInit(batchEnclaveConfig());
    ASSERT_TRUE(id_a.ok() && id_b.ok());
    ASSERT_EQ(*id_a, *id_b);

    const auto reqs = fiveElementBatch(batch);
    ASSERT_EQ(fiveElementBatch(fold), reqs); // twin sources, twin batch

    ASSERT_TRUE(batch.hcEnclaveAddPagesBatch(*id_a, reqs).ok());
    for (const AddPageRequest &req : reqs)
        ASSERT_TRUE(
            fold.hcEnclaveAddPage(*id_b, req.gva, req.src, req.kind).ok());

    EXPECT_EQ(monitorDigest(batch), monitorDigest(fold));
    EXPECT_EQ(batch.stats().pagesAdded.load(), 5u);
    EXPECT_EQ(batch.stats().pagesAdded.load(),
              fold.stats().pagesAdded.load());

    // Both trees finish to the same measurement and stay equal.
    ASSERT_TRUE(batch.hcEnclaveInitFinish(*id_a).ok());
    ASSERT_TRUE(fold.hcEnclaveInitFinish(*id_b).ok());
    EXPECT_EQ(monitorDigest(batch), monitorDigest(fold));

    // Every element is really mapped with its source contents.
    const Enclave *enc = batch.findEnclave(*id_a);
    ASSERT_NE(enc, nullptr);
    for (u64 i = 0; i < reqs.size(); ++i) {
        auto hpa = batch.translateEnclaveUncached(
            enc->gptRoot, enc->eptRoot, reqs[i].gva, false);
        ASSERT_TRUE(hpa.ok()) << "element " << i;
        EXPECT_EQ(batch.mem().read(*hpa), 0x1000 * (i + 1));
    }
}

TEST(BatchAdd, MisalignedMiddleElementRollsBackWithFoldsError)
{
    Monitor batch(smallConfig());
    Monitor fold(smallConfig());
    auto id_a = batch.hcEnclaveInit(batchEnclaveConfig());
    auto id_b = fold.hcEnclaveInit(batchEnclaveConfig());
    ASSERT_TRUE(id_a.ok() && id_b.ok());

    auto reqs = fiveElementBatch(batch);
    (void)fiveElementBatch(fold);
    reqs[2].gva = Gva(reqs[2].gva.value + 0x100); // misaligned middle

    const u64 pre = monitorDigest(batch);
    const Status verdict = batch.hcEnclaveAddPagesBatch(*id_a, reqs);
    ASSERT_FALSE(verdict.ok());

    // The fold reaches the same element and produces the same error...
    HvError fold_error = HvError::None;
    for (const AddPageRequest &req : reqs) {
        const Status s =
            fold.hcEnclaveAddPage(*id_b, req.gva, req.src, req.kind);
        if (!s.ok()) {
            fold_error = s.error();
            break;
        }
    }
    EXPECT_EQ(verdict.error(), fold_error);
    EXPECT_EQ(verdict.error(), HvError::NotAligned);

    // ...but the batch left no trace while the fold committed two pages.
    EXPECT_EQ(monitorDigest(batch), pre);
    EXPECT_EQ(batch.stats().pagesAdded.load(), 0u);
    EXPECT_EQ(fold.stats().pagesAdded.load(), 2u);
    EXPECT_GT(batch.stats().rejectedRequests.load(), 0u);
    EXPECT_EQ(batch.epcm().freePages(), batch.epcm().totalPages());
}

TEST(BatchAdd, DuplicateTargetRollsBackThenCleanBatchSucceeds)
{
    Monitor mon(smallConfig());
    auto id = mon.hcEnclaveInit(batchEnclaveConfig());
    ASSERT_TRUE(id.ok());

    auto reqs = fiveElementBatch(mon);
    reqs[3].gva = reqs[1].gva; // element 3 re-adds element 1's page

    const u64 pre = monitorDigest(mon);
    const Status verdict = mon.hcEnclaveAddPagesBatch(*id, reqs);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.error(), HvError::AlreadyMapped);
    EXPECT_EQ(monitorDigest(mon), pre);

    // The rollback really unmapped elements 0..2: the clean batch can
    // re-add every one of them.
    reqs[3].gva = Gva(0x10'0000 + 3 * pageSize);
    ASSERT_TRUE(mon.hcEnclaveAddPagesBatch(*id, reqs).ok());
    ASSERT_TRUE(mon.hcEnclaveInitFinish(*id).ok());
    EXPECT_EQ(mon.stats().pagesAdded.load(), 5u);
}

TEST(BatchAdd, EpcExhaustionMidBatchRollsBackCompletely)
{
    MonitorConfig cfg = smallConfig();
    cfg.layout.epcBytes = 4 * pageSize; // room for only 4 elements
    Monitor mon(cfg);
    auto id = mon.hcEnclaveInit(batchEnclaveConfig());
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(mon.epcm().totalPages(), 4u);

    std::vector<AddPageRequest> reqs;
    for (u64 i = 0; i < 6; ++i) {
        const Gpa src(0x4'0000 + i * pageSize);
        fillSource(mon, src, 0x2000 * (i + 1));
        reqs.push_back({Gva(0x10'0000 + i * pageSize), src,
                        AddPageKind::Reg});
    }

    const u64 pre = monitorDigest(mon);
    const Status verdict = mon.hcEnclaveAddPagesBatch(*id, reqs);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.error(), HvError::OutOfEpc);
    EXPECT_EQ(monitorDigest(mon), pre);
    EXPECT_EQ(mon.epcm().freePages(), 4u);

    // The whole EPC is still usable after the rollback.
    reqs.resize(4);
    reqs.back().kind = AddPageKind::Tcs;
    ASSERT_TRUE(mon.hcEnclaveAddPagesBatch(*id, reqs).ok());
    EXPECT_EQ(mon.epcm().freePages(), 0u);
}

TEST(BatchAdd, EmptyBatchIsANoOp)
{
    Monitor mon(smallConfig());
    auto id = mon.hcEnclaveInit(batchEnclaveConfig());
    ASSERT_TRUE(id.ok());
    const u64 pre = monitorDigest(mon);
    EXPECT_TRUE(mon.hcEnclaveAddPagesBatch(*id, {}).ok());
    EXPECT_EQ(monitorDigest(mon), pre);
    EXPECT_EQ(mon.stats().pagesAdded.load(), 0u);
}

TEST(BatchEvict, BatchEqualsFoldIncludingBlobsAndReload)
{
    Machine batch(smallConfig());
    Machine fold(smallConfig());
    auto enc_a = batch.setupEnclave(0x10'0000, 3, 1, 0x7000);
    auto enc_b = fold.setupEnclave(0x10'0000, 3, 1, 0x7000);
    ASSERT_TRUE(enc_a.ok() && enc_b.ok());

    std::vector<Gva> gvas;
    for (u64 i = 0; i < 3; ++i)
        gvas.push_back(Gva(0x10'0000 + i * pageSize));

    auto blobs = batch.monitor().hcEnclaveEvictPagesBatch(enc_a->id, gvas);
    ASSERT_TRUE(blobs.ok());
    ASSERT_EQ(blobs->size(), 3u);

    std::vector<SealedBlob> singles;
    for (const Gva &gva : gvas) {
        auto blob = fold.monitor().hcEnclaveEvictPage(enc_b->id, gva);
        ASSERT_TRUE(blob.ok());
        singles.push_back(*blob);
    }

    // Element-for-element identical blobs (same versions, same slots,
    // same MACs) and identical post states.
    EXPECT_EQ(*blobs, singles);
    EXPECT_EQ(monitorDigest(batch.monitor()), monitorDigest(fold.monitor()));
    EXPECT_EQ(batch.monitor().stats().pagesEvicted.load(), 3u);

    // Reloading everything lands both machines on the same state, with
    // the page contents restored bit-identically.
    for (const SealedBlob &blob : *blobs)
        ASSERT_TRUE(
            batch.monitor().hcEnclaveReloadPage(enc_a->id, blob).ok());
    for (const SealedBlob &blob : singles)
        ASSERT_TRUE(
            fold.monitor().hcEnclaveReloadPage(enc_b->id, blob).ok());
    EXPECT_EQ(monitorDigest(batch.monitor()), monitorDigest(fold.monitor()));

    ASSERT_TRUE(
        batch.monitor().hcEnclaveEnter(enc_a->id, batch.vcpu()).ok());
    auto word = batch.memLoad(Gva(0x10'1000));
    ASSERT_TRUE(word.ok());
    EXPECT_EQ(*word, 0x7000ull + 1000);
    ASSERT_TRUE(batch.monitor().hcEnclaveExit(batch.vcpu()).ok());
}

TEST(BatchEvict, MidBatchFailureRestoresEverySealedPage)
{
    Machine machine(smallConfig());
    auto enc = machine.setupEnclave(0x10'0000, 3, 1, 0x9000);
    ASSERT_TRUE(enc.ok());
    Monitor &mon = machine.monitor();

    // Element 2 lies outside ELRANGE: the first two pages get sealed
    // and must be restored when the batch aborts.
    const std::vector<Gva> bad = {Gva(0x10'0000), Gva(0x10'1000),
                                  Gva(0x40'0000)};
    const u64 pre = monitorDigest(mon);
    auto verdict = mon.hcEnclaveEvictPagesBatch(enc->id, bad);
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(monitorDigest(mon), pre);
    EXPECT_EQ(mon.stats().pagesEvicted.load(), 0u);

    // The single call fails with the same error the batch reported.
    auto single = mon.hcEnclaveEvictPage(enc->id, Gva(0x40'0000));
    ASSERT_FALSE(single.ok());
    EXPECT_EQ(verdict.error(), single.error());

    // Version continuity: the rolled-back batch consumed no seal
    // versions, so the next evict seals version 1 as if the failed
    // batch had never happened.
    auto blob = mon.hcEnclaveEvictPage(enc->id, Gva(0x10'0000));
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(blob->version, 1u);
    ASSERT_TRUE(mon.hcEnclaveReloadPage(enc->id, *blob).ok());
}

TEST(BatchEvict, DuplicateElementRollsBack)
{
    Machine machine(smallConfig());
    auto enc = machine.setupEnclave(0x10'0000, 2, 1, 0xa000);
    ASSERT_TRUE(enc.ok());
    Monitor &mon = machine.monitor();

    // The second occurrence finds the page already evicted: the whole
    // batch (including the first occurrence) must unwind.
    const u64 pre = monitorDigest(mon);
    auto verdict = mon.hcEnclaveEvictPagesBatch(
        enc->id, {Gva(0x10'0000), Gva(0x10'0000)});
    ASSERT_FALSE(verdict.ok());
    EXPECT_EQ(verdict.error(), HvError::NotMapped);
    EXPECT_EQ(monitorDigest(mon), pre);

    // The page is still resident and evictable.
    auto blob = mon.hcEnclaveEvictPage(enc->id, Gva(0x10'0000));
    ASSERT_TRUE(blob.ok());
}

TEST(BatchEvict, EmptyBatchIsANoOp)
{
    Machine machine(smallConfig());
    auto enc = machine.setupEnclave(0x10'0000, 1, 1, 0);
    ASSERT_TRUE(enc.ok());
    const u64 pre = monitorDigest(machine.monitor());
    auto blobs = machine.monitor().hcEnclaveEvictPagesBatch(enc->id, {});
    ASSERT_TRUE(blobs.ok());
    EXPECT_TRUE(blobs->empty());
    EXPECT_EQ(monitorDigest(machine.monitor()), pre);
}

TEST(BatchEvict, TlbMaintenanceIsVectoredNotDomainWide)
{
    Machine machine(smallConfig());
    auto enc = machine.setupEnclave(0x10'0000, 3, 1, 0xb000);
    ASSERT_TRUE(enc.ok());
    Monitor &mon = machine.monitor();

    // Fill the enclave's TLB domain: three ELRANGE pages plus the
    // marshalling buffer.
    ASSERT_TRUE(mon.hcEnclaveEnter(enc->id, machine.vcpu()).ok());
    for (u64 i = 0; i < 3; ++i)
        ASSERT_TRUE(machine.memLoad(Gva(0x10'0000 + i * pageSize)).ok());
    ASSERT_TRUE(machine.memLoad(Gva(enc->mbufGva.value)).ok());
    const DomainId domain = DomainId(enc->id);
    ASSERT_EQ(mon.tlb().countDomain(domain), 4u);

    // The batch invalidates exactly its own pages; the marshalling
    // buffer's cached translation (not part of the batch) survives.
    auto blobs = mon.hcEnclaveEvictPagesBatch(
        enc->id,
        {Gva(0x10'0000), Gva(0x10'1000), Gva(0x10'2000)});
    ASSERT_TRUE(blobs.ok());
    EXPECT_EQ(mon.tlb().countDomain(domain), 1u);
    for (u64 i = 0; i < 3; ++i)
        EXPECT_FALSE(
            mon.tlb().lookup(domain, 0x10'0000 + i * pageSize).has_value())
            << "stale entry for evicted page " << i;
    EXPECT_TRUE(
        mon.tlb().lookup(domain, enc->mbufGva.value).has_value());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
}

TEST(BatchEvict, PlantedSkipMiddleInvalidateLeavesExactlyTheMiddle)
{
    MonitorConfig cfg = smallConfig();
    cfg.planted.batchSkipMiddleInvalidate = true;
    Machine machine(cfg);
    auto enc = machine.setupEnclave(0x10'0000, 3, 1, 0xc000);
    ASSERT_TRUE(enc.ok());
    Monitor &mon = machine.monitor();

    ASSERT_TRUE(mon.hcEnclaveEnter(enc->id, machine.vcpu()).ok());
    for (u64 i = 0; i < 3; ++i)
        ASSERT_TRUE(machine.memLoad(Gva(0x10'0000 + i * pageSize)).ok());
    const DomainId domain = DomainId(enc->id);

    auto blobs = mon.hcEnclaveEvictPagesBatch(
        enc->id,
        {Gva(0x10'0000), Gva(0x10'1000), Gva(0x10'2000)});
    ASSERT_TRUE(blobs.ok());

    // The endpoints were invalidated; the middle page's translation is
    // the stale residue the SMP coherence oracle and the fuzzer hunt.
    EXPECT_FALSE(mon.tlb().lookup(domain, 0x10'0000).has_value());
    EXPECT_TRUE(mon.tlb().lookup(domain, 0x10'1000).has_value());
    EXPECT_FALSE(mon.tlb().lookup(domain, 0x10'2000).has_value());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
}

TEST(BatchLifecycle, RemoveRetiresTlbDomainAndIdsStayMonotonic)
{
    Machine machine(smallConfig());
    auto first = machine.setupEnclave(0x10'0000, 2, 1, 0xd000);
    ASSERT_TRUE(first.ok());
    Monitor &mon = machine.monitor();

    ASSERT_TRUE(mon.hcEnclaveEnter(first->id, machine.vcpu()).ok());
    ASSERT_TRUE(machine.memLoad(Gva(0x10'0000)).ok());
    ASSERT_TRUE(mon.hcEnclaveExit(machine.vcpu()).ok());
    ASSERT_TRUE(mon.hcEnclaveRemove(first->id).ok());
    EXPECT_EQ(mon.tlb().countDomain(DomainId(first->id)), 0u);

    // Enclave ids are monotonic: the retired domain tag is never
    // handed to a new enclave, so a stale tag could only ever alias
    // the dead enclave it belonged to.
    auto second = machine.setupEnclave(0x10'0000, 2, 1, 0xe000);
    ASSERT_TRUE(second.ok());
    EXPECT_GT(second->id, first->id);
    EXPECT_EQ(mon.tlb().countDomain(DomainId(second->id)), 0u);
}

TEST(BatchLifecycle, HugeAndSmallNormalEptAgreeOnBatchedLifecycle)
{
    MonitorConfig small_pages = smallConfig();
    small_pages.hugeNormalEpt = false;
    Machine huge(smallConfig());
    Machine plain(small_pages);

    for (Machine *m : {&huge, &plain}) {
        auto enc = m->setupEnclave(0x10'0000, 3, 1, 0xf000);
        ASSERT_TRUE(enc.ok());
        auto blobs = m->monitor().hcEnclaveEvictPagesBatch(
            enc->id,
            {Gva(0x10'0000), Gva(0x10'1000), Gva(0x10'2000)});
        ASSERT_TRUE(blobs.ok());
        for (const SealedBlob &blob : *blobs)
            ASSERT_TRUE(
                m->monitor().hcEnclaveReloadPage(enc->id, blob).ok());
        // Normal-memory accesses behave identically under 2 MiB and
        // 4 KiB EPT mappings.
        ASSERT_TRUE(m->memStore(Gva(0x9'0000), 0x1234).ok());
        auto word = m->memLoad(Gva(0x9'0000));
        ASSERT_TRUE(word.ok());
        EXPECT_EQ(*word, 0x1234ull);
    }
    EXPECT_EQ(monitorDigest(huge.monitor()),
              monitorDigest(plain.monitor()));
}

} // namespace
} // namespace hev::hv
