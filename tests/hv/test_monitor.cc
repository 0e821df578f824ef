/**
 * @file
 * Unit tests for RustMonitor: hypercall validation, enclave lifecycle,
 * EPT construction, and translation paths.
 */

#include <gtest/gtest.h>

#include "hv/machine.hh"
#include "hv/monitor.hh"
#include "obs/stats.hh"
#include "support/logging.hh"

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

/** A valid enclave config for ad-hoc init tests. */
EnclaveConfig
validEnclaveConfig()
{
    EnclaveConfig cfg;
    cfg.elrange = {Gva(0x10'0000), Gva(0x14'0000)};
    cfg.mbufGva = Gva(0x20'0000);
    cfg.mbufPages = 2;
    cfg.mbufBacking = Gpa(0x8000);
    return cfg;
}

TEST(MonitorTest, NormalEptCoversExactlyNormalMemory)
{
    Monitor mon(smallConfig());
    const PageTable ept(mon.mem(), nullptr, mon.normalEptRoot());

    const u64 secure_base = mon.config().layout.secureBase();
    // Identity inside normal memory.
    for (u64 gpa = 0; gpa < secure_base; gpa += 512 * 1024) {
        auto tr = ept.translate(gpa, true, false);
        ASSERT_TRUE(tr.ok()) << "gpa " << gpa;
        EXPECT_EQ(tr->physAddr, gpa);
    }
    // Nothing at or above the secure base.
    for (u64 gpa = secure_base;
         gpa < mon.config().layout.totalBytes; gpa += 256 * 1024) {
        EXPECT_FALSE(ept.translate(gpa, false, false).ok())
            << "secure gpa " << gpa << " is guest-mappable";
    }
}

TEST(MonitorTest, NormalEptWithout2MbPagesIsEquivalent)
{
    MonitorConfig cfg = smallConfig();
    cfg.hugeNormalEpt = false;
    Monitor mon(cfg);
    const PageTable ept(mon.mem(), nullptr, mon.normalEptRoot());
    auto tr = ept.translate(0x12'3000, true, false);
    ASSERT_TRUE(tr.ok());
    EXPECT_EQ(tr->physAddr, 0x12'3000ull);
    EXPECT_EQ(tr->level, 1);
    EXPECT_FALSE(
        ept.translate(cfg.layout.secureBase(), false, false).ok());
}

TEST(MonitorTest, InitCreatesEnclaveWithMbufMapped)
{
    Monitor mon(smallConfig());
    auto id = mon.hcEnclaveInit(validEnclaveConfig());
    ASSERT_TRUE(id.ok());
    const Enclave *enc = mon.findEnclave(*id);
    ASSERT_NE(enc, nullptr);
    EXPECT_EQ(enc->state, EnclaveState::Adding);

    // The mbuf is reachable through GPT then EPT.
    auto hpa = mon.translateEnclaveUncached(enc->gptRoot, enc->eptRoot,
                                            Gva(0x20'0000), true);
    ASSERT_TRUE(hpa.ok());
    EXPECT_EQ(hpa->value, 0x8000ull);
    auto hpa2 = mon.translateEnclaveUncached(enc->gptRoot, enc->eptRoot,
                                             Gva(0x20'1000), true);
    ASSERT_TRUE(hpa2.ok());
    EXPECT_EQ(hpa2->value, 0x9000ull);
}

TEST(MonitorTest, InitRejectsMbufOverlappingElrange)
{
    Monitor mon(smallConfig());
    EnclaveConfig cfg = validEnclaveConfig();
    cfg.mbufGva = Gva(cfg.elrange.end.value - pageSize);
    auto id = mon.hcEnclaveInit(cfg);
    EXPECT_EQ(id.error(), HvError::IsolationViolation);
}

TEST(MonitorTest, InitRejectsMbufBackedBySecureMemory)
{
    Monitor mon(smallConfig());
    EnclaveConfig cfg = validEnclaveConfig();
    cfg.mbufBacking = Gpa(mon.config().layout.secureBase());
    EXPECT_EQ(mon.hcEnclaveInit(cfg).error(),
              HvError::IsolationViolation);
    // Straddling the boundary is rejected too.
    cfg.mbufBacking = Gpa(mon.config().layout.secureBase() - pageSize);
    cfg.mbufPages = 2;
    EXPECT_EQ(mon.hcEnclaveInit(cfg).error(),
              HvError::IsolationViolation);
}

TEST(MonitorTest, InitRejectsMalformedGeometry)
{
    Monitor mon(smallConfig());
    EnclaveConfig cfg = validEnclaveConfig();
    cfg.elrange = {Gva(0x1000), Gva(0x1000)}; // empty
    EXPECT_EQ(mon.hcEnclaveInit(cfg).error(), HvError::InvalidParam);

    cfg = validEnclaveConfig();
    cfg.elrange = {Gva(0x1234), Gva(0x9000)}; // unaligned
    EXPECT_EQ(mon.hcEnclaveInit(cfg).error(), HvError::InvalidParam);

    cfg = validEnclaveConfig();
    cfg.mbufPages = 0;
    EXPECT_EQ(mon.hcEnclaveInit(cfg).error(), HvError::InvalidParam);
}

TEST(MonitorTest, AddPageMapsIntoEpc)
{
    Monitor mon(smallConfig());
    auto id = mon.hcEnclaveInit(validEnclaveConfig());
    ASSERT_TRUE(id.ok());

    // Stage a source page in normal memory.
    for (u64 off = 0; off < pageSize; off += 8)
        mon.mem().write(Hpa(0x4000 + off), off + 1);

    ASSERT_TRUE(mon.hcEnclaveAddPage(*id, Gva(0x10'0000), Gpa(0x4000),
                                     AddPageKind::Reg).ok());

    const Enclave *enc = mon.findEnclave(*id);
    auto hpa = mon.translateEnclaveUncached(enc->gptRoot, enc->eptRoot,
                                            Gva(0x10'0000), true);
    ASSERT_TRUE(hpa.ok());
    EXPECT_TRUE(mon.epcm().isEpc(*hpa)) << "enclave page not in EPC";
    // The contents were copied.
    for (u64 off = 0; off < pageSize; off += 8)
        ASSERT_EQ(mon.mem().read(*hpa + off), off + 1);
    // EPCM records the mapping.
    const EpcmEntry &entry = mon.epcm().entryFor(*hpa);
    EXPECT_EQ(entry.owner, *id);
    EXPECT_EQ(entry.linAddr, Gva(0x10'0000));
    EXPECT_EQ(entry.state, EpcPageState::Reg);
}

TEST(MonitorTest, AddPageOutsideElrangeRejected)
{
    Monitor mon(smallConfig());
    auto id = mon.hcEnclaveInit(validEnclaveConfig());
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(mon.hcEnclaveAddPage(*id, Gva(0x20'0000), Gpa(0x4000),
                                   AddPageKind::Reg).error(),
              HvError::IsolationViolation);
    EXPECT_EQ(mon.hcEnclaveAddPage(*id, Gva(0x14'0000), Gpa(0x4000),
                                   AddPageKind::Reg).error(),
              HvError::IsolationViolation) << "elrange.end is exclusive";
}

TEST(MonitorTest, AddPageFromSecureSourceRejected)
{
    Monitor mon(smallConfig());
    auto id = mon.hcEnclaveInit(validEnclaveConfig());
    ASSERT_TRUE(id.ok());
    const Gpa secure_src(mon.config().layout.secureBase());
    EXPECT_EQ(mon.hcEnclaveAddPage(*id, Gva(0x10'0000), secure_src,
                                   AddPageKind::Reg).error(),
              HvError::IsolationViolation);
}

TEST(MonitorTest, AddPageTwiceAtSameGvaRejected)
{
    Monitor mon(smallConfig());
    auto id = mon.hcEnclaveInit(validEnclaveConfig());
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(mon.hcEnclaveAddPage(*id, Gva(0x10'0000), Gpa(0x4000),
                                     AddPageKind::Reg).ok());
    EXPECT_EQ(mon.hcEnclaveAddPage(*id, Gva(0x10'0000), Gpa(0x4000),
                                   AddPageKind::Reg).error(),
              HvError::AlreadyMapped);
}

TEST(MonitorTest, LifecycleEnforced)
{
    Monitor mon(smallConfig());
    auto id = mon.hcEnclaveInit(validEnclaveConfig());
    ASSERT_TRUE(id.ok());

    // init_finish without a TCS page fails.
    EXPECT_EQ(mon.hcEnclaveInitFinish(*id).error(), HvError::InvalidParam);

    mon.mem().write(Hpa(0x4000), 0x10'0000); // entry point
    ASSERT_TRUE(mon.hcEnclaveAddPage(*id, Gva(0x10'0000), Gpa(0x4000),
                                     AddPageKind::Tcs).ok());
    ASSERT_TRUE(mon.hcEnclaveInitFinish(*id).ok());
    EXPECT_EQ(mon.findEnclave(*id)->state, EnclaveState::Initialized);

    // No adds after initialization.
    EXPECT_EQ(mon.hcEnclaveAddPage(*id, Gva(0x10'1000), Gpa(0x4000),
                                   AddPageKind::Reg).error(),
              HvError::BadEnclaveState);
    // No double finish.
    EXPECT_EQ(mon.hcEnclaveInitFinish(*id).error(),
              HvError::BadEnclaveState);
}

TEST(MonitorTest, HypercallsOnUnknownEnclaveRejected)
{
    Monitor mon(smallConfig());
    EXPECT_EQ(mon.hcEnclaveAddPage(99, Gva(0), Gpa(0),
                                   AddPageKind::Reg).error(),
              HvError::NoSuchEnclave);
    EXPECT_EQ(mon.hcEnclaveInitFinish(99).error(), HvError::NoSuchEnclave);
    EXPECT_EQ(mon.hcEnclaveRemove(99).error(), HvError::NoSuchEnclave);
    VCpu vcpu;
    EXPECT_EQ(mon.hcEnclaveEnter(99, vcpu).error(),
              HvError::NoSuchEnclave);
}

/** Every id-taking entry point must answer NoSuchEnclave for @p id. */
void
expectNoSuchEnclave(Monitor &mon, EnclaveId id)
{
    constexpr HvError gone = HvError::NoSuchEnclave;
    const Gva page(0x10'0000);
    EXPECT_EQ(mon.findEnclave(id), nullptr);
    EXPECT_EQ(mon.hcEnclaveAddPage(id, page, Gpa(0x4000),
                                   AddPageKind::Reg).error(),
              gone);
    EXPECT_EQ(mon.hcEnclaveAddPagesBatch(
                     id, {{page, Gpa(0x4000), AddPageKind::Reg}})
                  .error(),
              gone);
    EXPECT_EQ(mon.hcEnclaveInitFinish(id).error(), gone);
    VCpu vcpu;
    EXPECT_EQ(mon.hcEnclaveEnter(id, vcpu).error(), gone);
    EXPECT_EQ(mon.hcEnclaveRemove(id).error(), gone);
    EXPECT_EQ(mon.hcEnclaveEvictPage(id, page).error(), gone);
    EXPECT_EQ(mon.hcEnclaveEvictPagesBatch(id, {page}).error(), gone);
    SealedBlob blob;
    blob.owner = id;
    blob.gva = page;
    blob.mac = sealedBlobMac(blob);
    EXPECT_EQ(mon.hcEnclaveReloadPage(id, blob).error(), gone);
    EXPECT_EQ(mon.hcEnclaveSnapshot(id, SnapshotMode::Fork).error(), gone);
    EXPECT_EQ(mon.hcEnclaveSnapshot(id, SnapshotMode::Move).error(), gone);
    EXPECT_EQ(mon.takeEnclaveDirty(id).error(), gone);
    EXPECT_EQ(mon.enclaveStore(id, page, 1).error(), gone);
    EXPECT_EQ(mon.enclaveLoad(id, page).error(), gone);
    EXPECT_EQ(mon.enclaveResidentPages(id).error(), gone);
    std::vector<u64> words(pageSize / sizeof(u64));
    EXPECT_EQ(mon.enclaveReadPage(id, page, words.data()).error(), gone);
}

TEST(MonitorTest, RemovedAndMovedIdsAreGoneAndNeverReused)
{
    Machine machine(smallConfig());
    Monitor &mon = machine.monitor();
    auto removed = machine.setupEnclave(0x10'0000, 2, 1, 0x11);
    auto moved = machine.setupEnclave(0x10'0000, 2, 1, 0x22);
    ASSERT_TRUE(removed.ok());
    ASSERT_TRUE(moved.ok());
    ASSERT_EQ(mon.liveEnclaves(), 2u);

    ASSERT_TRUE(mon.hcEnclaveRemove(removed->id).ok());
    ASSERT_TRUE(mon.hcEnclaveSnapshot(moved->id, SnapshotMode::Move).ok());
    // Both records are gone, not merely marked: nothing is left to
    // count or visit.
    EXPECT_EQ(mon.liveEnclaves(), 0u);
    u64 visited = 0;
    mon.forEachEnclave([&](const Enclave &) { ++visited; });
    EXPECT_EQ(visited, 0u);
    expectNoSuchEnclave(mon, removed->id);
    expectNoSuchEnclave(mon, moved->id);

    // The next enclave gets a fresh id; the retired ones stay unknown.
    auto fresh = machine.setupEnclave(0x10'0000, 1, 1, 0x33);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh->id, moved->id + 1);
    EXPECT_EQ(mon.liveEnclaves(), 1u);
    expectNoSuchEnclave(mon, removed->id);
    expectNoSuchEnclave(mon, moved->id);
}

TEST(MonitorTest, EnterExitRoundTripRestoresContext)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 2, 1, 7);
    ASSERT_TRUE(enclave.ok());
    Monitor &mon = machine.monitor();
    VCpu &vcpu = machine.vcpu();

    vcpu.regs.gpr[0] = 0x1111;
    vcpu.regs.rip = 0x4242;
    const RegFile app_regs = vcpu.regs;
    const Hpa app_gpt = vcpu.gptRoot;

    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, vcpu).ok());
    EXPECT_EQ(vcpu.mode, CpuMode::GuestEnclave);
    EXPECT_EQ(vcpu.currentEnclave, enclave->id);
    // First entry scrubs registers and installs the entry point.
    EXPECT_EQ(vcpu.regs.gpr[0], 0ull);
    EXPECT_EQ(vcpu.regs.rip, 0x10'0000ull);
    EXPECT_NE(vcpu.gptRoot, app_gpt);

    vcpu.regs.gpr[1] = 0xbeef; // enclave computes something
    ASSERT_TRUE(mon.hcEnclaveExit(vcpu).ok());
    EXPECT_EQ(vcpu.mode, CpuMode::GuestNormal);
    EXPECT_EQ(vcpu.regs, app_regs) << "app context not restored";
    EXPECT_EQ(vcpu.gptRoot, app_gpt);

    // Re-entry restores the enclave's saved context.
    ASSERT_TRUE(mon.hcEnclaveEnter(enclave->id, vcpu).ok());
    EXPECT_EQ(vcpu.regs.gpr[1], 0xbeefull);
    ASSERT_TRUE(mon.hcEnclaveExit(vcpu).ok());
}

TEST(MonitorTest, EnterRequiresInitializedEnclave)
{
    Monitor mon(smallConfig());
    auto id = mon.hcEnclaveInit(validEnclaveConfig());
    ASSERT_TRUE(id.ok());
    VCpu vcpu;
    vcpu.mode = CpuMode::GuestNormal;
    EXPECT_EQ(mon.hcEnclaveEnter(*id, vcpu).error(),
              HvError::BadEnclaveState);
}

TEST(MonitorTest, ExitOutsideEnclaveRejected)
{
    Monitor mon(smallConfig());
    VCpu vcpu;
    vcpu.mode = CpuMode::GuestNormal;
    EXPECT_EQ(mon.hcEnclaveExit(vcpu).error(), HvError::BadEnclaveState);
}

TEST(MonitorDeathTest, PanicInsideHypercallCarriesItsLabel)
{
    Monitor mon(smallConfig());
    VCpu vcpu;
    vcpu.mode = CpuMode::GuestEnclave;
    vcpu.currentEnclave = 77;
    EXPECT_DEATH((void)mon.hcEnclaveExit(vcpu),
                 "^panic: \\[hc=hc_enclave_exit principal=77\\] "
                 "vCPU inside unknown enclave 77\n$");
}

TEST(MonitorTest, LabelEndsWithItsHypercall)
{
    Monitor mon(smallConfig());

    VCpu outside;
    ASSERT_EQ(mon.hcEnclaveExit(outside).error(),
              HvError::BadEnclaveState);
    testing::internal::CaptureStderr();
    warn("after");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "warn: after\n");

    ASSERT_TRUE(mon.hcEnclaveInit(validEnclaveConfig()));
    testing::internal::CaptureStderr();
    warn("after");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "warn: after\n");
}

TEST(MonitorTest, NestedEnterRejected)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 1, 1, 7);
    ASSERT_TRUE(enclave.ok());
    VCpu &vcpu = machine.vcpu();
    ASSERT_TRUE(machine.monitor().hcEnclaveEnter(enclave->id, vcpu).ok());
    EXPECT_EQ(machine.monitor().hcEnclaveEnter(enclave->id, vcpu).error(),
              HvError::BadEnclaveState);
    ASSERT_TRUE(machine.monitor().hcEnclaveExit(vcpu).ok());
}

TEST(MonitorTest, RemoveScrubsAndFreesEpcPages)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 3, 1, 0x5151);
    ASSERT_TRUE(enclave.ok());
    Monitor &mon = machine.monitor();

    // Find the enclave's EPC pages before removal.
    std::vector<Hpa> pages;
    mon.epcm().forEachUsed([&](Hpa page, const EpcmEntry &entry) {
        if (entry.owner == enclave->id)
            pages.push_back(page);
    });
    ASSERT_EQ(pages.size(), 4u); // 3 Reg + 1 Tcs
    const u64 free_before = mon.epcm().freePages();

    ASSERT_TRUE(mon.hcEnclaveRemove(enclave->id).ok());
    EXPECT_EQ(mon.findEnclave(enclave->id), nullptr);
    EXPECT_EQ(mon.epcm().freePages(), free_before + 4);
    for (Hpa page : pages) {
        for (u64 off = 0; off < pageSize; off += 8)
            ASSERT_EQ(mon.mem().read(page + off), 0ull)
                << "EPC page not scrubbed on removal";
    }
}

TEST(MonitorTest, RemoveReleasesPageTableFrames)
{
    Machine machine(smallConfig());
    Monitor &mon = machine.monitor();
    const u64 frames_before = mon.ptAlloc().usedFrames();
    auto enclave = machine.setupEnclave(0x10'0000, 4, 1, 1);
    ASSERT_TRUE(enclave.ok());
    EXPECT_GT(mon.ptAlloc().usedFrames(), frames_before);
    ASSERT_TRUE(mon.hcEnclaveRemove(enclave->id).ok());
    EXPECT_EQ(mon.ptAlloc().usedFrames(), frames_before);
}

TEST(MonitorTest, StatsCountHypercalls)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(0x10'0000, 2, 1, 7);
    ASSERT_TRUE(enclave.ok());
    const MonitorStats &stats = machine.monitor().stats();
    EXPECT_EQ(stats.enclavesCreated, 1ull);
    EXPECT_EQ(stats.pagesAdded, 3ull); // 2 Reg + 1 Tcs
    EXPECT_GE(stats.hypercalls, 5ull);
}

TEST(MonitorTest, MeasurementDependsOnContents)
{
    MonitorConfig cfg = smallConfig();
    Machine a(cfg), b(cfg);
    auto ea = a.setupEnclave(0x10'0000, 2, 1, 7);
    auto eb = b.setupEnclave(0x10'0000, 2, 1, 8); // different fill
    ASSERT_TRUE(ea.ok() && eb.ok());
    EXPECT_NE(a.monitor().findEnclave(ea->id)->measurement,
              b.monitor().findEnclave(eb->id)->measurement);

    Machine c(cfg);
    auto ec = c.setupEnclave(0x10'0000, 2, 1, 7); // same as a
    ASSERT_TRUE(ec.ok());
    EXPECT_EQ(a.monitor().findEnclave(ea->id)->measurement,
              c.monitor().findEnclave(ec->id)->measurement);
}

TEST(MonitorTest, TwoEnclavesGetDisjointEpcPages)
{
    Machine machine(smallConfig());
    auto e1 = machine.setupEnclave(0x10'0000, 3, 1, 1);
    auto e2 = machine.setupEnclave(0x50'0000, 3, 1, 2);
    ASSERT_TRUE(e1.ok() && e2.ok());

    std::vector<Hpa> pages1, pages2;
    machine.monitor().epcm().forEachUsed(
        [&](Hpa page, const EpcmEntry &entry) {
            if (entry.owner == e1->id)
                pages1.push_back(page);
            if (entry.owner == e2->id)
                pages2.push_back(page);
        });
    for (Hpa p1 : pages1) {
        for (Hpa p2 : pages2)
            EXPECT_NE(p1.value, p2.value);
    }
}

TEST(MonitorTest, CommittedRestoreCountsOneHypercall)
{
    Machine src(smallConfig());
    Machine dst(smallConfig());
    auto enclave = src.setupEnclave(0x10'0000, 2, 1, 0x5a);
    ASSERT_TRUE(enclave.ok());
    auto image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                 SnapshotMode::Fork);
    ASSERT_TRUE(image.ok());

    const u64 before = dst.monitor().stats().hypercalls;
    ASSERT_TRUE(dst.monitor().hcEnclaveRestoreImage(*image).ok());
    // The init inside restore runs under restore's own scope.
    EXPECT_EQ(dst.monitor().stats().hypercalls, before + 1);
}

TEST(MonitorTest, InitOutOfFramesIsRejectedOnce)
{
    const auto rejected_counter = [] {
        return obs::snapshotStats().counters["hv.hypercalls_rejected"];
    };
    // No frame left fails the GPT root; one frame left fails the EPT
    // root after the GPT root was taken.
    for (const u64 frames_left : {0u, 1u}) {
        Monitor mon(smallConfig());
        std::vector<Hpa> taken;
        while (auto frame = mon.ptAlloc().allocFrame())
            taken.push_back(*frame);
        for (u64 i = 0; i < frames_left; ++i) {
            ASSERT_TRUE(mon.ptAlloc().free(taken.back()).ok());
            taken.pop_back();
        }
        const u64 used = mon.ptAlloc().usedFrames();
        const u64 calls = mon.stats().hypercalls;
        const u64 rejected = mon.stats().rejectedRequests;
        const u64 counter_before = rejected_counter();

        auto id = mon.hcEnclaveInit(validEnclaveConfig());
        ASSERT_FALSE(id.ok()) << "frames left " << frames_left;
        EXPECT_EQ(id.error(), HvError::OutOfMemory);
        EXPECT_EQ(mon.stats().hypercalls, calls + 1);
        EXPECT_EQ(mon.stats().rejectedRequests, rejected + 1);
        EXPECT_EQ(rejected_counter(), counter_before + 1);
        EXPECT_EQ(mon.stats().enclavesCreated, 0u);
        EXPECT_EQ(mon.liveEnclaves(), 0u);
        EXPECT_EQ(mon.ptAlloc().usedFrames(), used);
    }
}

/** The used EPCM entries, for before/after comparisons. */
std::vector<std::pair<u64, EpcmEntry>>
usedEpcm(const Monitor &mon)
{
    std::vector<std::pair<u64, EpcmEntry>> used;
    mon.epcm().forEachUsed([&](Hpa page, const EpcmEntry &entry) {
        used.push_back({page.value, entry});
    });
    return used;
}

/** True iff the enclave's GPT has a terminal entry for @p gva. */
bool
gptMaps(Monitor &mon, const Enclave &enclave, Gva gva)
{
    const PageTable gpt(mon.mem(), nullptr, enclave.gptRoot);
    return gpt.query(gva.value).ok();
}

MonitorConfig
fourPageEpcConfig()
{
    MonitorConfig cfg = smallConfig();
    cfg.layout.epcBytes = 4 * pageSize;
    return cfg;
}

TEST(MonitorTest, AddPageAtEpcExhaustionLeavesNoTrace)
{
    Monitor mon(fourPageEpcConfig());
    auto id = mon.hcEnclaveInit(validEnclaveConfig());
    ASSERT_TRUE(id.ok());
    const Gpa src(0x4'0000);
    for (u64 i = 0; i < 4; ++i) {
        ASSERT_TRUE(mon.hcEnclaveAddPage(*id, Gva(0x10'0000 + i * pageSize),
                                         src, i == 0 ? AddPageKind::Tcs
                                                     : AddPageKind::Reg)
                        .ok());
    }
    ASSERT_EQ(mon.epcm().freePages(), 0u);

    const Enclave &enclave = *mon.findEnclave(*id);
    const Enclave before = enclave;
    const auto epcm_before = usedEpcm(mon);
    const Gva target(0x10'4000);
    const Status st = mon.hcEnclaveAddPage(*id, target, src,
                                           AddPageKind::Tcs);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error(), HvError::OutOfEpc);
    EXPECT_FALSE(gptMaps(mon, enclave, target));
    EXPECT_EQ(usedEpcm(mon), epcm_before);
    EXPECT_EQ(mon.epcm().freePages(), 0u);
    EXPECT_EQ(enclave.addedPages, before.addedPages);
    EXPECT_EQ(enclave.tcsPages, before.tcsPages);
    EXPECT_EQ(enclave.measurement, before.measurement);
    EXPECT_EQ(enclave.entryPoint, before.entryPoint);
}

TEST(MonitorTest, ReloadPageAtEpcExhaustionLeavesNoTrace)
{
    Machine machine(fourPageEpcConfig());
    Monitor &mon = machine.monitor();
    auto handle = machine.setupEnclave(0x10'0000, 3, 1, 0x77);
    ASSERT_TRUE(handle.ok());
    ASSERT_EQ(mon.epcm().freePages(), 0u);
    const Gva target(0x10'1000);
    auto blob = mon.hcEnclaveEvictPage(handle->id, target);
    ASSERT_TRUE(blob.ok());

    // A second enclave takes the freed EPC page.
    EnclaveConfig other = validEnclaveConfig();
    other.elrange = {Gva(0x80'0000), Gva(0x80'4000)};
    other.mbufGva = Gva(0x90'0000);
    auto other_id = mon.hcEnclaveInit(other);
    ASSERT_TRUE(other_id.ok());
    ASSERT_TRUE(mon.hcEnclaveAddPage(*other_id, Gva(0x80'0000),
                                     Gpa(0x4'0000), AddPageKind::Reg)
                    .ok());
    ASSERT_EQ(mon.epcm().freePages(), 0u);

    const Enclave &enclave = *mon.findEnclave(handle->id);
    const Enclave before = enclave;
    const auto epcm_before = usedEpcm(mon);
    const Status st = mon.hcEnclaveReloadPage(handle->id, *blob);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error(), HvError::OutOfEpc);
    EXPECT_FALSE(gptMaps(mon, enclave, target));
    EXPECT_EQ(usedEpcm(mon), epcm_before);
    EXPECT_EQ(mon.epcm().freePages(), 0u);
    EXPECT_EQ(enclave.addedPages, before.addedPages);
    EXPECT_EQ(enclave.tcsPages, before.tcsPages);
    EXPECT_EQ(enclave.measurement, before.measurement);
    EXPECT_EQ(enclave.evictedPages, before.evictedPages);

    // The blob still reloads once the EPC has room again.
    ASSERT_TRUE(mon.hcEnclaveRemove(*other_id).ok());
    EXPECT_TRUE(mon.hcEnclaveReloadPage(handle->id, *blob).ok());
    EXPECT_TRUE(gptMaps(mon, enclave, target));
}

} // namespace
} // namespace hev::hv
