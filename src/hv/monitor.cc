#include "hv/monitor.hh"

#include <cstring>

#include "obs/timer.hh"
#include "support/logging.hh"

namespace hev::hv
{

namespace
{

/** FNV-1a step used by the measurement stub. */
u64
measureStep(u64 acc, u64 word)
{
    acc ^= word;
    return acc * 0x100000001b3ull;
}

/**
 * Fold one page's address and initial contents into the measurement.
 *
 * Four interleaved FNV lanes instead of one serial chain: the 512
 * dependent multiplies, not memory bandwidth, bound enclave launch
 * throughput, and splitting the words across independent lanes that
 * re-join the chain in fixed order keeps every word feeding exactly
 * one multiply chain (any bit flip still changes the result) while
 * letting the CPU overlap the multiplies.
 */
u64
measurePage(u64 acc, u64 page_gva, const u64 *words)
{
    acc = measureStep(acc, page_gva);
    u64 lanes[4] = {measureStep(acc, 0), measureStep(acc, 1),
                    measureStep(acc, 2), measureStep(acc, 3)};
    static_assert(pageSize / sizeof(u64) % 4 == 0);
    for (u64 w = 0; w < pageSize / sizeof(u64); w += 4) {
        lanes[0] = measureStep(lanes[0], words[w]);
        lanes[1] = measureStep(lanes[1], words[w + 1]);
        lanes[2] = measureStep(lanes[2], words[w + 2]);
        lanes[3] = measureStep(lanes[3], words[w + 3]);
    }
    for (const u64 lane : lanes)
        acc = measureStep(acc, lane);
    return acc;
}

const obs::Counter statHypercalls("hv.hypercalls");
const obs::Counter statRejected("hv.hypercalls_rejected");
const obs::Counter statEnclavesCreated("hv.enclaves_created");
const obs::Counter statPagesAdded("hv.pages_added");
const obs::Counter statEnters("hv.enclave_enters");
const obs::Counter statExits("hv.enclave_exits");
const obs::Counter statPagesEvicted("hv.pages_evicted");
const obs::Counter statPagesReloaded("hv.pages_reloaded");
const obs::Counter statTranslations("hv.translations");
const obs::Counter statImagesSnapshotted("hv.images_snapshotted");
const obs::Counter statImagesRestored("hv.images_restored");
const obs::Histogram statHypercallNs("hv.hypercall_ns");
const obs::Gauge statLiveEnclaves("hv.live_enclaves");

/**
 * Accounting scope of one hypercall: counts it, emits the
 * HypercallEnter/Exit event pair (principal + result code), times it
 * into hv.hypercall_ns, and labels every log line emitted inside
 * with the hypercall name and acting principal.  Failure returns at
 * the call sites route through fail() so the result code and the
 * rejected counters stay in sync by construction.
 */
class HypercallScope
{
  public:
    HypercallScope(MonitorStats &stat_counters, const char *hc_name,
                   u64 hc_principal)
        : stats(stat_counters), label(hc_name, hc_principal),
          timer(statHypercallNs, hc_name)
    {
        ++stats.hypercalls;
        statHypercalls.inc();
        obs::traceEvent(obs::EventType::HypercallEnter, label.name,
                        label.principal);
    }

    ~HypercallScope()
    {
        obs::traceEvent(obs::EventType::HypercallExit, label.name,
                        label.principal, rc);
    }

    /** Record a rejected request and pass the error through. */
    HvError
    fail(HvError error)
    {
        ++stats.rejectedRequests;
        statRejected.inc();
        rc = u64(error);
        return error;
    }

  private:
    MonitorStats &stats;
    u64 rc = 0;
    LogLabel label;
    obs::ScopedTimer timer;
};

/**
 * Stamp the accessed+dirty bits a hardware walker would leave behind
 * after a successful enclave write: the GPT terminal entry (what
 * Monitor::takeEnclaveDirty reads) and the EPT entry of the slot.
 */
void
stampEnclaveDirty(PhysMem &mem, Hpa gpt_root, Hpa ept_root, Gva va)
{
    PageTable gpt(mem, nullptr, gpt_root);
    (void)gpt.stampAccessedDirty(va.value, true);
    if (auto stage1 = gpt.query(va.value)) {
        PageTable ept(mem, nullptr, ept_root);
        (void)ept.stampAccessedDirty(stage1->physAddr, true);
    }
}

/**
 * Sealing MAC over everything the OS could usefully tamper with.  A
 * keyed FNV-1a stands in for AES-GCM: the model needs unforgeability
 * relative to the checkers (which never try to forge), not
 * cryptographic strength.
 */
constexpr u64 sealKeyConst = 0x5ea1'ab1e'0ff1'ce42ull;

} // namespace

u64
sealedBlobMac(const SealedBlob &blob)
{
    u64 acc = sealKeyConst;
    acc = measureStep(acc, u64(blob.owner));
    acc = measureStep(acc, blob.gva.value);
    acc = measureStep(acc, u64(blob.kind));
    acc = measureStep(acc, blob.gpaSlot.value);
    acc = measureStep(acc, blob.version);
    for (const u64 word : blob.words)
        acc = measureStep(acc, word);
    return acc;
}

u64
enclavePageDigest(const u64 *words)
{
    u64 acc = 0xcbf29ce484222325ull;
    for (u64 w = 0; w < pageSize / sizeof(u64); ++w)
        acc = measureStep(acc, words[w]);
    return acc;
}

u64
enclaveImageMac(const EnclaveImage &image)
{
    u64 acc = sealKeyConst ^ 0x1'0a6e'0000ull;
    acc = measureStep(acc, u64(image.sourceId));
    acc = measureStep(acc, image.cfg.elrange.start.value);
    acc = measureStep(acc, image.cfg.elrange.end.value);
    acc = measureStep(acc, image.cfg.mbufGva.value);
    acc = measureStep(acc, image.cfg.mbufPages);
    acc = measureStep(acc, image.cfg.mbufBacking.value);
    acc = measureStep(acc, image.measurement);
    acc = measureStep(acc, image.addedPages);
    acc = measureStep(acc, image.tcsPages);
    acc = measureStep(acc, image.entryPoint);
    acc = measureStep(acc, image.versionBase);
    for (const ImagePageMeta &meta : image.pageMeta) {
        acc = measureStep(acc, meta.gva.value);
        acc = measureStep(acc, u64(meta.kind));
        acc = measureStep(acc, meta.version);
        acc = measureStep(acc, meta.digest);
    }
    for (const SealedBlob &blob : image.pages)
        acc = measureStep(acc, blob.mac);
    return acc;
}

const char *
enclaveStateName(EnclaveState state)
{
    switch (state) {
      case EnclaveState::Adding: return "Adding";
      case EnclaveState::Initialized: return "Initialized";
    }
    return "Unknown";
}

Monitor::Monitor(const MonitorConfig &config)
    : cfg(config), physMem(config.layout),
      frameAlloc(physMem, config.layout.ptAreaRange()),
      epcMap(config.layout.epcRange())
{
    auto ept = PageTable::create(physMem, frameAlloc);
    if (!ept)
        fatal("cannot allocate the normal VM's EPT root");
    normalEpt = std::make_unique<PageTable>(*ept);

    // Identity-map normal memory (and only normal memory) for the
    // primary OS.  The secure region is deliberately absent: this is
    // the spatial-isolation linchpin.
    const HpaRange normal = cfg.layout.normalRange();
    const u64 hugeSpan = 2 * 1024 * 1024;
    u64 addr = 0;
    while (addr < normal.size()) {
        const u64 remaining = normal.size() - addr;
        if (cfg.hugeNormalEpt && addr % hugeSpan == 0 &&
            remaining >= hugeSpan) {
            if (auto st = normalEpt->mapHuge(addr, addr, PteFlags::userRw(),
                                             2); !st)
                fatal("normal EPT huge map failed: %s",
                      hvErrorName(st.error()));
            addr += hugeSpan;
        } else {
            if (auto st = normalEpt->map(addr, addr, PteFlags::userRw());
                !st)
                fatal("normal EPT map failed: %s", hvErrorName(st.error()));
            addr += pageSize;
        }
    }
}

const Enclave *
Monitor::findEnclave(EnclaveId id) const
{
    auto it = enclaves.find(id);
    return it == enclaves.end() ? nullptr : &it->second;
}

Enclave *
Monitor::findEnclaveMutable(EnclaveId id)
{
    auto it = enclaves.find(id);
    return it == enclaves.end() ? nullptr : &it->second;
}

u64
Monitor::liveEnclaves() const
{
    return enclaves.size();
}

void
Monitor::forEachEnclave(
    const std::function<void(const Enclave &)> &visit) const
{
    for (const auto &[id, enc] : enclaves)
        visit(enc);
}

void
Monitor::teardownEnclave(const Enclave &enclave)
{
    const EnclaveId id = enclave.id;
    std::vector<Hpa> owned;
    epcMap.forEachUsed([&](Hpa page, const EpcmEntry &entry) {
        if (entry.owner == id)
            owned.push_back(page);
    });
    for (Hpa page : owned) {
        scrubPage(page);
        (void)epcMap.freePage(page);
    }

    PageTable gpt(physMem, &frameAlloc, enclave.gptRoot);
    PageTable ept(physMem, &frameAlloc, enclave.eptRoot);
    (void)gpt.destroy();
    (void)ept.destroy();

    enclaves.erase(id);
    statLiveEnclaves.set(i64(enclaves.size()));
}

Expected<EnclaveId>
Monitor::validateInitConfig(const EnclaveConfig &config)
{
    const GvaRange elrange = config.elrange;
    if (elrange.empty() || !elrange.start.pageAligned() ||
        !elrange.end.pageAligned())
        return HvError::InvalidParam;
    if (config.mbufPages == 0 || !config.mbufGva.pageAligned())
        return HvError::InvalidParam;
    if (config.mbufBacking.value % pageSize != 0)
        return HvError::NotAligned;

    const GvaRange mbuf_gva = {config.mbufGva,
                               config.mbufGva +
                                   config.mbufPages * pageSize};
    // Enclave invariant (paper Sec. 5.2): ELRANGE and the marshalling
    // buffer range must be disjoint.
    if (mbuf_gva.overlaps(elrange))
        return HvError::IsolationViolation;

    // The marshalling buffer is carved out of normal memory; a backing
    // inside the secure region would hand the enclave (or the monitor's
    // copy loop) a window into another enclave's pages.
    const HpaRange backing = {Hpa(config.mbufBacking.value),
                              Hpa(config.mbufBacking.value +
                                  config.mbufPages * pageSize)};
    if (!cfg.layout.normalRange().containsRange(backing))
        return HvError::IsolationViolation;

    return nextEnclaveId;
}

Status
Monitor::mapMarshallingBuffer(Enclave &enclave)
{
    PageTable gpt(physMem, &frameAlloc, enclave.gptRoot);
    PageTable ept(physMem, &frameAlloc, enclave.eptRoot);
    for (u64 i = 0; i < enclave.cfg.mbufPages; ++i) {
        const u64 off = i * pageSize;
        const Gva gva = enclave.cfg.mbufGva + off;
        const u64 gpa = enclaveMbufGpaBase + off;
        const Hpa hpa = Hpa(enclave.cfg.mbufBacking.value + off);
        if (auto st = gpt.map(gva.value, gpa, PteFlags::userRw()); !st)
            return st.error();
        if (auto st = ept.map(gpa, hpa.value, PteFlags::userRw()); !st)
            return st.error();
    }
    return okStatus();
}

Expected<EnclaveId>
Monitor::hcEnclaveInit(const EnclaveConfig &config)
{
    HypercallScope scope(statCounters, "hc_enclave_init", nextEnclaveId);
    auto id = initEnclave(config);
    if (!id)
        return scope.fail(id.error());
    ++statCounters.enclavesCreated;
    statEnclavesCreated.inc();
    return id;
}

Expected<EnclaveId>
Monitor::initEnclave(const EnclaveConfig &config)
{
    auto id = validateInitConfig(config);
    if (!id)
        return id.error();

    auto gpt = PageTable::create(physMem, frameAlloc);
    if (!gpt)
        return gpt.error();
    auto ept = PageTable::create(physMem, frameAlloc);
    if (!ept) {
        (void)frameAlloc.free(gpt->root());
        return ept.error();
    }

    Enclave enclave;
    enclave.id = *id;
    enclave.state = EnclaveState::Adding;
    enclave.cfg = config;
    enclave.gptRoot = gpt->root();
    enclave.eptRoot = ept->root();

    if (cfg.shallowCopyBug) {
        // Historical 2022 bug (paper Sec. 4.1): seed the enclave's GPT
        // by shallow-copying the creator's level-4 entries over the
        // ELRANGE.  The copied entries keep pointing at level-3 tables
        // in guest-controlled normal memory.
        PageTable creator(physMem, nullptr, config.creatorGptRoot);
        (void)gpt->shallowCopyL4From(creator, config.elrange.start.value,
                                     config.elrange.end.value);
    }

    if (auto st = mapMarshallingBuffer(enclave); !st) {
        (void)gpt->destroy();
        (void)ept->destroy();
        return st.error();
    }

    enclaves.emplace(*id, enclave);
    ++nextEnclaveId;
    statLiveEnclaves.set(i64(enclaves.size()));
    return *id;
}

Monitor::PageRun::PageRun(PhysMem &mem, FrameSource &frames,
                          const Enclave &enclave)
    : gpt(mem, &frames, enclave.gptRoot), ept(mem, &frames, enclave.eptRoot)
{
}

Expected<Monitor::PlacedPage>
Monitor::installPage(PageRun &run, EnclaveId owner, Gva gva, u64 gpa_slot,
                     Gva epcm_lin_addr, AddPageKind kind, PteFlags ept_flags)
{
    // Map GPT, allocate EPC, map EPT: the abstract machine allocates in
    // this order too, so its EPCM stays index-aligned with ours.
    if (auto st = run.gpt.map(gva.value, gpa_slot, PteFlags::userRw(),
                              run.gptCursor); !st)
        return st.error();
    auto epc_page = epcMap.allocPage(owner, epcm_lin_addr,
                                     kind == AddPageKind::Tcs
                                         ? EpcPageState::Tcs
                                         : EpcPageState::Reg,
                                     run.epcHint);
    if (!epc_page) {
        (void)run.gpt.unmap(gva.value, run.gptCursor);
        return epc_page.error();
    }
    if (auto st = run.ept.map(gpa_slot, epc_page->value, ept_flags,
                              run.eptCursor); !st) {
        (void)run.gpt.unmap(gva.value, run.gptCursor);
        (void)epcMap.freePage(*epc_page);
        return st.error();
    }
    return PlacedPage{gva.value, gpa_slot, *epc_page};
}

void
Monitor::releasePage(PageRun &run, const PlacedPage &page)
{
    (void)run.gpt.unmap(page.gva, run.gptCursor);
    (void)run.ept.unmap(page.gpaSlot, run.eptCursor);
    scrubPage(page.epcPage);
    (void)epcMap.freePage(page.epcPage);
}

Expected<Monitor::ResidentPage>
Monitor::lookupPage(const PageRun &run, EnclaveId id, Gva gva) const
{
    auto stage1 = run.gpt.query(gva.value);
    if (!stage1)
        return HvError::NotMapped;
    const u64 gpa_slot = stage1->physAddr & ~(pageSize - 1);
    auto stage2 = run.ept.query(gpa_slot);
    if (!stage2)
        return HvError::NotMapped;
    const Hpa epc_page = Hpa(stage2->physAddr & ~(pageSize - 1));
    if (!epcMap.isEpc(epc_page))
        return HvError::IsolationViolation;
    const EpcmEntry entry = epcMap.entryFor(epc_page);
    if (entry.state == EpcPageState::Free || entry.owner != id)
        return HvError::IsolationViolation;
    return ResidentPage{{gva.value, gpa_slot, epc_page},
                        stage1->flags, stage2->flags, entry};
}

void
Monitor::sealPage(SealedBlob &blob, const ResidentPage &page,
                  u64 version) const
{
    blob.owner = page.entry.owner;
    blob.gva = Gva(page.gva);
    blob.kind = page.entry.state == EpcPageState::Tcs ? AddPageKind::Tcs
                                                      : AddPageKind::Reg;
    blob.gpaSlot = Gpa(page.gpaSlot);
    blob.version = version;
    std::memcpy(blob.words.data(), physMem.pageWords(page.epcPage),
                pageSize);
    blob.mac = sealedBlobMac(blob);
}

Expected<Monitor::PlacedPage>
Monitor::placeBlob(PageRun &run, EnclaveId id, const SealedBlob &blob)
{
    // Blob words land straight in the EPC frame, never staged through
    // normal memory the OS could observe.
    auto page = installPage(run, id, blob.gva, blob.gpaSlot.value, blob.gva,
                            blob.kind, PteFlags::userRw());
    if (page)
        std::memcpy(physMem.pageWordsMut(page->epcPage), blob.words.data(),
                    pageSize);
    return page;
}

Expected<Monitor::PlacedPage>
Monitor::placeAddedPage(PageRun &run, const Enclave &enclave,
                        const AddPageRequest &req)
{
    // Validation in fold order, so a batch reports exactly the error
    // the failing single call would raise.
    if (!req.gva.pageAligned() || req.src.value % pageSize != 0)
        return HvError::NotAligned;
    // Enclave invariant: EPC pages appear exactly at ELRANGE addresses.
    const bool gva_in_elrange =
        cfg.planted.elrangeOffByOne
            ? req.gva.value >= enclave.cfg.elrange.start.value &&
                  req.gva.value <= enclave.cfg.elrange.end.value
            : enclave.cfg.elrange.contains(req.gva);
    if (!gva_in_elrange)
        return HvError::IsolationViolation;
    const HpaRange src_range = {Hpa(req.src.value),
                                Hpa(req.src.value + pageSize)};
    if (!cfg.layout.normalRange().containsRange(src_range))
        return HvError::IsolationViolation;

    return installPage(
        run, enclave.id, req.gva,
        enclaveEpcGpaBase + enclave.addedPages * pageSize,
        cfg.planted.skipEpcmOwnerCheck ? Gva(0) : req.gva, req.kind,
        cfg.planted.wrongPermMask ? PteFlags::userRo() : PteFlags::userRw());
}

void
Monitor::measureAddedPage(PageRun &run, Enclave &enclave,
                          const AddPageRequest &req, Hpa epc_page)
{
    const u64 *words = physMem.pageWords(epc_page);
    enclave.measurement = measurePage(enclave.measurement, req.gva.value,
                                      words);
    if (req.kind == AddPageKind::Tcs) {
        if (enclave.tcsPages == 0)
            enclave.entryPoint = words[0];
        ++enclave.tcsPages;
    }
    if (cfg.planted.frameDoubleFree) {
        // Planted bug: hand the leaf GPT table frame back to the
        // allocator while the tree still points at it.  The next table
        // allocation zeroes it in place under the live mapping.
        if (auto leaf = run.gpt.walkToTable(req.gva.value, 1, false))
            frameAlloc.debugForceFree(*leaf);
    }
    ++enclave.addedPages;
}

Expected<Monitor::ResidentPage>
Monitor::evictPage(PageRun &run, Enclave &enclave, Gva page_gva,
                   SealedBlob &blob)
{
    if (!page_gva.pageAligned())
        return HvError::NotAligned;
    // Only ELRANGE pages are pageable; the marshalling buffer mapping
    // is fixed for the enclave's entire life cycle.
    if (!enclave.cfg.elrange.contains(page_gva))
        return HvError::IsolationViolation;
    auto page = lookupPage(run, enclave.id, page_gva);
    if (!page)
        return page.error();
    sealPage(blob, *page, enclave.nextSealVersion++);
    releasePage(run, *page);
    enclave.evictedPages[page_gva.value] = blob.version;
    return page;
}

Status
Monitor::hcEnclaveAddPage(EnclaveId id, Gva page_gva, Gpa src,
                          AddPageKind kind, FrameSource *frames)
{
    HypercallScope scope(statCounters, "hc_enclave_add_page", id);
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    if (enclave->state != EnclaveState::Adding)
        return scope.fail(HvError::BadEnclaveState);
    PageRun run(physMem, frames ? *frames : frameAlloc, *enclave);
    const AddPageRequest req{page_gva, src, kind};
    auto page = placeAddedPage(run, *enclave, req);
    if (!page)
        return scope.fail(page.error());
    // The checked word-by-word copy: docs/BATCHING.md says why the
    // single call does not take the batch's bulk copy.
    physMem.copyPage(page->epcPage, Hpa(src.value));
    measureAddedPage(run, *enclave, req, page->epcPage);
    ++statCounters.pagesAdded;
    statPagesAdded.inc();
    return okStatus();
}

Status
Monitor::hcEnclaveAddPagesBatch(EnclaveId id,
                                const std::vector<AddPageRequest> &reqs,
                                FrameSource *frames)
{
    HypercallScope scope(statCounters, "hc_enclave_add_pages_batch", id);
    if (reqs.empty())
        return okStatus(); // fold over nothing is the identity
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    // add_page never changes the lifecycle state, so checking it once
    // is the same check the fold would repeat per element.
    if (enclave->state != EnclaveState::Adding)
        return scope.fail(HvError::BadEnclaveState);

    // Snapshot of everything an element mutates besides the tables,
    // EPCM and page contents, for the all-or-nothing rollback.
    const u64 saved_measurement = enclave->measurement;
    const u64 saved_added = enclave->addedPages;
    const u64 saved_tcs = enclave->tcsPages;
    const u64 saved_entry = enclave->entryPoint;

    // One run across the batch: one walk per 2 MiB span and one EPCM
    // scan front, the same as per-call walks and scans because nothing
    // is freed between elements.  Pages are copied in bulk over raw
    // words.
    PageRun run(physMem, frames ? *frames : frameAlloc, *enclave);
    std::vector<PlacedPage> placed;
    placed.reserve(reqs.size());
    HvError batch_error = HvError::None;
    for (const AddPageRequest &req : reqs) {
        auto page = placeAddedPage(run, *enclave, req);
        if (!page) {
            batch_error = page.error();
            break;
        }
        std::memcpy(physMem.pageWordsMut(page->epcPage),
                    physMem.pageWords(Hpa(req.src.value)), pageSize);
        measureAddedPage(run, *enclave, req, page->epcPage);
        placed.push_back(*page);
    }

    if (batch_error == HvError::None) {
        statCounters.pagesAdded += placed.size();
        statPagesAdded.add(placed.size());
        return okStatus();
    }

    // All-or-nothing: release every placed page in reverse, putting the
    // state back exactly where the batch found it (intermediate table
    // frames stay linked into the trees, as after a failed single call).
    for (auto rit = placed.rbegin(); rit != placed.rend(); ++rit)
        releasePage(run, *rit);
    enclave->measurement = saved_measurement;
    enclave->addedPages = saved_added;
    enclave->tcsPages = saved_tcs;
    enclave->entryPoint = saved_entry;
    return scope.fail(batch_error);
}

Status
Monitor::hcEnclaveInitFinish(EnclaveId id)
{
    HypercallScope scope(statCounters, "hc_enclave_init_finish", id);
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    if (enclave->state != EnclaveState::Adding)
        return scope.fail(HvError::BadEnclaveState);
    if (enclave->tcsPages == 0)
        return scope.fail(HvError::InvalidParam);
    enclave->measurement = measureStep(enclave->measurement, 0xE1417ull);
    enclave->state = EnclaveState::Initialized;
    return okStatus();
}

Status
Monitor::hcEnclaveEnter(EnclaveId id, VCpu &vcpu)
{
    HypercallScope scope(statCounters, "hc_enclave_enter", id);
    if (vcpu.mode != CpuMode::GuestNormal)
        return scope.fail(HvError::BadEnclaveState);
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    if (enclave->state != EnclaveState::Initialized)
        return scope.fail(HvError::BadEnclaveState);
    // The saved contexts live in the Enclave record, so the single-vCPU
    // monitor admits one resident vCPU at a time; a second entry would
    // clobber them.  (The SMP monitor saves contexts per vCPU and
    // admits up to tcsPages — see src/smp/smp_monitor.cc.)
    if (enclave->activeVcpus > 0)
        return scope.fail(HvError::BadEnclaveState);
    ++enclave->activeVcpus;

    enclave->savedAppRegs = vcpu.regs;
    enclave->savedAppGptRoot = vcpu.gptRoot;

    if (enclave->hasSavedEnclaveRegs) {
        vcpu.regs = enclave->savedEnclaveRegs;
    } else {
        // First entry: scrub the register file so nothing leaks in, and
        // start at the TCS entry point.
        vcpu.regs = RegFile{};
        vcpu.regs.rip = enclave->entryPoint;
    }
    vcpu.mode = CpuMode::GuestEnclave;
    vcpu.currentEnclave = id;
    vcpu.domain = id;
    vcpu.gptRoot = enclave->gptRoot;
    vcpu.eptRoot = enclave->eptRoot;
    // No TLB flush: only a resident vCPU caches translations under the
    // enclave's tag, and the exit that ended the last residency
    // flushed them.
    ++statCounters.enters;
    statEnters.inc();
    return okStatus();
}

Status
Monitor::hcEnclaveExit(VCpu &vcpu)
{
    HypercallScope scope(statCounters, "hc_enclave_exit",
                         vcpu.currentEnclave);
    if (vcpu.mode != CpuMode::GuestEnclave)
        return scope.fail(HvError::BadEnclaveState);
    Enclave *enclave = findEnclaveMutable(vcpu.currentEnclave);
    if (!enclave)
        panic("vCPU inside unknown enclave %u", vcpu.currentEnclave);

    enclave->savedEnclaveRegs = vcpu.regs;
    enclave->hasSavedEnclaveRegs = true;
    if (enclave->activeVcpus > 0)
        --enclave->activeVcpus;

    // Restore the application context; scrub what the enclave left in
    // the register file by overwriting all of it.
    vcpu.regs = enclave->savedAppRegs;
    vcpu.mode = CpuMode::GuestNormal;
    vcpu.currentEnclave = invalidEnclave;
    vcpu.domain = normalVmDomain;
    vcpu.gptRoot = enclave->savedAppGptRoot;
    vcpu.eptRoot = normalEpt->root();
    tlbModel.flushDomain(enclave->id);
    ++statCounters.exits;
    statExits.inc();
    return okStatus();
}

Status
Monitor::hcEnclaveRemove(EnclaveId id)
{
    HypercallScope scope(statCounters, "hc_enclave_remove", id);
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    // Tearing down an enclave a vCPU is executing in would scrub the
    // pages under its feet: reject until every resident vCPU exits.
    if (enclave->activeVcpus > 0)
        return scope.fail(HvError::BadEnclaveState);

    // No TLB maintenance: with no vCPU resident the domain caches
    // nothing, because every hc_enclave_exit already flushed it.
    teardownEnclave(*enclave);
    return okStatus();
}

Expected<EnclaveReport>
Monitor::hcEnclaveReport(const VCpu &vcpu)
{
    HypercallScope scope(statCounters, "hc_enclave_report",
                         vcpu.currentEnclave);
    if (vcpu.mode != CpuMode::GuestEnclave)
        return scope.fail(HvError::BadEnclaveState);
    const Enclave *enclave = findEnclave(vcpu.currentEnclave);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    EnclaveReport report;
    report.id = enclave->id;
    report.measurement = enclave->measurement;
    report.addedPages = enclave->addedPages;
    ++statCounters.reports;
    return report;
}

Expected<SealedBlob>
Monitor::hcEnclaveEvictPage(EnclaveId id, Gva page_gva)
{
    HypercallScope scope(statCounters, "hc_enclave_evict_page", id);
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    // Paging is a post-launch activity: while the enclave is still
    // Adding, the OS controls residency through add_page itself.
    if (enclave->state != EnclaveState::Initialized)
        return scope.fail(HvError::BadEnclaveState);

    PageRun run(physMem, frameAlloc, *enclave);
    SealedBlob blob;
    if (auto page = evictPage(run, *enclave, page_gva, blob); !page)
        return scope.fail(page.error());
    // A resident vCPU may hold cached translations for the page; they
    // must die with the mapping or a stale hit reads the scrubbed (or
    // later re-allocated) frame.
    tlbModel.flushDomain(id);
    ++statCounters.pagesEvicted;
    statPagesEvicted.inc();
    return blob;
}

Expected<std::vector<SealedBlob>>
Monitor::hcEnclaveEvictPagesBatch(EnclaveId id,
                                  const std::vector<Gva> &gvas)
{
    HypercallScope scope(statCounters, "hc_enclave_evict_pages_batch", id);
    if (gvas.empty())
        return std::vector<SealedBlob>{};
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    if (enclave->state != EnclaveState::Initialized)
        return scope.fail(HvError::BadEnclaveState);

    PageRun run(physMem, frameAlloc, *enclave);
    const u64 saved_seal_version = enclave->nextSealVersion;
    // evicted[i] is where blobs[i] was sealed from, for the rollback.
    std::vector<ResidentPage> evicted;
    evicted.reserve(gvas.size());
    std::vector<SealedBlob> blobs;
    blobs.reserve(gvas.size());

    HvError batch_error = HvError::None;
    for (const Gva page_gva : gvas) {
        auto page = evictPage(run, *enclave, page_gva, blobs.emplace_back());
        if (!page) {
            blobs.pop_back();
            batch_error = page.error();
            break;
        }
        evicted.push_back(*page);
    }

    if (batch_error == HvError::None) {
        // One TLB maintenance pass for the whole batch: per-page
        // invalidations instead of the single call's per-call domain
        // flush (under SMP this becomes one vectored shootdown).  The
        // planted batch bug forgets every middle page, so stale
        // translations survive only in batches of three or more.
        for (u64 i = 0; i < evicted.size(); ++i) {
            if (cfg.planted.batchSkipMiddleInvalidate && i > 0 &&
                i + 1 < evicted.size())
                continue;
            tlbModel.invalidatePage(id, evicted[i].gva);
        }
        statCounters.pagesEvicted += evicted.size();
        statPagesEvicted.add(evicted.size());
        return blobs;
    }

    // All-or-nothing: restore every sealed page in reverse — same EPCM
    // slot (restorePage pins the index), same mapping flags, same
    // contents — and rewind the anti-rollback ledger.  A mapped page
    // can have no pre-batch evictedPages record (reload erases it), so
    // erasing our insertions is exact.
    for (u64 i = evicted.size(); i-- > 0;) {
        const ResidentPage &page = evicted[i];
        (void)epcMap.restorePage(page.epcPage, id, page.entry.linAddr,
                                 page.entry.state);
        (void)run.gpt.map(page.gva, page.gpaSlot, page.gptFlags);
        (void)run.ept.map(page.gpaSlot, page.epcPage.value, page.eptFlags);
        std::memcpy(physMem.pageWordsMut(page.epcPage),
                    blobs[i].words.data(), pageSize);
        enclave->evictedPages.erase(page.gva);
    }
    enclave->nextSealVersion = saved_seal_version;
    return scope.fail(batch_error);
}

Status
Monitor::hcEnclaveReloadPage(EnclaveId id, const SealedBlob &blob,
                             FrameSource *frames)
{
    HypercallScope scope(statCounters, "hc_enclave_reload_page", id);
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    if (enclave->state != EnclaveState::Initialized)
        return scope.fail(HvError::BadEnclaveState);
    // Authenticity first: a tampered blob and a genuine blob presented
    // to the wrong enclave (cross-enclave replay) are rejected
    // identically, before any state is inspected.
    if (blob.mac != sealedBlobMac(blob) || blob.owner != id)
        return scope.fail(HvError::SealAuthFailed);
    const auto rec = enclave->evictedPages.find(blob.gva.value);
    if (rec == enclave->evictedPages.end())
        return scope.fail(HvError::NotMapped);
    if (!cfg.planted.acceptSealRollback && blob.version != rec->second)
        return scope.fail(HvError::SealRollback);

    PageRun run(physMem, frames ? *frames : frameAlloc, *enclave);
    if (auto page = placeBlob(run, id, blob); !page)
        return scope.fail(page.error());
    enclave->evictedPages.erase(rec);
    ++statCounters.pagesReloaded;
    statPagesReloaded.inc();
    return okStatus();
}

Expected<EnclaveImage>
Monitor::hcEnclaveSnapshot(EnclaveId id, SnapshotMode mode)
{
    HypercallScope scope(statCounters, "hc_enclave_snapshot", id);
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return scope.fail(HvError::NoSuchEnclave);
    // Snapshotting a half-built or resident enclave would capture a
    // state no restore could reconstruct: the measurement fold is
    // incomplete while Adding, and a resident vCPU keeps register and
    // TLB state outside the image.  Quiesce first.
    if (enclave->state != EnclaveState::Initialized)
        return scope.fail(HvError::BadEnclaveState);
    if (enclave->activeVcpus > 0)
        return scope.fail(HvError::BadEnclaveState);
    // Evicted pages live in OS-held blobs the monitor cannot summon;
    // the OS must reload them (it has the blobs) before snapshotting.
    if (!enclave->evictedPages.empty())
        return scope.fail(HvError::BadEnclaveState);

    // Resident ELRANGE pages in ascending gva order.  The marshalling
    // buffer mapping is per-host plumbing, not enclave state: restore
    // re-creates it.
    const std::vector<Gva> resident = *enclaveResidentPages(id);
    if (resident.size() != enclave->addedPages)
        return scope.fail(HvError::BadEnclaveState);

    EnclaveImage image;
    image.sourceId = id;
    image.cfg = enclave->cfg;
    image.measurement = enclave->measurement;
    image.addedPages = enclave->addedPages;
    image.tcsPages = enclave->tcsPages;
    image.entryPoint = enclave->entryPoint;
    // The image consumes the version vector exactly as an evict-all
    // fold would: page i seals at versionBase + i and the counter
    // advances past the whole run.  This is what makes the executable
    // migration ≡ quiesced-fold equivalence hold on the source side.
    image.versionBase = enclave->nextSealVersion;
    image.pageMeta.reserve(resident.size());
    image.pages.reserve(resident.size());

    PageRun run(physMem, frameAlloc, *enclave);
    for (u64 i = 0; i < resident.size(); ++i) {
        auto page = lookupPage(run, id, resident[i]);
        if (!page)
            return scope.fail(page.error());
        SealedBlob &blob = image.pages.emplace_back();
        sealPage(blob, *page, image.versionBase + i);
        image.pageMeta.push_back({blob.gva, blob.kind, blob.version,
                                  enclavePageDigest(blob.words.data())});
    }
    enclave->nextSealVersion += resident.size();
    image.mac = enclaveImageMac(image);

    // No TLB maintenance: with no vCPU resident the domain caches
    // nothing, because every hc_enclave_exit already flushed it.
    // Move semantics is evict-all + remove: the pages now live in the
    // image the OS holds, and the source goes exactly as
    // hc_enclave_remove takes it.
    if (mode == SnapshotMode::Move)
        teardownEnclave(*enclave);

    ++statCounters.imagesSnapshotted;
    statImagesSnapshotted.inc();
    return image;
}

Expected<EnclaveId>
Monitor::hcEnclaveRestoreImage(const EnclaveImage &image)
{
    HypercallScope scope(statCounters, "hc_enclave_restore_image",
                         u64(image.sourceId));
    // Structural honesty first: the page vectors must match the header
    // they claim to implement before any cryptographic check — a
    // truncated image would otherwise "verify" over the bytes present.
    if (image.pages.size() != image.pageMeta.size() ||
        image.pages.size() != image.addedPages)
        return scope.fail(HvError::ImageTruncated);
    if (image.mac != enclaveImageMac(image))
        return scope.fail(HvError::ImageAuthFailed);
    for (u64 i = 0; i < image.pages.size(); ++i) {
        const SealedBlob &blob = image.pages[i];
        const ImagePageMeta &meta = image.pageMeta[i];
        if (blob.mac != sealedBlobMac(blob) || blob.owner != image.sourceId)
            return scope.fail(HvError::ImageAuthFailed);
        if (blob.gva != meta.gva || blob.kind != meta.kind ||
            blob.version != meta.version ||
            blob.version != image.versionBase + i ||
            enclavePageDigest(blob.words.data()) != meta.digest)
            return scope.fail(HvError::ImageAuthFailed);
    }
    // Anti-rollback: an image of this measurement may only move the
    // version vector forward.  Replaying the image just restored is a
    // rollback too — the restored twin has kept running since.
    if (auto led = imageLedger.find(image.measurement);
        led != imageLedger.end() && image.versionBase <= led->second)
        return scope.fail(HvError::ImageRollback);

    // Build the twin through the init path (validates geometry against
    // this host's layout and maps the marshalling buffer), then reload
    // every page from its blob in one run.  Everything after init lands
    // in the undo set: restore is all-or-nothing, and the enclave
    // counts as created only once it commits.
    auto new_id = initEnclave(image.cfg);
    if (!new_id)
        return scope.fail(new_id.error());
    Enclave &enclave = enclaves.at(*new_id);
    PageRun run(physMem, frameAlloc, enclave);
    std::vector<PlacedPage> placed;
    placed.reserve(image.pages.size());

    HvError build_error = HvError::None;
    for (const SealedBlob &blob : image.pages) {
        auto page = placeBlob(run, *new_id, blob);
        if (!page) {
            build_error = page.error();
            break;
        }
        placed.push_back(*page);
        ++enclave.addedPages;
        if (blob.kind == AddPageKind::Tcs)
            ++enclave.tcsPages;
    }

    if (build_error != HvError::None) {
        // All-or-nothing: release the pages in reverse, then retract
        // the init itself so no trace of the attempt remains — state
        // equality with "never called" is what the spec checks.
        for (auto rit = placed.rbegin(); rit != placed.rend(); ++rit)
            releasePage(run, *rit);
        (void)run.gpt.destroy();
        (void)run.ept.destroy();
        enclaves.erase(*new_id);
        --nextEnclaveId;
        statLiveEnclaves.set(i64(enclaves.size()));
        return scope.fail(build_error);
    }

    // The header was MAC-verified above; install it wholesale.  The
    // measurement is the source's fold — restore reproduces identity,
    // it does not re-measure (the per-page digests already bound the
    // contents to the header).
    enclave.measurement = image.measurement;
    enclave.entryPoint = image.entryPoint;
    enclave.state = EnclaveState::Initialized;
    // nextSealVersion continues past the image's vector so a future
    // evict (or re-snapshot) of the twin can never mint a version the
    // image already spent.
    enclave.nextSealVersion = image.versionBase + image.pages.size();
    imageLedger[image.measurement] = image.versionBase;

    ++statCounters.enclavesCreated;
    statEnclavesCreated.inc();
    ++statCounters.imagesRestored;
    statImagesRestored.inc();
    return *new_id;
}

Expected<std::vector<Gva>>
Monitor::takeEnclaveDirty(EnclaveId id)
{
    const Enclave *enclave = findEnclave(id);
    if (!enclave)
        return HvError::NoSuchEnclave;
    // One walk reads and clears: `reach` names the leaf table whose
    // entries the walk visits next, so each dirty entry is rewritten
    // in place without a second descent.
    struct : TableVisitor
    {
        PhysMem &mem;
        const GvaRange &elrange;
        std::vector<Gva> dirty;
        u64 leafTable = 0;

        void
        reach(u64 table, int level)
        {
            if (level == 1)
                leafTable = table;
        }

        void
        entry(u64 va, u64 raw, int level, bool)
        {
            const Pte pte(raw);
            if (level != 1 || !pte.dirty())
                return;
            mem.write(Hpa(leafTable + Gva(va).tableIndex(1) * sizeof(u64)),
                      pte.withDirtyCleared().raw());
            if (elrange.contains(Gva(va)))
                dirty.push_back(Gva(va));
        }
    } take{{}, physMem, enclave->cfg.elrange, {}};
    walkTables(PhysTablePages{physMem}, enclave->gptRoot.value,
               pagingLevels, take);
    // Cached write-permitted translations let later stores skip the
    // walk that re-stamps the bit; the flush forces the next write
    // back through the walker.
    tlbModel.flushDomain(id);
    return std::move(take.dirty);
}

Status
Monitor::enclaveStore(EnclaveId id, Gva va, u64 value)
{
    Enclave *enclave = findEnclaveMutable(id);
    if (!enclave)
        return HvError::NoSuchEnclave;
    if (enclave->state != EnclaveState::Initialized)
        return HvError::BadEnclaveState;
    auto hpa = translateEnclaveUncached(enclave->gptRoot, enclave->eptRoot,
                                        va, true);
    if (!hpa)
        return hpa.error();
    physMem.write(*hpa, value);
    stampEnclaveDirty(physMem, enclave->gptRoot, enclave->eptRoot, va);
    return okStatus();
}

Expected<u64>
Monitor::enclaveLoad(EnclaveId id, Gva va) const
{
    const Enclave *enclave = findEnclave(id);
    if (!enclave)
        return HvError::NoSuchEnclave;
    if (enclave->state != EnclaveState::Initialized)
        return HvError::BadEnclaveState;
    auto hpa = translateEnclaveUncached(enclave->gptRoot,
                                        enclave->eptRoot, va, false);
    if (!hpa)
        return hpa.error();
    return physMem.read(*hpa);
}

Expected<std::vector<Gva>>
Monitor::enclaveResidentPages(EnclaveId id) const
{
    const Enclave *enclave = findEnclave(id);
    if (!enclave)
        return HvError::NoSuchEnclave;
    if (enclave->state != EnclaveState::Initialized)
        return HvError::BadEnclaveState;
    const PageTable gpt(const_cast<PhysMem &>(physMem), nullptr,
                        enclave->gptRoot);
    std::vector<Gva> resident;
    // The walk visits mappings in ascending va order.
    gpt.forEachMapping([&](u64 va, Pte, int level) {
        if (level == 1 && enclave->cfg.elrange.contains(Gva(va)))
            resident.push_back(Gva(va));
    });
    return resident;
}

Status
Monitor::enclaveReadPage(EnclaveId id, Gva page_va, u64 *out) const
{
    const Enclave *enclave = findEnclave(id);
    if (!enclave)
        return HvError::NoSuchEnclave;
    if (enclave->state != EnclaveState::Initialized)
        return HvError::BadEnclaveState;
    const Gva base(page_va.value & ~(pageSize - 1));
    auto hpa = translateEnclaveUncached(enclave->gptRoot,
                                        enclave->eptRoot, base, false);
    if (!hpa)
        return hpa.error();
    const u64 *words = physMem.pageWords(Hpa(hpa->value & ~(pageSize - 1)));
    std::memcpy(out, words, pageSize);
    return okStatus();
}

void
Monitor::scrubPage(Hpa page)
{
    physMem.zeroPage(page);
}

Expected<Hpa>
Monitor::translateUncached(Hpa gpt_root, Hpa ept_root, Gva va,
                           bool is_write) const
{
    const PageTable ept(const_cast<PhysMem &>(physMem), nullptr, ept_root);

    // The hardware's nested walk: the guest page table is addressed in
    // guest-physical space, so each stage-1 table access is itself
    // EPT-translated.  A GPT entry pointing into the secure region (a
    // "mapping attack") therefore faults at the EPT stage instead of
    // silently reading monitor memory.
    u64 table_gpa = gpt_root.value;
    for (int level = pagingLevels; level >= 1; --level) {
        auto table_hpa = ept.translate(table_gpa, false, false);
        if (!table_hpa)
            return HvError::NotMapped;
        const u64 index = va.tableIndex(level);
        const PageTable stage1(const_cast<PhysMem &>(physMem), nullptr,
                               Hpa(table_hpa->physAddr));
        const Pte entry = stage1.entryAt(Hpa(table_hpa->physAddr), index);
        if (!entry.present())
            return HvError::NotMapped;
        if (is_write && !entry.writable())
            return HvError::PermissionDenied;
        if (level == 1 || entry.huge()) {
            const u64 span = 1ull << (pageShift + 9 * (level - 1));
            const u64 gpa = entry.addr() + (va.value & (span - 1));
            auto data_hpa = ept.translate(gpa, is_write, false);
            if (!data_hpa)
                return data_hpa.error();
            return Hpa(data_hpa->physAddr);
        }
        table_gpa = entry.addr();
    }
    panic("unreachable: nested walk fell off the root");
}

Expected<Hpa>
Monitor::translateEnclaveUncached(Hpa gpt_root, Hpa ept_root, Gva va,
                                  bool is_write) const
{
    // The enclave's GPT is monitor-managed and lives in the secure
    // region; hardware walks it from the root the monitor installed, so
    // stage-1 table accesses read host-physical memory directly.  Only
    // the resulting guest-physical address goes through the EPT.
    const PageTable gpt(const_cast<PhysMem &>(physMem), nullptr, gpt_root);
    auto stage1 = gpt.translate(va.value, is_write, false);
    if (!stage1)
        return stage1.error();

    const PageTable ept(const_cast<PhysMem &>(physMem), nullptr, ept_root);
    auto stage2 = ept.translate(stage1->physAddr, is_write, false);
    if (!stage2)
        return stage2.error();
    return Hpa(stage2->physAddr);
}

Expected<Hpa>
Monitor::translate(VCpu &vcpu, Gva va, bool is_write)
{
    statTranslations.inc();
    if (auto hit = tlbModel.lookup(vcpu.domain, va.value)) {
        if (!is_write || hit->writable)
            return Hpa(hit->hpaPage + va.pageOffset());
        // Write to a read-only cached translation: re-walk (the tables
        // are authoritative for permission faults).
    }

    auto hpa = vcpu.mode == CpuMode::GuestEnclave
                   ? translateEnclaveUncached(vcpu.gptRoot, vcpu.eptRoot,
                                              va, is_write)
                   : translateUncached(vcpu.gptRoot, vcpu.eptRoot, va,
                                       is_write);
    if (!hpa)
        return hpa.error();
    // A successful enclave write walk leaves accessed+dirty stamped on
    // the terminal entries, as hardware does.  Only the uncached path
    // stamps: a TLB hit skips the walk, which is exactly why clearing
    // dirty bits must be paired with a flush (or shootdown).
    if (vcpu.mode == CpuMode::GuestEnclave && is_write)
        stampEnclaveDirty(physMem, vcpu.gptRoot, vcpu.eptRoot, va);
    tlbModel.insert(vcpu.domain, va.value,
                    {hpa->pageBase().value, is_write});
    return *hpa;
}

Status
Monitor::guestSetGptRoot(VCpu &vcpu, Hpa new_root)
{
    if (vcpu.mode != CpuMode::GuestNormal)
        return HvError::PermissionDenied;
    vcpu.gptRoot = new_root;
    // MOV CR3 flushes the non-global TLB entries of the domain (the
    // staleTlbOnUnmap planted bug forgets this, so cached translations
    // survive a guest unmap).
    if (!cfg.planted.staleTlbOnUnmap)
        tlbModel.flushDomain(vcpu.domain);
    return okStatus();
}

} // namespace hev::hv
