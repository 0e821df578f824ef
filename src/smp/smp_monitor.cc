#include "smp/smp_monitor.hh"

#include <chrono>
#include <thread>

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace hev::smp
{

namespace
{

const obs::Counter statShootdowns("smp.shootdowns");
const obs::Counter statIpisSent("smp.ipis_sent");
const obs::Counter statIpisAcked("smp.ipis_acked");
const obs::Counter statSmpEnters("smp.enters");
const obs::Counter statSmpExits("smp.exits");
const obs::Counter statSmpDestroys("smp.destroys");
const obs::Histogram statShootdownNs("smp.shootdown_ns");
const obs::Histogram statShootdownWaitSpins("smp.shootdown_wait_spins");
// Shootdown phase latencies, one histogram per causal hop.
const obs::Histogram statIpiPostToDeliverNs("smp.ipi_post_to_deliver_ns");
const obs::Histogram statIpiDeliverToAckNs("smp.ipi_deliver_to_ack_ns");
const obs::Histogram statIpiAckToResumeNs("smp.ipi_ack_to_resume_ns");

/**
 * Flow-span id of one posted IPI: the shootdown generation keyed by
 * the target, so every initiator->deliver->ack arrow is unique and
 * both ends can recompute it without shipping extra state.
 */
u64
ipiSpanId(u64 gen, VcpuId target)
{
    return (gen << 8) | u64(target & 0xff);
}

u64
nowNs()
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count());
}

/**
 * MutexGuard plus the lock-order witness hook, for the short internal
 * critical sections (IPI mailboxes, the in-flight page set, the
 * enclave-lock table) whose holders never block on remote progress and
 * therefore need no IPI servicing while acquiring.  M is a Ranked lock:
 * the witness reads the rank from its type.
 */
template <class M>
class HEV_SCOPED_CAPABILITY WitnessedGuard
{
  public:
    explicit WitnessedGuard(M &m) HEV_ACQUIRE(m) : mu(m)
    {
        HEV_WITNESS_ACQUIRE(M::rank);
        mu.lock();
    }

    ~WitnessedGuard() HEV_RELEASE()
    {
        mu.unlock();
        HEV_WITNESS_RELEASE(M::rank);
    }

    WitnessedGuard(const WitnessedGuard &) = delete;
    WitnessedGuard &operator=(const WitnessedGuard &) = delete;

  private:
    M &mu;
};

/**
 * Blocking acquisitions that keep servicing the acquiring vCPU's own
 * IPIs while they spin — the software analogue of spinning with
 * interrupts enabled (smp_monitor.hh file header).  ServicingGuard
 * takes any Ranked lock exclusively, SharedServicingGuard a Ranked
 * SharedMutex shared.  Scoped guards instead of raw lock/adopt pairs
 * so Clang's thread-safety analysis sees the acquisition, and so the
 * lock-order witness hooks ride the same RAII edges.  The spin bodies
 * are try-lock loops the analysis cannot prove terminate holding the
 * lock, so the constructors carry HEV_NO_THREAD_SAFETY_ANALYSIS; the
 * ACQUIRE contract is what callers are checked against.
 */
template <class M>
class HEV_SCOPED_CAPABILITY ServicingGuard
{
  public:
    ServicingGuard(SmpMonitor &mon, M &m, VcpuId v)
        HEV_ACQUIRE(m) HEV_NO_THREAD_SAFETY_ANALYSIS : mu(m)
    {
        HEV_WITNESS_ACQUIRE(M::rank);
        while (!mu.try_lock()) {
            mon.serviceIpis(v);
            std::this_thread::yield();
        }
    }

    ~ServicingGuard() HEV_RELEASE()
    {
        mu.unlock();
        HEV_WITNESS_RELEASE(M::rank);
    }

    ServicingGuard(const ServicingGuard &) = delete;
    ServicingGuard &operator=(const ServicingGuard &) = delete;

  private:
    M &mu;
};

template <class M>
class HEV_SCOPED_CAPABILITY SharedServicingGuard
{
  public:
    SharedServicingGuard(SmpMonitor &mon, M &m, VcpuId v)
        HEV_ACQUIRE_SHARED(m) HEV_NO_THREAD_SAFETY_ANALYSIS : mu(m)
    {
        HEV_WITNESS_ACQUIRE(M::rank);
        while (!mu.try_lock_shared()) {
            mon.serviceIpis(v);
            std::this_thread::yield();
        }
    }

    ~SharedServicingGuard() HEV_RELEASE_GENERIC()
    {
        mu.unlock_shared();
        HEV_WITNESS_RELEASE(M::rank);
    }

    SharedServicingGuard(const SharedServicingGuard &) = delete;
    SharedServicingGuard &operator=(const SharedServicingGuard &) = delete;

  private:
    M &mu;
};

} // namespace

SmpMonitor::SmpMonitor(const SmpConfig &config)
    : cfg(config), mach(config.monitor)
{
    if (cfg.vcpus == 0)
        fatal("SMP monitor needs at least one vCPU");
    // The default driver just yields: real target threads poll their
    // mailboxes via serviceIpis().
    ipiDriver = [](VcpuId, u64) { std::this_thread::yield(); };

    for (u32 v = 0; v < cfg.vcpus; ++v) {
        auto cpu = std::make_unique<SmpVcpu>();
        // Every vCPU boots in the normal VM on the kernel's tables,
        // like the Machine's own boot vCPU.
        cpu->arch = mach.vcpu();
        cpus.push_back(std::move(cpu));
        caches.push_back(std::make_unique<CpuFrameCache>(
            monitor().mem(), monitor().ptAlloc(), cfg.cacheCapacity));
    }
}

void
SmpMonitor::setIpiDriver(IpiDriver driver)
{
    ipiDriver = std::move(driver);
}

SmpMonitor::EnclaveMutex *
SmpMonitor::enclaveLock(EnclaveId id)
{
    WitnessedGuard guard(enclaveLocksTableLock);
    auto it = enclaveLocks.find(id);
    if (it != enclaveLocks.end())
        return it->second.get();
    // The caller holds structuralLock, so the monitor's table cannot
    // change shape under this lookup.  An unknown id leaves nothing
    // behind: its hypercall fails NoSuchEnclave under the placeholder.
    if (!monitor().findEnclave(id))
        return &unknownEnclaveLock;
    return enclaveLocks.emplace(id, std::make_unique<EnclaveMutex>())
        .first->second.get();
}

void
SmpMonitor::forgetEnclave(EnclaveId id)
{
    for (auto &cpu : cpus)
        cpu->enclaveCtx.erase(id);
    WitnessedGuard guard(enclaveLocksTableLock);
    enclaveLocks.erase(id);
}

std::size_t
SmpMonitor::enclaveLockCount() const
{
    WitnessedGuard guard(enclaveLocksTableLock);
    return enclaveLocks.size();
}

void
SmpMonitor::serviceIpis(VcpuId v)
{
    SmpVcpu &cpu = *cpus[v];
    std::vector<IpiRequest> todo;
    {
        WitnessedGuard guard(cpu.mailboxLock);
        todo.swap(cpu.mailbox);
    }
    if (todo.empty())
        return;
    const bool timing = obs::statsEnabled() || obs::traceEnabled();
    const u64 deliverTs = timing ? nowNs() : 0;
    u64 top = 0;
    for (const IpiRequest &req : todo) {
        obs::traceEvent(obs::EventType::IpiDeliver, "ipi",
                        ipiSpanId(req.gen, v), req.gen);
        if (req.pageVas.empty()) {
            cpu.tlb.flushDomain(req.domain);
        } else {
            // Vectored request from a batched unmap/evict: INVLPG each
            // listed page instead of nuking the whole domain.
            for (const u64 va : req.pageVas)
                cpu.tlb.invalidatePage(req.domain, va);
        }
        top = std::max(top, req.gen);
        if (req.postNs && deliverTs > req.postNs)
            statIpiPostToDeliverNs.record(deliverTs - req.postNs);
    }
    statCounters.ipisAcked += todo.size();
    statIpisAcked.add(todo.size());
    // Flushes above must be visible before the ack is (release pairs
    // with the initiator's acquire load).
    u64 prev = cpu.ackGen.load(std::memory_order_relaxed);
    while (prev < top &&
           !cpu.ackGen.compare_exchange_weak(prev, top,
                                             std::memory_order_release)) {
    }
    if (timing) {
        const u64 ackTs = nowNs();
        if (ackTs > deliverTs)
            statIpiDeliverToAckNs.record(ackTs - deliverTs);
        cpu.ackNs.store(ackTs, std::memory_order_relaxed);
    }
    for (const IpiRequest &req : todo)
        obs::traceEvent(obs::EventType::IpiAck, "ipi",
                        ipiSpanId(req.gen, v), req.gen);
}

bool
SmpMonitor::ipiPending(VcpuId v) const
{
    SmpVcpu &cpu = *cpus[v];
    WitnessedGuard guard(cpu.mailboxLock);
    return !cpu.mailbox.empty();
}

bool
SmpMonitor::shootdownInFlight(hv::DomainId domain) const
{
    return inFlightDomainPlus1.load(std::memory_order_acquire) ==
           u64(domain) + 1;
}

bool
SmpMonitor::shootdownPageInFlight(u64 va) const
{
    WitnessedGuard guard(inFlightPagesLock);
    return inFlightPageVas.count(va & ~(pageSize - 1)) != 0;
}

void
SmpMonitor::shootdown(VcpuId initiator, hv::DomainId domain)
{
    shootdown(initiator, domain, {});
}

void
SmpMonitor::shootdown(VcpuId initiator, hv::DomainId domain,
                      const std::vector<u64> &page_vas)
{
    ServicingGuard shootdown_guard(*this, shootdownLock, initiator);
    const u64 gen = epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
    inFlightDomainPlus1.store(u64(domain) + 1, std::memory_order_release);
    if (!page_vas.empty()) {
        // Register the batch's pages: until the ack wait completes a
        // stale translation of any of them may still be live on a
        // remote vCPU, so reload_page refuses to re-establish them.
        WitnessedGuard guard(inFlightPagesLock);
        inFlightPageVas.insert(page_vas.begin(), page_vas.end());
    }
    obs::traceEvent(obs::EventType::ShootdownBegin, "shootdown",
                    u64(domain), gen);

    const bool timing = obs::statsEnabled() || obs::traceEnabled();
    for (VcpuId w = 0; w < vcpuCount(); ++w) {
        if (w == initiator)
            continue;
        SmpVcpu &target = *cpus[w];
        const u64 postTs = timing ? nowNs() : 0;
        {
            WitnessedGuard guard(target.mailboxLock);
            target.mailbox.push_back({gen, domain, postTs, page_vas});
        }
        obs::traceEvent(obs::EventType::IpiPost, "ipi",
                        ipiSpanId(gen, w), w);
        ++statCounters.ipisSent;
        statIpisSent.inc();
    }
    if (page_vas.empty()) {
        cpus[initiator]->tlb.flushDomain(domain);
    } else {
        for (const u64 va : page_vas)
            cpus[initiator]->tlb.invalidatePage(domain, va);
    }
    ++statCounters.shootdowns;
    statShootdowns.inc();

    const auto clearInFlightPages = [&] {
        if (page_vas.empty())
            return;
        WitnessedGuard guard(inFlightPagesLock);
        for (const u64 va : page_vas)
            inFlightPageVas.erase(va);
    };

    if (cfg.planted.skipShootdownAck) {
        // PLANTED BUG: declare completion without the ack wait.  The
        // IPIs stay posted, remote TLBs stay stale, and the in-flight
        // marker is cleared — so the coherence oracle has no excuse
        // left and must flag any remote entry of this domain.
        clearInFlightPages();
        inFlightDomainPlus1.store(0, std::memory_order_release);
        obs::traceEvent(obs::EventType::ShootdownEnd, "shootdown",
                        u64(domain), gen);
        return;
    }

    const u64 start = nowNs();
    u64 spins = 0;
    for (;;) {
        bool all_acked = true;
        for (VcpuId w = 0; w < vcpuCount(); ++w) {
            if (w == initiator)
                continue;
            if (cpus[w]->ackGen.load(std::memory_order_acquire) < gen) {
                all_acked = false;
                break;
            }
        }
        if (all_acked)
            break;
        ++spins;
        // Keep draining our own mailbox (interrupts stay enabled while
        // spinning) and let the driver make targets progress.  The
        // driver executes on behalf of *other* vCPUs (the scheduler
        // servicing a target, a test probing a hypercall), so its
        // acquisition chains start fresh: it must not inherit this
        // thread's held shootdownLock in the witness's eyes.
        serviceIpis(initiator);
        {
            HEV_WITNESS_SUSPEND(borrowed);
            ipiDriver(initiator, gen);
        }
    }
    const u64 resume = nowNs();
    statShootdownNs.record(resume - start);
    statShootdownWaitSpins.record(spins);
    if (timing) {
        // The resume tax: how long after the *last* target published
        // its ack the initiator actually noticed and moved on.
        u64 lastAck = 0;
        for (VcpuId w = 0; w < vcpuCount(); ++w) {
            if (w == initiator)
                continue;
            lastAck = std::max(
                lastAck, cpus[w]->ackNs.load(std::memory_order_relaxed));
        }
        if (lastAck && resume > lastAck)
            statIpiAckToResumeNs.record(resume - lastAck);
    }
    clearInFlightPages();
    inFlightDomainPlus1.store(0, std::memory_order_release);
    obs::traceEvent(obs::EventType::ShootdownEnd, "shootdown",
                    u64(domain), gen);
}

Expected<EnclaveId>
SmpMonitor::hcEnclaveInit(VcpuId v, const hv::EnclaveConfig &config)
{
    ServicingGuard guard(*this, structuralLock, v);
    auto id = monitor().hcEnclaveInit(config);
    if (id)
        enclaveLock(*id); // materialize the per-enclave mutex
    return id;
}

Status
SmpMonitor::hcEnclaveAddPage(VcpuId v, EnclaveId id, Gva page_gva, Gpa src,
                             hv::AddPageKind kind)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    ServicingGuard enclave_guard(*this, *enclaveLock(id), v);
    return monitor().hcEnclaveAddPage(id, page_gva, src, kind,
                                      caches[v].get());
}

Status
SmpMonitor::hcEnclaveInitFinish(VcpuId v, EnclaveId id)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    ServicingGuard enclave_guard(*this, *enclaveLock(id), v);
    return monitor().hcEnclaveInitFinish(id);
}

Status
SmpMonitor::hcEnclaveEnter(VcpuId v, EnclaveId id)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    SmpVcpu &cpu = *cpus[v];
    if (cpu.arch.mode != hv::CpuMode::GuestNormal)
        return HvError::BadEnclaveState;
    hv::Enclave *enclave = monitor().findEnclaveMutable(id);
    if (!enclave)
        return HvError::NoSuchEnclave;
    {
        ServicingGuard enclave_guard(*this, *enclaveLock(id), v);
        if (enclave->state != hv::EnclaveState::Initialized)
            return HvError::BadEnclaveState;
        // Multi-occupancy: one TCS per resident vCPU.
        if (u64(enclave->activeVcpus) >= enclave->tcsPages)
            return HvError::BadEnclaveState;
        ++enclave->activeVcpus;
    }

    cpu.savedAppRegs = cpu.arch.regs;
    cpu.savedAppGptRoot = cpu.arch.gptRoot;
    auto ctx = cpu.enclaveCtx.find(id);
    if (ctx != cpu.enclaveCtx.end()) {
        cpu.arch.regs = ctx->second;
    } else {
        // First entry on this vCPU: scrubbed registers, TCS entry point.
        cpu.arch.regs = hv::RegFile{};
        cpu.arch.regs.rip = enclave->entryPoint;
    }
    cpu.arch.mode = hv::CpuMode::GuestEnclave;
    cpu.arch.currentEnclave = id;
    cpu.arch.domain = id;
    cpu.arch.gptRoot = enclave->gptRoot;
    cpu.arch.eptRoot = enclave->eptRoot;
    cpu.tlb.flushDomain(id);
    ++statCounters.enters;
    statSmpEnters.inc();
    return okStatus();
}

Status
SmpMonitor::hcEnclaveExit(VcpuId v)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    SmpVcpu &cpu = *cpus[v];
    if (cpu.arch.mode != hv::CpuMode::GuestEnclave)
        return HvError::BadEnclaveState;
    const EnclaveId id = cpu.arch.currentEnclave;
    hv::Enclave *enclave = monitor().findEnclaveMutable(id);
    if (!enclave)
        panic("vCPU %u inside unknown enclave %u", v, id);

    cpu.enclaveCtx[id] = cpu.arch.regs;
    cpu.arch.regs = cpu.savedAppRegs;
    cpu.arch.mode = hv::CpuMode::GuestNormal;
    cpu.arch.currentEnclave = invalidEnclave;
    cpu.arch.domain = hv::normalVmDomain;
    cpu.arch.gptRoot = cpu.savedAppGptRoot;
    cpu.arch.eptRoot = monitor().normalEptRoot();
    // Paper Sec. 2.1: exit invalidates exactly the enclave's tags in
    // *this* vCPU's TLB; guest-normal entries survive, and other
    // vCPUs resident in the enclave keep theirs.
    cpu.tlb.flushDomain(id);

    {
        ServicingGuard enclave_guard(*this, *enclaveLock(id), v);
        if (enclave->activeVcpus > 0)
            --enclave->activeVcpus;
    }
    ++statCounters.exits;
    statSmpExits.inc();
    return okStatus();
}

Status
SmpMonitor::hcEnclaveRemove(VcpuId v, EnclaveId id)
{
    ServicingGuard guard(*this, structuralLock, v);
    hv::Enclave *enclave = monitor().findEnclaveMutable(id);
    if (!enclave)
        return HvError::NoSuchEnclave;
    // The SMP-correct residency check: every vCPU in the table, not
    // just the caller.  A single-vCPU check here would scrub EPC pages
    // under a sibling vCPU still executing inside the enclave.
    for (VcpuId w = 0; w < vcpuCount(); ++w) {
        if (cpus[w]->arch.mode == hv::CpuMode::GuestEnclave &&
            cpus[w]->arch.currentEnclave == id)
            return HvError::BadEnclaveState;
    }
    // Retire every remote translation of the dying domain before the
    // backing frames are scrubbed and recycled.
    shootdown(v, id);
    auto st = monitor().hcEnclaveRemove(id);
    if (st) {
        forgetEnclave(id);
        ++statCounters.destroys;
        statSmpDestroys.inc();
    }
    return st;
}

Expected<hv::EnclaveReport>
SmpMonitor::hcEnclaveReport(VcpuId v)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    return monitor().hcEnclaveReport(cpus[v]->arch);
}

Expected<hv::SealedBlob>
SmpMonitor::hcEnclaveEvictPage(VcpuId v, EnclaveId id, Gva page_gva)
{
    Expected<hv::SealedBlob> blob = HvError::PermissionDenied;
    {
        SharedServicingGuard guard(*this, structuralLock, v);
        if (cpus[v]->arch.mode != hv::CpuMode::GuestNormal)
            return HvError::PermissionDenied;
        ServicingGuard enclave_guard(*this, *enclaveLock(id), v);
        blob = monitor().hcEnclaveEvictPage(id, page_gva);
        if (!blob)
            return blob;
        cpus[v]->tlb.invalidatePage(id, page_gva.value);
    }
    // All locks dropped before the ack wait, exactly like osUnmap: a
    // resident sibling vCPU may hold a cached translation of the
    // evicted page and needs structuralLock to make progress.
    shootdown(v, id);
    return blob;
}

Status
SmpMonitor::hcEnclaveReloadPage(VcpuId v, EnclaveId id,
                                const hv::SealedBlob &blob)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    if (cpus[v]->arch.mode != hv::CpuMode::GuestNormal)
        return HvError::PermissionDenied;
    ServicingGuard enclave_guard(*this, *enclaveLock(id), v);
    // A page still inside an in-flight batched shootdown must not be
    // re-established: a target vCPU that has not acked yet could keep a
    // cached translation of the *old* frame while the reload installs a
    // new one.  Reject with a typed error before any EPCM/page-table
    // state is touched; the caller retries after the batch completes.
    if (shootdownPageInFlight(blob.gva.value))
        return HvError::ShootdownInFlight;
    return monitor().hcEnclaveReloadPage(id, blob, caches[v].get());
}

Status
SmpMonitor::hcEnclaveAddPagesBatch(VcpuId v, EnclaveId id,
                                   const std::vector<hv::AddPageRequest> &reqs)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    ServicingGuard enclave_guard(*this, *enclaveLock(id), v);
    return monitor().hcEnclaveAddPagesBatch(id, reqs, caches[v].get());
}

Expected<std::vector<hv::SealedBlob>>
SmpMonitor::hcEnclaveEvictPagesBatch(VcpuId v, EnclaveId id,
                                     const std::vector<Gva> &gvas)
{
    Expected<std::vector<hv::SealedBlob>> blobs =
        HvError::PermissionDenied;
    std::vector<u64> vas;
    {
        SharedServicingGuard guard(*this, structuralLock, v);
        if (cpus[v]->arch.mode != hv::CpuMode::GuestNormal)
            return HvError::PermissionDenied;
        ServicingGuard enclave_guard(*this, *enclaveLock(id), v);
        blobs = monitor().hcEnclaveEvictPagesBatch(id, gvas);
        if (!blobs)
            return blobs;
        const bool skip_middle =
            monitor().config().planted.batchSkipMiddleInvalidate;
        vas.reserve(gvas.size());
        for (u64 i = 0; i < gvas.size(); ++i) {
            if (skip_middle && i > 0 && i + 1 < gvas.size())
                continue;
            cpus[v]->tlb.invalidatePage(id, gvas[i].value);
            vas.push_back(gvas[i].value);
        }
    }
    // One vectored shootdown for the whole batch — the amortization this
    // layer exists for.  Locks are dropped first, same as the
    // single-page path: targets may need structuralLock to ack.
    if (!vas.empty())
        shootdown(v, id, vas);
    return blobs;
}

Expected<hv::EnclaveImage>
SmpMonitor::hcEnclaveSnapshot(VcpuId v, EnclaveId id,
                              hv::SnapshotMode mode)
{
    std::vector<u64> vas;
    Expected<hv::EnclaveImage> image =
        [&]() -> Expected<hv::EnclaveImage> {
        // Exclusive: with move semantics the enclave table changes
        // shape, and even a fork must freeze enter/exit while the
        // residency check and the fold run.
        ServicingGuard guard(*this, structuralLock, v);
        if (cpus[v]->arch.mode != hv::CpuMode::GuestNormal)
            return HvError::PermissionDenied;
        // The SMP-correct quiesce check: every vCPU in the table, not
        // just the caller — a sibling still executing inside the
        // enclave holds register and TLB state the image cannot carry.
        for (VcpuId w = 0; w < vcpuCount(); ++w) {
            if (cpus[w]->arch.mode == hv::CpuMode::GuestEnclave &&
                cpus[w]->arch.currentEnclave == id)
                return HvError::BadEnclaveState;
        }
        auto folded = monitor().hcEnclaveSnapshot(id, mode);
        if (!folded)
            return folded;
        vas.reserve(folded->pages.size());
        for (const hv::SealedBlob &blob : folded->pages) {
            cpus[v]->tlb.invalidatePage(id, blob.gva.value);
            vas.push_back(blob.gva.value);
        }
        if (mode == hv::SnapshotMode::Move)
            forgetEnclave(id);
        return folded;
    }();
    // One vectored shootdown for the whole image fold (locks dropped
    // first: targets may need structuralLock to ack).
    if (!vas.empty())
        shootdown(v, id, vas);
    return image;
}

Expected<EnclaveId>
SmpMonitor::hcEnclaveRestoreImage(VcpuId v, const hv::EnclaveImage &image)
{
    ServicingGuard guard(*this, structuralLock, v);
    if (cpus[v]->arch.mode != hv::CpuMode::GuestNormal)
        return HvError::PermissionDenied;
    // No shootdown: the restored enclave's mappings are all new, so no
    // vCPU anywhere can hold a stale positive translation for them.
    auto id = monitor().hcEnclaveRestoreImage(image);
    if (id)
        enclaveLock(*id); // materialize the per-enclave mutex
    return id;
}

Status
SmpMonitor::osUnmapBatch(VcpuId v, const std::vector<u64> &vas)
{
    if (vas.empty())
        return okStatus();
    std::vector<u64> inval;
    {
        SharedServicingGuard guard(*this, structuralLock, v);
        SmpVcpu &cpu = *cpus[v];
        if (cpu.arch.mode != hv::CpuMode::GuestNormal)
            return HvError::PermissionDenied;
        ServicingGuard pt_guard(*this, osPtLock, v);
        // Validate the whole batch before touching any entry: the OS
        // page table has no frame pressure on the unmap path, so unlike
        // the enclave batches nothing can fail after this point and
        // validate-then-apply gives all-or-nothing without a rollback.
        std::set<u64> seen;
        for (const u64 va : vas) {
            if (va % pageSize != 0)
                return HvError::NotAligned;
            if (!seen.insert(va).second)
                return HvError::InvalidParam;
            if (auto hpa = monitor().translateUncached(
                    cpu.arch.gptRoot, cpu.arch.eptRoot, Gva(va), false);
                !hpa)
                return hpa.error();
        }
        const Gpa root(cpu.arch.gptRoot.value);
        const bool skip_middle =
            monitor().config().planted.batchSkipMiddleInvalidate;
        inval.reserve(vas.size());
        for (u64 i = 0; i < vas.size(); ++i) {
            if (auto st = mach.os().gptUnmap(root, vas[i]); !st)
                return st; // unreachable: validated above
            if (skip_middle && i > 0 && i + 1 < vas.size())
                continue;
            cpu.tlb.invalidatePage(hv::normalVmDomain, vas[i]);
            inval.push_back(vas[i]);
        }
    }
    // All locks dropped, one shootdown, one ack generation per batch.
    shootdown(v, hv::normalVmDomain, inval);
    return okStatus();
}

Status
SmpMonitor::osProtectRoBatch(VcpuId v,
                             const std::vector<std::pair<u64, Gpa>> &elems)
{
    if (elems.empty())
        return okStatus();
    std::vector<u64> inval;
    {
        SharedServicingGuard guard(*this, structuralLock, v);
        SmpVcpu &cpu = *cpus[v];
        if (cpu.arch.mode != hv::CpuMode::GuestNormal)
            return HvError::PermissionDenied;
        ServicingGuard pt_guard(*this, osPtLock, v);
        std::set<u64> seen;
        for (const auto &[va, target] : elems) {
            (void)target;
            if (va % pageSize != 0)
                return HvError::NotAligned;
            if (!seen.insert(va).second)
                return HvError::InvalidParam;
            if (auto hpa = monitor().translateUncached(
                    cpu.arch.gptRoot, cpu.arch.eptRoot, Gva(va), false);
                !hpa)
                return hpa.error();
        }
        const Gpa root(cpu.arch.gptRoot.value);
        const bool skip_middle =
            monitor().config().planted.batchSkipMiddleInvalidate;
        inval.reserve(elems.size());
        for (u64 i = 0; i < elems.size(); ++i) {
            const auto &[va, target] = elems[i];
            if (auto st = mach.os().gptUnmap(root, va); !st)
                return st; // unreachable: validated above
            // Remap in place: the leaf table survives the unmap, so the
            // map cannot need a fresh frame and cannot fail mid-batch.
            if (auto st = mach.os().gptMap(root, va, target,
                                           hv::PteFlags::userRo());
                !st)
                return st;
            if (skip_middle && i > 0 && i + 1 < elems.size())
                continue;
            cpu.tlb.invalidatePage(hv::normalVmDomain, va);
            inval.push_back(va);
        }
    }
    // A stale writable entry elsewhere would defeat the downgrade; one
    // vectored shootdown retires them all in a single ack generation.
    shootdown(v, hv::normalVmDomain, inval);
    return okStatus();
}

Status
SmpMonitor::osUnmap(VcpuId v, u64 va)
{
    {
        SharedServicingGuard guard(*this, structuralLock, v);
        SmpVcpu &cpu = *cpus[v];
        if (cpu.arch.mode != hv::CpuMode::GuestNormal)
            return HvError::PermissionDenied;
        ServicingGuard pt_guard(*this, osPtLock, v);
        if (auto st = mach.os().gptUnmap(Gpa(cpu.arch.gptRoot.value), va);
            !st)
            return st;
        cpu.tlb.invalidatePage(hv::normalVmDomain, va);
    }
    // All locks dropped: the ack wait must not block targets that need
    // osPtLock or structuralLock to make progress.
    shootdown(v, hv::normalVmDomain);
    return okStatus();
}

Status
SmpMonitor::osMap(VcpuId v, u64 va, Gpa target)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    SmpVcpu &cpu = *cpus[v];
    if (cpu.arch.mode != hv::CpuMode::GuestNormal)
        return HvError::PermissionDenied;
    ServicingGuard pt_guard(*this, osPtLock, v);
    return mach.os().gptMap(Gpa(cpu.arch.gptRoot.value), va, target,
                            hv::PteFlags::userRw());
}

Status
SmpMonitor::osProtectRo(VcpuId v, u64 va, Gpa target)
{
    {
        SharedServicingGuard guard(*this, structuralLock, v);
        SmpVcpu &cpu = *cpus[v];
        if (cpu.arch.mode != hv::CpuMode::GuestNormal)
            return HvError::PermissionDenied;
        ServicingGuard pt_guard(*this, osPtLock, v);
        const Gpa root = Gpa(cpu.arch.gptRoot.value);
        if (auto st = mach.os().gptUnmap(root, va); !st)
            return st;
        if (auto st = mach.os().gptMap(root, va, target,
                                       hv::PteFlags::userRo()); !st)
            return st;
        cpu.tlb.invalidatePage(hv::normalVmDomain, va);
    }
    // A stale writable entry elsewhere would defeat the downgrade.
    shootdown(v, hv::normalVmDomain);
    return okStatus();
}

Status
SmpMonitor::setGptRoot(VcpuId v, Hpa new_root)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    SmpVcpu &cpu = *cpus[v];
    if (cpu.arch.mode != hv::CpuMode::GuestNormal)
        return HvError::PermissionDenied;
    cpu.arch.gptRoot = new_root;
    // MOV CR3 is CPU local: flush this vCPU's normal-VM tags only.
    cpu.tlb.flushDomain(hv::normalVmDomain);
    return okStatus();
}

Expected<Hpa>
SmpMonitor::translate(VcpuId v, Gva va, bool is_write)
{
    SharedServicingGuard guard(*this, structuralLock, v);
    SmpVcpu &cpu = *cpus[v];
    if (auto hit = cpu.tlb.lookup(cpu.arch.domain, va.value)) {
        if (!is_write || hit->writable)
            return Hpa(hit->hpaPage + va.pageOffset());
    }

    Expected<Hpa> hpa = HvError::NotMapped;
    if (cpu.arch.mode == hv::CpuMode::GuestEnclave) {
        // Enclave tables only change shape before the enclave is
        // enterable (add_page) or at destroy, which this vCPU's own
        // residency blocks — no extra lock needed for the walk.
        hpa = monitor().translateEnclaveUncached(cpu.arch.gptRoot,
                                                 cpu.arch.eptRoot, va,
                                                 is_write);
    } else {
        // Normal-mode walks read guest-managed tables that osUnmap /
        // osMap / osProtectRo mutate under the exclusive side.
        SharedServicingGuard pt_guard(*this, osPtLock, v);
        hpa = monitor().translateUncached(cpu.arch.gptRoot,
                                          cpu.arch.eptRoot, va, is_write);
    }
    if (!hpa)
        return hpa.error();
    // Unlike Monitor::translate, an enclave write walk stamps no
    // accessed/dirty bits here, so stores through memStore never reach
    // Monitor::takeEnclaveDirty and live pre-copy would miss them.
    // Every migrateLive source is a single-vCPU hv::Machine today;
    // stamping from several vCPUs first needs atomic PTE A/D updates,
    // since a stamp racing evict's unmap would be a lost update.
    cpu.tlb.insert(cpu.arch.domain, va.value,
                   {hpa->pageBase().value, is_write});
    return *hpa;
}

Expected<Hpa>
SmpMonitor::translateAuthoritative(VcpuId v, hv::DomainId domain, Gva va,
                                   bool is_write) const
{
    const SmpVcpu &cpu = *cpus[v];
    if (domain == hv::normalVmDomain) {
        const Hpa gpt = cpu.arch.mode == hv::CpuMode::GuestNormal
                            ? cpu.arch.gptRoot
                            : cpu.savedAppGptRoot;
        return monitor().translateUncached(gpt, monitor().normalEptRoot(),
                                           va, is_write);
    }
    const hv::Enclave *enclave = monitor().findEnclave(domain);
    if (!enclave)
        return HvError::NoSuchEnclave;
    return monitor().translateEnclaveUncached(enclave->gptRoot,
                                              enclave->eptRoot, va,
                                              is_write);
}

Expected<u64>
SmpMonitor::memLoad(VcpuId v, Gva va)
{
    if (va.value % sizeof(u64) != 0)
        return HvError::NotAligned;
    auto hpa = translate(v, va, false);
    if (!hpa)
        return hpa.error();
    return monitor().mem().read(*hpa);
}

Status
SmpMonitor::memStore(VcpuId v, Gva va, u64 value)
{
    if (va.value % sizeof(u64) != 0)
        return HvError::NotAligned;
    auto hpa = translate(v, va, true);
    if (!hpa)
        return hpa.error();
    monitor().mem().write(*hpa, value);
    return okStatus();
}

#if HEV_LOCK_WITNESS
void
SmpMonitor::debugAcquireOutOfOrder(VcpuId v)
{
    // Deliberately backwards — osPtLock before structuralLock — so the
    // witness death test can prove the panic fires.  Never called by
    // the monitor itself; compiled only into witness builds.
    // hev-lint: allow lock-order
    SharedServicingGuard pt_guard(*this, osPtLock, v);
    SharedServicingGuard guard(*this, structuralLock, v);
}
#endif

} // namespace hev::smp
