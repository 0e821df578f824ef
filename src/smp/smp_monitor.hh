/**
 * @file
 * The multi-vCPU monitor: vCPU table, per-vCPU TLBs, fine-grained
 * locking, and the epoch-based TLB shootdown protocol.
 *
 * SmpMonitor wraps an hv::Machine with an N-entry vCPU table.  Each
 * vCPU owns its architectural state (hv::VCpu), its own tagged TLB and
 * a per-CPU frame cache; the single-vCPU monitor's global TLB is
 * unused here.  Hypercalls delegate to hv::Monitor for the isolation
 * logic but manage occupancy, contexts and TLBs per vCPU.
 *
 * Locking: HEV_SMP_LOCKS (lock_witness.hh) is the acquisition order;
 * acquire strictly along it, release in any order.  What each lock is
 * for, and why it is shared or exclusive:
 *   - structuralLock — shared for ordinary hypercalls and memory
 *     accesses, exclusive for enclave create/destroy (the enclave
 *     table itself changes shape).
 *   - per-enclave mutex — serializes occupancy and add_page on one
 *     enclave; different enclaves proceed in parallel.
 *   - osPtLock — exclusive for primary-OS page-table edits and guest
 *     pool operations, shared for normal-mode TLB-miss walks.
 *   - shootdownLock — at most one shootdown in flight.
 *   - enclaveLocksTableLock, mailboxLock, inFlightPagesLock — short
 *     leaf sections that never block on remote progress.
 * No lock is ever held across a shootdown's ack wait except
 * shootdownLock itself (and structuralLock during destroy), and every
 * blocking acquisition by a vCPU services that vCPU's own IPIs while
 * it spins — the software analogue of spinning with interrupts
 * enabled, and what makes the wait deadlock free.
 *
 * Shootdown protocol (unmap / permission downgrade / destroy):
 *   initiate: bump the global epoch to G, post {G, domain} into every
 *             other vCPU's IPI mailbox, flush the initiator's own TLB.
 *   service:  a vCPU (always on its own thread) drains its mailbox,
 *             flushes the requested domains from its TLB, and
 *             publishes G as its ack generation.
 *   complete: the initiator returns only once every target's ack
 *             generation has reached G.  The planted skipShootdownAck
 *             bug returns without waiting — remote vCPUs keep
 *             translating through the dead mapping, which the
 *             coherence oracle (smp_invariants.hh) flags.
 */

#ifndef HEV_SMP_SMP_MONITOR_HH
#define HEV_SMP_SMP_MONITOR_HH

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "hv/machine.hh"
#include "smp/cpu_cache.hh"
#include "smp/lock_witness.hh"
#include "smp/smp.hh"
#include "support/thread_annotations.hh"

namespace hev::smp
{

/**
 * One posted-but-unserviced remote flush request.  An empty pageVas
 * means "flush the whole domain" (the pre-batching behavior); a
 * non-empty one carries the per-page invalidation vector of a batched
 * unmap/evict, amortizing one ack generation over the whole batch.
 */
struct IpiRequest
{
    u64 gen = 0;              //!< shootdown generation
    hv::DomainId domain = 0;  //!< domain to flush
    u64 postNs = 0;           //!< post timestamp (0 = timing off)
    std::vector<u64> pageVas; //!< page vas to invalidate; empty = all
};

/** One slot of the vCPU table. */
struct SmpVcpu
{
    /** Architectural state; touched only by the owning thread. */
    hv::VCpu arch;
    /** This vCPU's private tagged TLB. */
    hv::Tlb tlb;
    /** App context saved by enter, restored by exit (per vCPU). */
    hv::RegFile savedAppRegs;
    Hpa savedAppGptRoot{};
    /** Per-enclave enclave-side contexts (one TCS per resident vCPU). */
    std::map<EnclaveId, hv::RegFile> enclaveCtx;

    /** IPI mailbox: written by initiators, drained by the owner. */
    Ranked<LockRank::Mailbox, Mutex> mailboxLock;
    std::vector<IpiRequest> mailbox HEV_GUARDED_BY(mailboxLock);
    /** Highest shootdown generation this vCPU has acked. */
    std::atomic<u64> ackGen{0};
    /**
     * When the last ack was published (0 = never / timing off).  Read
     * by the initiator after its acquire of ackGen, so a plain store
     * next to the ack CAS suffices; used for the ack->resume phase.
     */
    std::atomic<u64> ackNs{0};
};

/** Counters of the SMP machinery (the hv ones keep counting too). */
struct SmpStats
{
    std::atomic<u64> shootdowns{0};
    std::atomic<u64> ipisSent{0};
    std::atomic<u64> ipisAcked{0};
    std::atomic<u64> enters{0};
    std::atomic<u64> exits{0};
    std::atomic<u64> destroys{0};
};

/** The SMP monitor. */
class SmpMonitor
{
  public:
    /**
     * Hook the shootdown ack wait spins on.  The deterministic
     * scheduler installs a driver that picks an unacked target and
     * services its IPIs on the spot (replayable from the schedule
     * seed); the default driver yields the thread so real target
     * threads get scheduled to poll their mailboxes.
     */
    using IpiDriver = std::function<void(VcpuId initiator, u64 gen)>;

    explicit SmpMonitor(const SmpConfig &config);

    SmpMonitor(const SmpMonitor &) = delete;
    SmpMonitor &operator=(const SmpMonitor &) = delete;

    /// @name Component access
    /// @{
    hv::Machine &machine() { return mach; }
    const hv::Machine &machine() const { return mach; }
    hv::Monitor &monitor() { return mach.monitor(); }
    const hv::Monitor &monitor() const { return mach.monitor(); }
    u32 vcpuCount() const { return u32(cpus.size()); }
    hv::VCpu &archOf(VcpuId v) { return cpus[v]->arch; }
    const hv::VCpu &archOf(VcpuId v) const { return cpus[v]->arch; }
    const hv::Tlb &tlbOf(VcpuId v) const { return cpus[v]->tlb; }
    CpuFrameCache &cacheOf(VcpuId v) { return *caches[v]; }
    const SmpStats &stats() const { return statCounters; }
    const SmpConfig &config() const { return cfg; }
    /// @}

    /** Replace the ack-wait driver (see IpiDriver). */
    void setIpiDriver(IpiDriver driver);

    /// @name Hypercalls, issued by a specific vCPU
    /// @{

    Expected<EnclaveId> hcEnclaveInit(VcpuId v,
                                      const hv::EnclaveConfig &config);

    Status hcEnclaveAddPage(VcpuId v, EnclaveId id, Gva page_gva, Gpa src,
                            hv::AddPageKind kind);

    /**
     * Batched EADD: one hypercall, one lock round-trip and this vCPU's
     * frame cache for the whole vector, with the monitor's
     * all-or-nothing semantics (see hv::Monitor::hcEnclaveAddPagesBatch).
     */
    Status hcEnclaveAddPagesBatch(VcpuId v, EnclaveId id,
                                  const std::vector<hv::AddPageRequest> &reqs);

    Status hcEnclaveInitFinish(VcpuId v, EnclaveId id);

    /**
     * Multi-occupancy enter: up to tcsPages vCPUs may be resident at
     * once; each saves its app context in its own vCPU slot.
     */
    Status hcEnclaveEnter(VcpuId v, EnclaveId id);

    /**
     * Exit back to the normal VM, flushing exactly this vCPU's TLB
     * entries of the enclave's domain (paper Sec. 2.1) — guest-normal
     * entries survive.
     */
    Status hcEnclaveExit(VcpuId v);

    /**
     * Remove: rejected while *any* vCPU in the table is inside the
     * enclave (not merely the calling one), then a shootdown of the
     * enclave's domain retires every remote stale translation before
     * the EPC pages are scrubbed and the table frames freed.
     */
    Status hcEnclaveRemove(VcpuId v, EnclaveId id);

    /** EREPORT analogue for the enclave this vCPU is resident in. */
    Expected<hv::EnclaveReport> hcEnclaveReport(VcpuId v);

    /**
     * EWB analogue: seal + evict one resident enclave page, then run
     * the shootdown protocol over the enclave's domain with all locks
     * dropped (the osUnmap pattern) — a sibling vCPU resident in the
     * enclave may hold a cached translation of the page.
     */
    Expected<hv::SealedBlob> hcEnclaveEvictPage(VcpuId v, EnclaveId id,
                                                Gva page_gva);

    /**
     * ELD analogue: verify + reload a sealed blob.  No shootdown — the
     * page had no live translations while evicted, so reload creates
     * no stale positive entry anywhere.
     */
    Status hcEnclaveReloadPage(VcpuId v, EnclaveId id,
                               const hv::SealedBlob &blob);

    /**
     * Batched EWB: seal + evict a whole vector of resident pages under
     * one lock round-trip, then run **one** shootdown whose IPI carries
     * the per-page invalidation vector — one ack generation per batch
     * instead of one per page.
     */
    Expected<std::vector<hv::SealedBlob>>
    hcEnclaveEvictPagesBatch(VcpuId v, EnclaveId id,
                             const std::vector<Gva> &gvas);

    /**
     * Snapshot a quiesced enclave into a MAC'd image (migration /
     * fork / backup).  The SMP-correct quiesce check rejects while
     * *any* vCPU in the table is resident (not merely the caller),
     * and the whole fold retires stale translations with **one**
     * vectored shootdown carrying every sealed page's va.
     */
    Expected<hv::EnclaveImage> hcEnclaveSnapshot(VcpuId v, EnclaveId id,
                                                 hv::SnapshotMode mode);

    /**
     * Rebuild an enclave from an image on this host.  Exclusive
     * structural lock (the enclave table changes shape); no shootdown
     * — a freshly restored enclave has no stale positive entry
     * anywhere.
     */
    Expected<EnclaveId> hcEnclaveRestoreImage(VcpuId v,
                                              const hv::EnclaveImage &image);

    /// @}

    /// @name Primary-OS page-table operations with coherent shootdown
    /// @{

    /**
     * Unmap va from this vCPU's current guest page table, then run the
     * shootdown protocol over the normal-VM domain.
     */
    Status osUnmap(VcpuId v, u64 va);

    /** Map va -> target; no shootdown (no stale positive entry). */
    Status osMap(VcpuId v, u64 va, Gpa target);

    /**
     * Permission downgrade: remap va read-only onto `target`, then
     * shootdown (a stale writable entry would be a coherence hole).
     */
    Status osProtectRo(VcpuId v, u64 va, Gpa target);

    /**
     * Batched unmap: validate the whole batch first (every va aligned,
     * mapped, and unique), then unmap all of them under one osPtLock
     * hold and retire remote translations with **one** vectored
     * shootdown (one ack generation for the whole batch).  A failed
     * validation leaves the tables untouched.  While the shootdown is
     * in flight the batch's vas are registered, and
     * hcEnclaveReloadPage of a blob targeting one of them fails with
     * ShootdownInFlight.
     */
    Status osUnmapBatch(VcpuId v, const std::vector<u64> &vas);

    /**
     * Batched permission downgrade: same all-or-nothing validation and
     * single vectored shootdown as osUnmapBatch, remapping each
     * (va, target) pair read-only.
     */
    Status osProtectRoBatch(VcpuId v,
                            const std::vector<std::pair<u64, Gpa>> &elems);

    /** MOV CR3 on one vCPU: local domain flush only, no shootdown. */
    Status setGptRoot(VcpuId v, Hpa new_root);

    /// @}

    /// @name Memory accesses through the per-vCPU TLB
    /// @{

    Expected<u64> memLoad(VcpuId v, Gva va);

    Status memStore(VcpuId v, Gva va, u64 value);

    /** Translation via this vCPU's TLB (fills it on miss). */
    Expected<Hpa> translate(VcpuId v, Gva va, bool is_write);

    /**
     * TLB-less authoritative translation of (vCPU, domain, va): what
     * the tables say right now.  The coherence oracle compares every
     * cached entry against this.
     */
    Expected<Hpa> translateAuthoritative(VcpuId v, hv::DomainId domain,
                                         Gva va, bool is_write) const;

    /// @}

    /// @name The shootdown machinery
    /// @{

    /**
     * Drain this vCPU's IPI mailbox: flush the requested domains from
     * its TLB and publish the ack generation.  Must be called from the
     * vCPU's driving thread; scheduler steps call it after each op and
     * worker threads poll it.
     */
    void serviceIpis(VcpuId v);

    /** True iff the vCPU has unserviced IPI requests. */
    bool ipiPending(VcpuId v) const;

    /** Current shootdown epoch (generations issued so far). */
    u64 shootdownEpoch() const { return epoch.load(); }

    /**
     * True while a shootdown of the domain has begun but not yet
     * completed.  The coherence oracle excuses stale entries of such a
     * domain; after completion there is no excuse.
     */
    bool shootdownInFlight(hv::DomainId domain) const;

    /**
     * True while a *batched* shootdown whose invalidation vector
     * contains this page va is in flight.  Reload of a sealed blob
     * targeting such a va is refused (ShootdownInFlight) so a stale
     * entry being retired can never alias a freshly reloaded mapping.
     */
    bool shootdownPageInFlight(u64 va) const;

    /// @}

    /**
     * Size of the per-enclave lock table.  Test-only: lets the tests
     * check that it holds exactly the live enclaves.
     */
    std::size_t enclaveLockCount() const;

#if HEV_LOCK_WITNESS
    /**
     * Witness-build test hook: acquire osPtLock then structuralLock —
     * backwards — so the death test can prove the runtime witness
     * rejects an out-of-order acquisition end to end.  Never compiled
     * into production builds.
     */
    void debugAcquireOutOfOrder(VcpuId v);
#endif

  private:
    using EnclaveMutex = Ranked<LockRank::Enclave, Mutex>;

    /** Run the full shootdown protocol for one domain. */
    void shootdown(VcpuId initiator, hv::DomainId domain);

    /**
     * Vectored variant: the IPIs carry @p page_vas so targets
     * invalidate exactly those pages instead of the whole domain;
     * still one generation and one ack wait for the entire vector.
     */
    void shootdown(VcpuId initiator, hv::DomainId domain,
                   const std::vector<u64> &page_vas);

    /**
     * The per-enclave mutex, created on first use (enclaves can also
     * be created behind the SMP monitor's back through the wrapped
     * Machine's own hypercall path) and erased by forgetEnclave.  An
     * id the monitor does not know gets the shared unknownEnclaveLock
     * instead, so the table only ever holds live enclaves.
     */
    EnclaveMutex *enclaveLock(EnclaveId id);

    /**
     * Drop the SMP-side state of a torn-down enclave: every vCPU's
     * saved context and the per-enclave mutex.  Called under the
     * exclusive structuralLock, so no thread holds that mutex.
     */
    void forgetEnclave(EnclaveId id) HEV_REQUIRES(structuralLock);

    SmpConfig cfg;
    hv::Machine mach;
    std::vector<std::unique_ptr<SmpVcpu>> cpus;
    std::vector<std::unique_ptr<CpuFrameCache>> caches;

    // The locks, each typed with its HEV_SMP_LOCKS rank.

    /** Enclave-table shape (see file header). */
    Ranked<LockRank::Structural, SharedMutex> structuralLock;
    /** Guards the enclaveLocks table itself (held only inside
     *  enclaveLock, never across another acquisition). */
    mutable Ranked<LockRank::EnclaveTable, Mutex> enclaveLocksTableLock;
    /** One mutex per live enclave; the map itself is guarded, the
     *  pointed-to mutexes are capabilities of their own (acquired
     *  after enclaveLocksTableLock releases). */
    std::map<EnclaveId, std::unique_ptr<EnclaveMutex>> enclaveLocks
        HEV_GUARDED_BY(enclaveLocksTableLock);
    /** The per-enclave mutex for ids the monitor does not know (they
     *  fail at once). */
    EnclaveMutex unknownEnclaveLock;
    /** Primary-OS page tables and guest page pool. */
    Ranked<LockRank::OsPt, SharedMutex> osPtLock;
    /** One shootdown in flight at a time. */
    Ranked<LockRank::Shootdown, Mutex> shootdownLock;

    std::atomic<u64> epoch{0};
    /** Domain+1 of the in-flight shootdown; 0 = none. */
    std::atomic<u64> inFlightDomainPlus1{0};
    /** Guards inFlightPageVas; a leaf: nothing is acquired under it. */
    mutable Ranked<LockRank::InFlightPages, Mutex> inFlightPagesLock;
    /** Page vas of the in-flight batched shootdown (empty when none or
     *  when the in-flight shootdown is a whole-domain flush). */
    std::set<u64> inFlightPageVas HEV_GUARDED_BY(inFlightPagesLock);

    IpiDriver ipiDriver;
    SmpStats statCounters;
};

} // namespace hev::smp

#endif // HEV_SMP_SMP_MONITOR_HH
