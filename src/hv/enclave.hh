/**
 * @file
 * Enclave control structure (the SECS analogue).
 *
 * One Enclave record per live enclave: its lifecycle state, the
 * enclave-linear range (ELRANGE) its protected pages live at, the
 * marshalling-buffer geometry fixed at creation, the roots of its
 * monitor-managed GPT and EPT, and the saved application context used by
 * enter/exit transitions.
 */

#ifndef HEV_HV_ENCLAVE_HH
#define HEV_HV_ENCLAVE_HH

#include <map>

#include "hv/vcpu.hh"
#include "support/types.hh"

namespace hev::hv
{

/**
 * Lifecycle of a live enclave, mirroring ECREATE/EADD/EINIT.  Remove
 * erases the record rather than marking it; the spec's enclStateDead
 * corresponds to an id that is no longer in the monitor's table.
 */
enum class EnclaveState : u8
{
    Adding,       //!< created; EADD (add_page) permitted
    Initialized,  //!< EINIT done; enterable, no further adds
};

/** Name of an EnclaveState, for diagnostics. */
const char *enclaveStateName(EnclaveState state);

/** Geometry the untrusted OS proposes at enclave creation. */
struct EnclaveConfig
{
    /** Enclave-linear range holding protected pages. */
    GvaRange elrange;
    /** Where the marshalling buffer appears in the enclave's VA space. */
    Gva mbufGva{};
    /** Marshalling buffer length in pages. */
    u64 mbufPages = 0;
    /**
     * Backing of the marshalling buffer in normal memory, as a
     * guest-physical address of the normal VM (identity-mapped, so this
     * is also the host-physical backing).
     */
    Gpa mbufBacking{};
    /**
     * Guest page-table root the primary OS ran with at creation time.
     * Only consumed by the historical shallow-copy bug reproduction
     * (see MonitorConfig::shallowCopyBug); ignored by the fixed monitor.
     */
    Hpa creatorGptRoot{};
};

/** Guest-physical window where an enclave's EPC pages are mapped. */
constexpr u64 enclaveEpcGpaBase = 0x4000'0000;
/** Guest-physical window where the marshalling buffer is mapped. */
constexpr u64 enclaveMbufGpaBase = 0x8000'0000;

/** Live state of one enclave. */
struct Enclave
{
    EnclaveId id = invalidEnclave;
    EnclaveState state = EnclaveState::Adding;
    EnclaveConfig cfg;

    /** Root of the monitor-managed guest page table. */
    Hpa gptRoot{};
    /** Root of the monitor-managed extended page table. */
    Hpa eptRoot{};

    /** Pages added so far (allocation cursor in the EPC GPA window). */
    u64 addedPages = 0;
    /** Number of TCS pages added (enter requires at least one). */
    u64 tcsPages = 0;
    /** Entry point recorded from the first TCS page. */
    u64 entryPoint = 0;
    /** Rolling measurement over added pages (attestation stub). */
    u64 measurement = 0;

    /** App context saved by enter, restored by exit. */
    RegFile savedAppRegs;
    Hpa savedAppGptRoot{};
    /** Enclave context saved by exit, restored by re-enter. */
    RegFile savedEnclaveRegs;
    bool hasSavedEnclaveRegs = false;
    /**
     * Number of vCPUs currently executing inside the enclave.  Each
     * resident vCPU occupies one TCS, so occupancy is bounded by
     * tcsPages; the single-vCPU Monitor additionally keeps it at most
     * one (its saved contexts live in this struct), while the SMP
     * monitor saves contexts per vCPU and allows up to tcsPages.
     * Removal while any vCPU is inside is rejected.
     */
    u32 activeVcpus = 0;

    /**
     * Pages evicted (EWB analogue) and not yet reloaded, keyed by their
     * enclave-linear address.  The value is the version counter sealed
     * into the blob; reload accepts exactly this version, which is what
     * makes replaying an older blob for the same address fail
     * (anti-rollback).
     */
    std::map<u64, u64> evictedPages;
    /** Next version counter to seal into an evicted page's blob. */
    u64 nextSealVersion = 1;

    /** The marshalling buffer range in the enclave's VA space. */
    GvaRange
    mbufGvaRange() const
    {
        return {cfg.mbufGva, cfg.mbufGva + cfg.mbufPages * pageSize};
    }

    /** The marshalling buffer backing range in host-physical memory. */
    HpaRange
    mbufHpaRange() const
    {
        return {Hpa(cfg.mbufBacking.value),
                Hpa(cfg.mbufBacking.value + cfg.mbufPages * pageSize)};
    }
};

} // namespace hev::hv

#endif // HEV_HV_ENCLAVE_HH
