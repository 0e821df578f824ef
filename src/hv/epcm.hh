/**
 * @file
 * The Enclave Page Cache Map (EPCM).
 *
 * RustMonitor "maintains a data structure (i.e., Enclave Page Cache Map,
 * EPCM) to store the EPC page states, and checks the correctness for
 * memory allocation" (paper Sec. 2.1).  Every page of the EPC has one
 * entry recording whether it is free, which enclave owns it, what kind of
 * page it is, and the enclave-linear (guest-virtual) address it was added
 * at.  The paper's *EPCM invariant* (Sec. 5.2) requires every enclave
 * page-table mapping to have a matching entry here — ruling out covert
 * mappings.
 */

#ifndef HEV_HV_EPCM_HH
#define HEV_HV_EPCM_HH

#include <functional>
#include <vector>

#include "support/result.hh"
#include "support/thread_annotations.hh"
#include "support/types.hh"

namespace hev::hv
{

/** Lifecycle state / kind of one EPC page, after SGX's page types. */
enum class EpcPageState : u8
{
    Free = 0,  //!< unowned
    Reg,       //!< regular enclave data/code page
    Tcs,       //!< thread control structure page (entry point metadata)
};

/** Name of an EpcPageState, for diagnostics. */
const char *epcPageStateName(EpcPageState state);

/** Metadata for one EPC page. */
struct EpcmEntry
{
    EpcPageState state = EpcPageState::Free;
    EnclaveId owner = invalidEnclave;
    Gva linAddr{};          //!< enclave-linear address the page backs

    bool operator==(const EpcmEntry &) const = default;
};

/** Map from EPC page to its metadata, plus the allocation policy. */
class Epcm
{
  public:
    explicit Epcm(HpaRange epc_range);

    /** True iff hpa lies inside the EPC. */
    bool isEpc(Hpa hpa) const { return epcRange.contains(hpa); }

    /**
     * Allocate a free EPC page for an enclave: first fit from index 0,
     * i.e. the hinted overload with a hint of 0.
     *
     * @param owner owning enclave; must not be invalidEnclave.
     * @param lin_addr enclave-linear address the page will back.
     * @param state Reg or Tcs.
     * @return page base, or OutOfEpc.
     */
    Expected<Hpa> allocPage(EnclaveId owner, Gva lin_addr,
                            EpcPageState state);

    /**
     * allocPage with a caller-held scan cursor: scanning resumes at
     * @p scan_hint (a table index) instead of 0, and the hint advances
     * past each grant.  Equivalent to first-fit-from-0 *only while no
     * page is freed between grants* — exactly the situation inside one
     * all-or-nothing add batch, where it turns k grants over an n-page
     * EPC from O(n*k) scans into O(n+k).
     */
    Expected<Hpa> allocPage(EnclaveId owner, Gva lin_addr,
                            EpcPageState state, u64 &scan_hint);

    /**
     * Re-occupy a specific page with the given metadata (rollback of a
     * mid-batch eviction).  Unlike allocPage this does not pick a slot:
     * the page must currently be Free, and it gets exactly the entry it
     * held before, keeping the EPCM index-aligned with the spec's.
     */
    Status restorePage(Hpa page, EnclaveId owner, Gva lin_addr,
                       EpcPageState state);

    /** Release a page back to Free; must be allocated. */
    Status freePage(Hpa page);

    /** Metadata of the page containing hpa (must be in EPC). */
    const EpcmEntry &entryFor(Hpa hpa) const;

    /** Visit every non-free page: f(page_base, entry). */
    void forEachUsed(
        const std::function<void(Hpa, const EpcmEntry &)> &visit) const;

    /** Pages currently free. */
    u64 freePages() const;

    /** Total EPC pages. */
    u64 totalPages() const { return table.size(); }

    /** The managed physical range. */
    HpaRange range() const { return epcRange; }

  private:
    u64 indexOf(Hpa hpa) const;

    HpaRange epcRange;
    /**
     * Serializes alloc/free from concurrent vCPUs.  Reads via
     * entryFor/forEachUsed are quiescent-only (invariant checkers and
     * exclusive-locked teardown) and stay lock free — their bodies
     * carry HEV_NO_THREAD_SAFETY_ANALYSIS to record exactly that
     * exemption instead of silently widening the guard.
     */
    mutable Mutex lock;
    std::vector<EpcmEntry> table HEV_GUARDED_BY(lock);
    u64 freeCount HEV_GUARDED_BY(lock) = 0;
};

} // namespace hev::hv

#endif // HEV_HV_EPCM_HH
