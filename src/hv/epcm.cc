#include "hv/epcm.hh"

#include "support/logging.hh"

namespace hev::hv
{

const char *
epcPageStateName(EpcPageState state)
{
    switch (state) {
      case EpcPageState::Free: return "Free";
      case EpcPageState::Reg: return "Reg";
      case EpcPageState::Tcs: return "Tcs";
    }
    return "Unknown";
}

Epcm::Epcm(HpaRange epc_range) : epcRange(epc_range)
{
    if (!epc_range.start.pageAligned() || !epc_range.end.pageAligned())
        fatal("EPC range must be page aligned");
    table.assign(epc_range.size() / pageSize, EpcmEntry{});
    freeCount = table.size();
}

u64
Epcm::indexOf(Hpa hpa) const
{
    if (!isEpc(hpa))
        panic("EPCM index of non-EPC address %#llx",
              (unsigned long long)hpa.value);
    return (hpa - epcRange.start) / pageSize;
}

Expected<Hpa>
Epcm::allocPage(EnclaveId owner, Gva lin_addr, EpcPageState state)
{
    // First fit, deliberately: the functional spec (specEpcmAlloc) and
    // the MIR model (epcm_alloc) both scan from index 0, and the
    // conformance oracles compare the tables index-aligned.  A
    // rotating hint would hand reload_page a different frame than the
    // one evict_page freed and silently break that alignment.
    u64 scan_from_start = 0;
    return allocPage(owner, lin_addr, state, scan_from_start);
}

Expected<Hpa>
Epcm::allocPage(EnclaveId owner, Gva lin_addr, EpcPageState state,
                u64 &scan_hint)
{
    if (owner == invalidEnclave || state == EpcPageState::Free)
        return HvError::InvalidParam;
    MutexGuard guard(lock);
    // With no frees since the last grant, every index below the hint is
    // still occupied, so resuming there finds the same slot a scan from
    // 0 would.
    const u64 n = table.size();
    for (u64 idx = scan_hint < n ? scan_hint : n; idx < n; ++idx) {
        if (table[idx].state == EpcPageState::Free) {
            table[idx] = {state, owner, lin_addr};
            --freeCount;
            scan_hint = idx + 1;
            return epcRange.start + idx * pageSize;
        }
    }
    scan_hint = n;
    return HvError::OutOfEpc;
}

Status
Epcm::restorePage(Hpa page, EnclaveId owner, Gva lin_addr,
                  EpcPageState state)
{
    if (!isEpc(page) || !page.pageAligned() || owner == invalidEnclave ||
        state == EpcPageState::Free)
        return HvError::InvalidParam;
    MutexGuard guard(lock);
    EpcmEntry &entry = table[indexOf(page)];
    if (entry.state != EpcPageState::Free)
        return HvError::EpcmConflict;
    entry = {state, owner, lin_addr};
    --freeCount;
    return okStatus();
}

Status
Epcm::freePage(Hpa page)
{
    if (!isEpc(page) || !page.pageAligned())
        return HvError::InvalidParam;
    MutexGuard guard(lock);
    EpcmEntry &entry = table[indexOf(page)];
    if (entry.state == EpcPageState::Free)
        return HvError::EpcmConflict;
    entry = EpcmEntry{};
    ++freeCount;
    return okStatus();
}

u64
Epcm::freePages() const
{
    MutexGuard guard(lock);
    return freeCount;
}

// Quiescent-only reader (invariant checkers, exclusive-locked
// teardown): contractually runs with no concurrent alloc/free, so it
// deliberately skips the lock the table is guarded by.
const EpcmEntry &
Epcm::entryFor(Hpa hpa) const HEV_NO_THREAD_SAFETY_ANALYSIS
{
    return table[indexOf(hpa)];
}

// Quiescent-only reader; same exemption as entryFor.
void
Epcm::forEachUsed(
    const std::function<void(Hpa, const EpcmEntry &)> &visit) const
    HEV_NO_THREAD_SAFETY_ANALYSIS
{
    for (u64 idx = 0; idx < table.size(); ++idx) {
        if (table[idx].state != EpcPageState::Free)
            visit(epcRange.start + idx * pageSize, table[idx]);
    }
}

} // namespace hev::hv
