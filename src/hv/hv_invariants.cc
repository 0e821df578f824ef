#include "hv/hv_invariants.hh"

#include <map>
#include <sstream>

namespace hev::hv
{

namespace
{

/**
 * Containment-checked recursive walk: visit terminal mappings, refuse
 * to follow intermediate entries that leave the monitor's frame area.
 * A table inside the area is a whole valid page, so its entries are
 * read straight from the raw page.
 *
 * @return false iff the walk hit an escaped table frame.
 */
bool
walkContained(const Monitor &mon, Hpa table, int level, u64 va_prefix,
              const std::function<void(u64, Pte, int)> &visit)
{
    if (!mon.ptAlloc().inArea(table))
        return false;
    const u64 *entries = mon.mem().pageWords(table);
    bool contained = true;
    for (u64 index = 0; index < entriesPerTable; ++index) {
        const Pte entry(entries[index]);
        if (!entry.present())
            continue;
        const u64 va =
            va_prefix | (index << (pageShift + 9 * (level - 1)));
        if (level == 1 || entry.huge()) {
            visit(va, entry, level);
        } else {
            contained = walkContained(mon, Hpa(entry.addr()), level - 1,
                                      va, visit) &&
                        contained;
        }
    }
    return contained;
}

void
report(std::vector<std::string> &violations, const std::string &what)
{
    violations.push_back(what);
}

/**
 * Visit every table frame reachable from a root (the root itself and
 * all intermediate tables).  Out-of-area frames are not followed —
 * escapes are walkContained's family to report.
 */
void
forEachTableFrame(const Monitor &mon, Hpa table, int level,
                  const std::function<void(Hpa)> &visit)
{
    if (!mon.ptAlloc().inArea(table))
        return;
    visit(table);
    if (level == 1)
        return;
    const u64 *entries = mon.mem().pageWords(table);
    for (u64 index = 0; index < entriesPerTable; ++index) {
        const Pte entry(entries[index]);
        if (!entry.present() || entry.huge())
            continue;
        forEachTableFrame(mon, Hpa(entry.addr()), level - 1, visit);
    }
}

} // namespace

std::vector<std::string>
checkMonitorInvariants(const Monitor &mon)
{
    std::vector<std::string> violations;
    PhysMem &mem = const_cast<Monitor &>(mon).mem();
    const MemLayout &layout = mon.config().layout;

    // --- Normal-VM containment: the OS's EPT stays out of the
    // secure region entirely.
    {
        const bool contained = walkContained(
            mon, mon.normalEptRoot(), pagingLevels, 0,
            [&](u64 gpa, Pte entry, int level) {
                const u64 span = 1ull << (pageShift + 9 * (level - 1));
                const HpaRange target{Hpa(entry.addr()),
                                      Hpa(entry.addr() + span)};
                if (target.overlaps(layout.secureRange())) {
                    std::ostringstream msg;
                    msg << "normal EPT maps gpa " << std::hex << gpa
                        << " into the secure region";
                    report(violations, msg.str());
                }
            });
        if (!contained)
            report(violations,
                   "normal EPT has table frames outside the frame area");
    }

    // --- Per-enclave families.
    std::map<u64, EnclaveId> epc_claims;
    mon.forEachEnclave([&](const Enclave &enclave) {
        const PageTable gpt(mem, nullptr, enclave.gptRoot);
        const PageTable ept(mem, nullptr, enclave.eptRoot);
        const GvaRange mbuf_range = enclave.mbufGvaRange();
        const HpaRange mbuf_backing = enclave.mbufHpaRange();

        if (mbuf_range.overlaps(enclave.cfg.elrange)) {
            std::ostringstream msg;
            msg << "enclave " << enclave.id
                << ": ELRANGE overlaps its marshalling buffer range";
            report(violations, msg.str());
        }

        // EPT shape: no huge pages, targets restricted.
        const bool ept_contained = walkContained(
            mon, enclave.eptRoot, pagingLevels, 0,
            [&](u64 gpa, Pte entry, int level) {
                if (level != 1 || entry.huge()) {
                    std::ostringstream msg;
                    msg << "enclave " << enclave.id
                        << ": huge EPT mapping at gpa " << std::hex
                        << gpa;
                    report(violations, msg.str());
                }
            });
        if (!ept_contained) {
            std::ostringstream msg;
            msg << "enclave " << enclave.id
                << ": EPT table frames escape the frame area";
            report(violations, msg.str());
        }

        // GPT shape + composed translation facts.
        const bool gpt_contained = walkContained(
            mon, enclave.gptRoot, pagingLevels, 0,
            [&](u64 gva, Pte entry, int level) {
                if (level != 1 || entry.huge()) {
                    std::ostringstream msg;
                    msg << "enclave " << enclave.id
                        << ": huge GPT mapping at gva " << std::hex
                        << gva;
                    report(violations, msg.str());
                }
                const bool in_elrange =
                    enclave.cfg.elrange.contains(Gva(gva));
                const bool in_mbuf =
                    mbuf_range.contains(Gva(gva));
                if (!in_elrange && !in_mbuf) {
                    std::ostringstream msg;
                    msg << "enclave " << enclave.id << ": gva "
                        << std::hex << gva
                        << " mapped outside ELRANGE and mbuf";
                    report(violations, msg.str());
                    return;
                }

                auto stage2 = ept.query(entry.addr());
                if (!stage2) {
                    std::ostringstream msg;
                    msg << "enclave " << enclave.id << ": gva "
                        << std::hex << gva
                        << " has no second-stage mapping";
                    report(violations, msg.str());
                    return;
                }
                const Hpa hpa(stage2->physAddr);
                const bool to_epc = layout.epcRange().contains(hpa);

                if (in_elrange != to_epc) {
                    std::ostringstream msg;
                    msg << "enclave " << enclave.id << ": gva "
                        << std::hex << gva
                        << (in_elrange
                                ? " is ELRANGE but not EPC-backed"
                                : " is EPC-backed outside ELRANGE");
                    report(violations, msg.str());
                }
                if (to_epc) {
                    // EPCM soundness + cross-enclave disjointness.
                    const EpcmEntry &record = mon.epcm().entryFor(hpa);
                    if (record.state == EpcPageState::Free ||
                        record.owner != enclave.id ||
                        record.linAddr != Gva(gva)) {
                        std::ostringstream msg;
                        msg << "enclave " << enclave.id
                            << ": covert EPC mapping at gva "
                            << std::hex << gva;
                        report(violations, msg.str());
                    }
                    auto [it, fresh] = epc_claims.emplace(
                        hpa.pageBase().value, enclave.id);
                    if (!fresh && it->second != enclave.id) {
                        std::ostringstream msg;
                        msg << "enclaves " << it->second << " and "
                            << enclave.id << " share EPC page "
                            << std::hex << hpa.pageBase().value;
                        report(violations, msg.str());
                    }
                } else if (layout.secureRange().contains(hpa)) {
                    std::ostringstream msg;
                    msg << "enclave " << enclave.id << ": gva "
                        << std::hex << gva
                        << " maps monitor-private memory";
                    report(violations, msg.str());
                } else {
                    // Normal memory: only the own marshalling buffer.
                    const bool backing_ok =
                        mbuf_backing.contains(hpa) && in_mbuf;
                    if (!backing_ok) {
                        std::ostringstream msg;
                        msg << "enclave " << enclave.id << ": gva "
                            << std::hex << gva
                            << " shares normal memory outside its "
                               "marshalling buffer";
                        report(violations, msg.str());
                    }
                }
            });
        if (!gpt_contained) {
            std::ostringstream msg;
            msg << "enclave " << enclave.id
                << ": GPT table frames escape the frame area "
                   "(shallow-copy-style state)";
            report(violations, msg.str());
        }

        // Sealed pages (EPCM invariant family extended to non-resident
        // pages): an evicted record must name an ELRANGE page that is
        // genuinely non-resident — no stage-1 mapping and no EPCM entry
        // — and carry a version the counter has actually issued.
        for (const auto &[gva, version] : enclave.evictedPages) {
            if (!enclave.cfg.elrange.contains(Gva(gva))) {
                std::ostringstream msg;
                msg << "enclave " << enclave.id << ": evicted gva "
                    << std::hex << gva << " outside ELRANGE";
                report(violations, msg.str());
            }
            if (gpt.query(gva)) {
                std::ostringstream msg;
                msg << "enclave " << enclave.id << ": evicted gva "
                    << std::hex << gva << " is still GPT-mapped";
                report(violations, msg.str());
            }
            if (version == 0 || version >= enclave.nextSealVersion) {
                std::ostringstream msg;
                msg << "enclave " << enclave.id << ": evicted gva "
                    << std::hex << gva << " has version " << std::dec
                    << version << " outside [1, "
                    << enclave.nextSealVersion << ")";
                report(violations, msg.str());
            }
            const HpaRange epc = layout.epcRange();
            for (u64 page = epc.start.value; page < epc.end.value;
                 page += pageSize) {
                const EpcmEntry &record = mon.epcm().entryFor(Hpa(page));
                if (record.state != EpcPageState::Free &&
                    record.owner == enclave.id &&
                    record.linAddr == Gva(gva)) {
                    std::ostringstream msg;
                    msg << "enclave " << enclave.id << ": evicted gva "
                        << std::hex << gva
                        << " still has a live EPCM entry";
                    report(violations, msg.str());
                }
            }
        }
    });

    // --- Allocator consistency: every table frame reachable from a
    // live root must still be marked allocated.  A reachable-but-free
    // frame means the next alloc() will zero a table under a live
    // mapping (the use-after-free the frameDoubleFree planted bug
    // manufactures).
    {
        const auto audit = [&](const std::string &what, Hpa root) {
            forEachTableFrame(
                mon, root, pagingLevels, [&](Hpa frame) {
                    if (!mon.ptAlloc().allocated(frame)) {
                        std::ostringstream msg;
                        msg << what << ": table frame " << std::hex
                            << frame.value
                            << " is reachable but not allocated";
                        report(violations, msg.str());
                    }
                });
        };
        audit("normal EPT", mon.normalEptRoot());
        mon.forEachEnclave([&](const Enclave &enclave) {
            std::ostringstream who;
            who << "enclave " << enclave.id;
            audit(who.str() + " GPT", enclave.gptRoot);
            audit(who.str() + " EPT", enclave.eptRoot);
        });
    }

    return violations;
}

namespace
{

/** FNV-1a over a few words, one hash per digested entry. */
u64
fnvWords(std::initializer_list<u64> words)
{
    constexpr u64 fnvOffset = 0xcbf29ce484222325ull;
    constexpr u64 fnvPrime = 0x100000001b3ull;
    u64 hash = fnvOffset;
    for (u64 word : words) {
        for (u32 byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (byte * 8)) & 0xff;
            hash *= fnvPrime;
        }
    }
    return hash;
}

} // namespace

u64
epcmDigest(const Epcm &epcm)
{
    // Summing per-entry hashes keeps the digest independent of the
    // visit order, so it is comparable across container reshuffles.
    u64 digest = 0;
    epcm.forEachUsed([&](Hpa page, const EpcmEntry &entry) {
        digest += fnvWords({page.value, u64(entry.state),
                            u64(entry.owner), entry.linAddr.value});
    });
    return digest;
}

u64
tlbDigest(const Tlb &tlb)
{
    u64 digest = 0;
    tlb.forEach([&](DomainId domain, u64 va_page, const TlbEntry &entry) {
        digest += fnvWords({u64(domain), va_page, entry.hpaPage,
                            u64(entry.writable)});
    });
    return digest;
}

std::string
describeMonitorViolations(const std::vector<std::string> &violations)
{
    std::ostringstream out;
    for (const std::string &violation : violations)
        out << "  " << violation << "\n";
    return out.str();
}

} // namespace hev::hv
