#include "hv/hv_invariants.hh"

#include <map>
#include <sstream>

namespace hev::hv
{

namespace
{

/**
 * Visit terminal mappings inside the monitor's PT area; a link out of
 * the area is not followed, and the walk goes on past it.
 *
 * @return false iff the walk hit an escaped table frame.
 */
template <typename Leaf>
bool
walkContained(const Monitor &mon, Hpa root, Leaf &&leaf)
{
    struct : TableVisitor
    {
        Leaf &leaf;
        bool contained = true;
        void
        entry(u64 va, u64 raw, int level, bool is_leaf)
        {
            if (is_leaf)
                leaf(va, Pte(raw), level);
        }
        void escape(u64, int) { contained = false; }
    } visitor{{}, leaf};
    walkTables(PhysTablePages{mon.mem(), &mon.ptAlloc()}, root.value,
               pagingLevels, visitor);
    return visitor.contained;
}

/** Append one violation, streamed together from `parts`. */
template <typename... Parts>
void
report(std::vector<std::string> &violations, Parts &&...parts)
{
    std::ostringstream msg;
    (msg << ... << parts);
    violations.push_back(msg.str());
}

/**
 * Visit every table frame reachable from a root (the root itself and
 * all intermediate tables).  Out-of-area frames are not followed —
 * escapes are walkContained's family to report.
 */
template <typename Visit>
void
forEachTableFrame(const Monitor &mon, Hpa root, Visit &&visit)
{
    struct : TableVisitor
    {
        static constexpr bool readsLeafTables() { return false; }
        Visit &visit;
        void reach(u64 table, int) { visit(Hpa(table)); }
    } frames{{}, visit};
    walkTables(PhysTablePages{mon.mem(), &mon.ptAlloc()}, root.value,
               pagingLevels, frames);
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
            mon, mon.normalEptRoot(),
            [&](u64 gpa, Pte entry, int level) {
                const u64 span = 1ull << (pageShift + 9 * (level - 1));
                const HpaRange target{Hpa(entry.addr()),
                                      Hpa(entry.addr() + span)};
                if (target.overlaps(layout.secureRange()))
                    report(violations, "normal EPT maps gpa ", std::hex,
                           gpa, " into the secure region");
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
        const auto blame = [&](auto &&...parts) {
            report(violations, "enclave ", enclave.id, parts...);
        };

        if (mbuf_range.overlaps(enclave.cfg.elrange))
            blame(": ELRANGE overlaps its marshalling buffer range");

        // EPT shape: no huge pages, targets restricted.
        const bool ept_contained = walkContained(
            mon, enclave.eptRoot, [&](u64 gpa, Pte entry, int level) {
                if (level != 1 || entry.huge())
                    blame(": huge EPT mapping at gpa ", std::hex, gpa);
            });
        if (!ept_contained)
            blame(": EPT table frames escape the frame area");

        // GPT shape + composed translation facts.
        const bool gpt_contained = walkContained(
            mon, enclave.gptRoot, [&](u64 gva, Pte entry, int level) {
                if (level != 1 || entry.huge())
                    blame(": huge GPT mapping at gva ", std::hex, gva);
                const bool in_elrange =
                    enclave.cfg.elrange.contains(Gva(gva));
                const bool in_mbuf =
                    mbuf_range.contains(Gva(gva));
                if (!in_elrange && !in_mbuf) {
                    blame(": gva ", std::hex, gva,
                          " mapped outside ELRANGE and mbuf");
                    return;
                }

                auto stage2 = ept.query(entry.addr());
                if (!stage2) {
                    blame(": gva ", std::hex, gva,
                          " has no second-stage mapping");
                    return;
                }
                const Hpa hpa(stage2->physAddr);
                const bool to_epc = layout.epcRange().contains(hpa);

                if (in_elrange != to_epc)
                    blame(": gva ", std::hex, gva,
                          in_elrange ? " is ELRANGE but not EPC-backed"
                                     : " is EPC-backed outside ELRANGE");
                if (to_epc) {
                    // EPCM soundness + cross-enclave disjointness.
                    const EpcmEntry &record = mon.epcm().entryFor(hpa);
                    if (record.state == EpcPageState::Free ||
                        record.owner != enclave.id ||
                        record.linAddr != Gva(gva))
                        blame(": covert EPC mapping at gva ", std::hex, gva);
                    auto [it, fresh] = epc_claims.emplace(
                        hpa.pageBase().value, enclave.id);
                    if (!fresh && it->second != enclave.id)
                        report(violations, "enclaves ", it->second, " and ",
                               enclave.id, " share EPC page ", std::hex,
                               hpa.pageBase().value);
                } else if (layout.secureRange().contains(hpa)) {
                    blame(": gva ", std::hex, gva,
                          " maps monitor-private memory");
                } else if (!mbuf_backing.contains(hpa) || !in_mbuf) {
                    // Normal memory: only the own marshalling buffer.
                    blame(": gva ", std::hex, gva,
                          " shares normal memory outside its "
                          "marshalling buffer");
                }
            });
        if (!gpt_contained)
            blame(": GPT table frames escape the frame area "
                  "(shallow-copy-style state)");

        // Sealed pages (EPCM invariant family extended to non-resident
        // pages): an evicted record must name an ELRANGE page that is
        // genuinely non-resident — no stage-1 mapping and no EPCM entry
        // — and carry a version the counter has actually issued.
        for (const auto &[gva, version] : enclave.evictedPages) {
            if (!enclave.cfg.elrange.contains(Gva(gva)))
                blame(": evicted gva ", std::hex, gva, " outside ELRANGE");
            if (gpt.query(gva))
                blame(": evicted gva ", std::hex, gva,
                      " is still GPT-mapped");
            if (version == 0 || version >= enclave.nextSealVersion)
                blame(": evicted gva ", std::hex, gva, " has version ",
                      std::dec, version, " outside [1, ",
                      enclave.nextSealVersion, ")");
            const HpaRange epc = layout.epcRange();
            for (u64 page = epc.start.value; page < epc.end.value;
                 page += pageSize) {
                const EpcmEntry &record = mon.epcm().entryFor(Hpa(page));
                if (record.state != EpcPageState::Free &&
                    record.owner == enclave.id &&
                    record.linAddr == Gva(gva))
                    blame(": evicted gva ", std::hex, gva,
                          " still has a live EPCM entry");
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
            forEachTableFrame(mon, root, [&](Hpa frame) {
                if (!mon.ptAlloc().allocated(frame))
                    report(violations, what, ": table frame ", std::hex,
                           frame.value, " is reachable but not allocated");
            });
        };
        audit("normal EPT", mon.normalEptRoot());
        mon.forEachEnclave([&](const Enclave &enclave) {
            const std::string who = "enclave " + std::to_string(enclave.id);
            audit(who + " GPT", enclave.gptRoot);
            audit(who + " EPT", enclave.eptRoot);
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
