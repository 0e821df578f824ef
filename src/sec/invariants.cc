#include "sec/invariants.hh"

#include <map>
#include <set>
#include <sstream>

#include "ccal/specs.hh"

namespace hev::sec
{

using namespace ccal;
using namespace ccal::spec;

namespace
{

/** Append one violation of `family`, streamed from `parts`. */
template <typename... Parts>
void
report(std::vector<Violation> &violations, const char *family,
       Parts &&...parts)
{
    std::ostringstream msg;
    (msg << ... << parts);
    violations.push_back({family, msg.str()});
}

/** A composed (GPT then EPT) terminal translation of one enclave. */
struct ComposedMapping
{
    u64 va = 0;    //!< enclave-linear address
    u64 gpa = 0;   //!< stage-1 output
    u64 hpa = 0;   //!< final physical page
    u64 flags = 0; //!< stage-1 flags
};

/** Collect each enclave's composed page mappings. */
std::map<i64, std::vector<ComposedMapping>>
collectEnclaveMappings(const FlatState &s,
                       std::vector<Violation> &violations)
{
    std::map<i64, std::vector<ComposedMapping>> result;
    for (const auto &[id, enclave] : s.enclaves) {
        if (enclave.state == enclStateDead)
            continue;
        const u64 gpt_root = s.rootOf(enclave.gptHandle);
        if (gpt_root == 0)
            continue;
        std::vector<ComposedMapping> mappings;
        const bool ok = forEachFlatMapping(
            s, gpt_root, [&](u64 va, u64 gpa, u64 flags, int) {
                const QueryResult stage2 =
                    specAsQuery(s, enclave.eptHandle, gpa);
                mappings.push_back(
                    {va, gpa, stage2.isSome ? stage2.physAddr : ~0ull,
                     flags});
            });
        if (!ok)
            report(violations, "page-table containment", "enclave ", id,
                   " page-table walk escapes the frame area "
                   "(shallow-copy-style state)");
        result[id] = std::move(mappings);
    }
    return result;
}

} // namespace

std::vector<Violation>
checkInvariants(const FlatState &s)
{
    std::vector<Violation> violations;

    auto mappings = collectEnclaveMappings(s, violations);

    // --- Enclave invariants: geometry and per-mapping facts.
    for (const auto &[id, enclave] : s.enclaves) {
        if (enclave.state == enclStateDead)
            continue;
        const auto blame = [&](const char *family, auto &&...parts) {
            report(violations, family, "enclave ", id, parts...);
        };
        const u64 mbuf_end =
            enclave.mbufGva + enclave.mbufPages * pageSize;
        if (!(mbuf_end <= enclave.elStart ||
              enclave.mbufGva >= enclave.elEnd))
            blame("enclave invariants",
                  ": ELRANGE overlaps the marshalling buffer range");

        const u64 gpt_root = s.rootOf(enclave.gptHandle);
        const u64 ept_root = s.rootOf(enclave.eptHandle);
        for (const u64 root : {gpt_root, ept_root}) {
            if (root == 0)
                continue;
            (void)forEachFlatMapping(
                s, root, [&](u64 va, u64, u64 flags, int level) {
                    if (level != 1 || (flags & pteFlagHuge))
                        blame("enclave invariants", ": huge mapping at va ",
                              std::hex, va);
                });
        }

        for (const ComposedMapping &m : mappings[id]) {
            const bool in_elrange = enclave.elStart <= m.va &&
                                    m.va + pageSize <= enclave.elEnd;
            const bool in_mbuf =
                enclave.mbufGva <= m.va && m.va + pageSize <= mbuf_end;
            const bool to_epc =
                m.hpa != ~0ull && s.geo.inEpc(m.hpa);

            // va in ELRANGE <=> physical target in the EPC.
            if (in_elrange && !to_epc)
                blame("enclave invariants", ": ELRANGE va ", std::hex, m.va,
                      " does not map into the EPC");
            if (!in_elrange && to_epc)
                blame("enclave invariants", ": non-ELRANGE va ", std::hex,
                      m.va, " maps into the EPC");
            if (!in_elrange && !in_mbuf)
                blame("enclave invariants", ": va ", std::hex, m.va,
                      " mapped outside ELRANGE and mbuf ranges");

            // --- EPCM invariant: EPC mappings are recorded.
            if (to_epc) {
                const u64 index = (m.hpa - s.geo.epcBase) / pageSize;
                const AbsEpcmEntry &entry = s.epcm[index];
                if (entry.state == epcStateFree || entry.owner != id ||
                    entry.linAddr != m.va)
                    blame("EPCM invariant", ": EPC page ", std::hex, m.hpa,
                          " mapped at va ", m.va,
                          " without a matching EPCM entry");
            }

            // --- Marshalling buffer invariant: physical memory
            // reachable by both the enclave and the primary OS (i.e.
            // normal memory) must be marshalling buffer.
            const bool os_reachable =
                m.hpa != ~0ull && m.hpa < s.geo.normalLimit;
            if (os_reachable) {
                const u64 backing_end =
                    enclave.mbufBacking + enclave.mbufPages * pageSize;
                const bool backing_ok =
                    enclave.mbufBacking <= m.hpa &&
                    m.hpa + pageSize <= backing_end;
                if (!in_mbuf || !backing_ok)
                    blame("marshalling buffer invariant", ": va ", std::hex,
                          m.va, " shares physical page ", m.hpa,
                          " with the primary OS outside the "
                          "marshalling buffer");
            }
        }
    }

    // --- EPCM invariant extended to non-resident (sealed) pages: an
    // evicted record names an ELRANGE page that is genuinely gone —
    // no stage-1 mapping, no EPCM entry — whose stage-1 slot lies in
    // the allocated EPC GPA window and whose version the counter has
    // actually issued.
    for (const auto &[id, enclave] : s.enclaves) {
        if (enclave.state == enclStateDead)
            continue;
        for (const auto &[gva, sealed] : enclave.evicted) {
            const auto blame = [&](const char *what) {
                report(violations, "EPCM invariant", "enclave ", id,
                       ": evicted gva ", std::hex, gva, " ", what);
            };
            if (!(enclave.elStart <= gva &&
                  gva + pageSize <= enclave.elEnd))
                blame("outside ELRANGE");
            if (specAsQuery(s, enclave.gptHandle, gva).isSome)
                blame("is still stage-1 mapped");
            if (sealed.gpaSlot < s.geo.epcGpaBase ||
                sealed.gpaSlot >= s.geo.epcGpaBase +
                                      enclave.addedPages * pageSize)
                blame("has a stage-1 slot outside the EPC GPA window");
            if (sealed.version == 0 ||
                sealed.version >= enclave.nextSealVersion)
                blame("has a version the counter never issued");
            if (sealed.kind != epcStateReg && sealed.kind != epcStateTcs)
                blame("has an invalid page kind");
            for (u64 index = 0; index < s.geo.epcCount; ++index) {
                if (s.epcm[index].state != epcStateFree &&
                    s.epcm[index].owner == id &&
                    s.epcm[index].linAddr == gva)
                    blame("still has a live EPCM entry");
            }
        }
    }

    // --- ELRANGE memory isolation: EPC pages never shared between
    // enclaves.
    std::map<u64, i64> epc_owner_by_mapping;
    for (const auto &[id, list] : mappings) {
        for (const ComposedMapping &m : list) {
            if (m.hpa == ~0ull || !s.geo.inEpc(m.hpa))
                continue;
            auto [it, fresh] = epc_owner_by_mapping.emplace(m.hpa, id);
            if (!fresh && it->second != id)
                report(violations, "ELRANGE memory isolation", "enclaves ",
                       it->second, " and ", id, " both map EPC page ",
                       std::hex, m.hpa);
        }
    }

    return violations;
}

std::vector<Violation>
checkTreeRefinement(const ccal::TreeState &t, const FlatState &s,
                    u64 root)
{
    std::vector<Violation> violations;
    if (ccal::refinesFlat(t, s, root))
        return violations;

    // R is broken; localize by probing every flat terminal mapping
    // through the tree.  Cap the detail list — one mismatch is enough
    // for a counterexample, the rest is noise.
    u64 reported = 0;
    forEachFlatMapping(s, root, [&](u64 va, u64 pa, u64 flags, int) {
        if (reported >= 4)
            return;
        const ccal::spec::QueryResult q = ccal::treeQuery(t, va);
        if (!q.isSome || q.physAddr != pa || q.flags != flags) {
            std::ostringstream msg;
            msg << "va " << std::hex << va << ": flat maps to pa " << pa
                << " flags " << flags << " but tree view ";
            if (!q.isSome)
                msg << "has no mapping";
            else
                msg << "maps to pa " << q.physAddr << " flags "
                    << q.flags;
            violations.push_back({"tree refinement R", msg.str()});
            ++reported;
        }
    });
    if (violations.empty())
        violations.push_back(
            {"tree refinement R",
             "tree view does not refine the flat table (extra or "
             "structurally different entries)"});
    return violations;
}

std::string
describeViolations(const std::vector<Violation> &violations)
{
    std::ostringstream out;
    for (const Violation &v : violations)
        out << "[" << v.invariant << "] " << v.detail << "\n";
    return out.str();
}

} // namespace hev::sec
