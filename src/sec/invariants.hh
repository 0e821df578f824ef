/**
 * @file
 * The page-table invariants of paper Sec. 5.2, as executable predicates
 * over the flat abstract state.
 *
 * Invariant families ("stated in Coq in 106 lines of definitions"):
 *  - ELRANGE memory isolation: ELRANGE VAs of two different enclaves
 *    never translate to the same physical address.
 *  - Marshalling buffer invariant: any physical region reachable both
 *    by an enclave and by the primary OS is marshalling buffer, at
 *    marshalling-buffer VAs.
 *  - EPCM invariant: every enclave mapping into the EPC has a matching
 *    EPCM entry (owner and linear address agree) — no covert mappings.
 *  - Enclave invariants: a VA maps into the EPC iff it is in the
 *    ELRANGE; ELRANGE and mbuf range are disjoint; no huge pages in
 *    enclave page tables; and (the premise of everything above) all
 *    page-table frames stay inside the monitor's frame area.
 */

#ifndef HEV_SEC_INVARIANTS_HH
#define HEV_SEC_INVARIANTS_HH

#include <string>
#include <vector>

#include "ccal/flat_state.hh"
#include "ccal/tree_state.hh"

namespace hev::sec
{

using ccal::FlatState;

/** One detected invariant violation. */
struct Violation
{
    std::string invariant;  //!< which family
    std::string detail;     //!< what exactly broke
};

/**
 * Enumerate the terminal mappings of the table rooted at `root`,
 * calling visit(va, pa, flags, level).
 *
 * @return false if the walk encountered an intermediate entry pointing
 *         outside the monitor's frame area (a shallow-copy-style state
 *         that cannot be enumerated safely).  The walk stops there:
 *         no mapping after that entry is visited.
 */
template <typename Visit>
bool
forEachFlatMapping(const FlatState &s, u64 root, Visit &&visit)
{
    struct : TableVisitor
    {
        Visit &visit;
        void
        entry(u64 va, u64 raw, int level, bool leaf)
        {
            if (leaf)
                visit(va, ccal::spec::specPteAddr(raw),
                      ccal::spec::specPteFlags(raw), level);
        }
        bool escape(u64, int) { return false; }
    } mappings{{}, visit};
    return walkTables(ccal::FlatTablePages{s}, root, pagingLevels, mappings);
}

/** Check every invariant family; empty result = all hold. */
std::vector<Violation> checkInvariants(const FlatState &s);

/**
 * Check the refinement relation R between a tree view and the flat
 * table rooted at `root`: empty result iff refinesFlat holds.  On a
 * mismatch, the violations localize it by comparing the flat table's
 * terminal mappings against treeQuery (the fuzzer uses this to turn
 * "refinement broke" into an addressable counterexample).
 */
std::vector<Violation> checkTreeRefinement(const ccal::TreeState &t,
                                           const FlatState &s, u64 root);

/** Render violations for a test failure message. */
std::string describeViolations(const std::vector<Violation> &violations);

} // namespace hev::sec

#endif // HEV_SEC_INVARIANTS_HH
