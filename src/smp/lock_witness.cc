#include "smp/lock_witness.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace hev::smp
{

namespace
{

/** This thread's held ranks, in acquisition order. */
std::vector<LockRank> &
heldStack()
{
    thread_local std::vector<LockRank> held;
    return held;
}

} // namespace

const char *
lockRankName(LockRank rank)
{
    static constexpr const char *names[] = {
#define HEV_LOCK_RANK_NAME(rank, member) #member,
        HEV_SMP_LOCKS(HEV_LOCK_RANK_NAME)
#undef HEV_LOCK_RANK_NAME
    };
    const u32 index = u32(rank);
    return index < lockRankCount ? names[index] : "unknown";
}

void
LockWitness::acquire(LockRank rank)
{
    std::vector<LockRank> &held = heldStack();
    // Strictly increasing: equal ranks would mean two locks of the
    // same tier nested, which the hierarchy also forbids (at most one
    // per-enclave mutex, one mailbox at a time).
    for (const LockRank prior : held) {
        if (u32(prior) >= u32(rank)) {
            std::string order;
            for (u32 r = 0; r < lockRankCount; ++r)
                order.append(r ? " -> " : "")
                    .append(lockRankName(LockRank(r)));
            panic("lock-order violation: acquiring %s while holding %s; "
                  "the hierarchy is %s (HEV_SMP_LOCKS)",
                  lockRankName(rank), lockRankName(prior), order.c_str());
        }
    }
    held.push_back(rank);
}

void
LockWitness::release(LockRank rank)
{
    std::vector<LockRank> &held = heldStack();
    // Releases may come in any order; drop the newest match.
    const auto it = std::find(held.rbegin(), held.rend(), rank);
    if (it == held.rend())
        panic("lock-order witness: releasing %s which this thread "
              "does not hold",
              lockRankName(rank));
    held.erase(std::next(it).base());
}

WitnessSuspend::WitnessSuspend()
{
    saved.swap(heldStack());
}

WitnessSuspend::~WitnessSuspend()
{
    std::vector<LockRank> &held = heldStack();
    if (!held.empty())
        panic("lock-order witness: borrowed context resumed with %zu "
              "lock(s) still held (first: %s) — the IPI driver must "
              "unwind everything it acquires",
              held.size(), lockRankName(held.front()));
    held.swap(saved);
}

u32
LockWitness::heldCount()
{
    return u32(heldStack().size());
}

void
LockWitness::reset()
{
    heldStack().clear();
}

} // namespace hev::smp
