/**
 * @file
 * The SMP monitor's lock order, and a debug-only runtime witness of it.
 *
 * HEV_SMP_LOCKS is the one place the order is written down.  It
 * generates LockRank (ordinals in list order) and lockRankName; each
 * lock member carries its rank in its type (Ranked<LockRank::X, M>),
 * and the guards read the rank from there, so a guard cannot pair a
 * lock with the wrong rank.  The order is then enforced two ways:
 *   - lint time: tools/hev_lint.py reads the same list and checks
 *     every guard construction in the src/smp .cc files against it;
 *   - run time (this file): a thread-local stack of held-lock ranks
 *     panics the instant any thread acquires against the order, even
 *     on interleavings the static scan cannot see through (function
 *     pointers, virtuals, data-dependent lock choice).
 * Which fields each lock guards is checked separately by Clang's
 * thread-safety analysis under -DHEV_ANALYZE=ON
 * (support/thread_annotations.hh).
 *
 * The witness *machinery* is always compiled (tests drive it
 * directly); the *hooks* in SmpMonitor's lock guards are compiled out
 * unless the build defines HEV_LOCK_WITNESS (CMake
 * -DHEV_LOCK_WITNESS=ON), so production builds pay nothing.
 */

#ifndef HEV_SMP_LOCK_WITNESS_HH
#define HEV_SMP_LOCK_WITNESS_HH

#include <vector>

#include "support/types.hh"

namespace hev::smp
{

/**
 * Every SMP lock, in acquisition order: X(Rank, memberName).  A thread
 * may only acquire a lock listed after every lock it already holds;
 * releases come in any order.  memberName is the lock's member in
 * SmpMonitor / SmpVcpu (enclaveLock names the per-enclave mutexes,
 * reached through SmpMonitor::enclaveLock).
 */
#define HEV_SMP_LOCKS(X) \
    X(Structural, structuralLock) \
    X(EnclaveTable, enclaveLocksTableLock) \
    X(Enclave, enclaveLock) \
    X(OsPt, osPtLock) \
    X(Shootdown, shootdownLock) \
    X(Mailbox, mailboxLock) \
    X(InFlightPages, inFlightPagesLock)

/** Rank of each lock: its position in HEV_SMP_LOCKS. */
enum class LockRank : u32
{
#define HEV_LOCK_RANK_ENUMERATOR(rank, member) rank,
    HEV_SMP_LOCKS(HEV_LOCK_RANK_ENUMERATOR)
#undef HEV_LOCK_RANK_ENUMERATOR
};

#define HEV_LOCK_RANK_COUNT(rank, member) +1
constexpr u32 lockRankCount = 0 HEV_SMP_LOCKS(HEV_LOCK_RANK_COUNT);
#undef HEV_LOCK_RANK_COUNT

/**
 * A lock of type M whose rank is part of its type.  It inherits M's
 * capability attribute and lock surface unchanged; the guards read
 * Ranked::rank.
 */
template <LockRank R, class M>
class Ranked : public M
{
  public:
    static constexpr LockRank rank = R;
};

/** The lock's member name (HEV_SMP_LOCKS), for violation reports. */
const char *lockRankName(LockRank rank);

/**
 * The per-thread held-lock stack.  acquire() panics — naming both
 * locks — when the new rank is not strictly greater than every rank
 * already held by this thread.
 */
class LockWitness
{
  public:
    /** Record an acquisition; panics on a hierarchy violation. */
    static void acquire(LockRank rank);

    /** Record a release (any order; removes the newest match). */
    static void release(LockRank rank);

    /** Locks currently held by this thread. */
    static u32 heldCount();

    /** Drop this thread's records (test isolation). */
    static void reset();
};

/**
 * Detach this thread's held-rank stack for a scope that executes *on
 * behalf of other vCPUs*: the shootdown ack wait hands the thread to
 * the IpiDriver, whose callees (the deterministic scheduler servicing
 * a target, a test probing a hypercall) form their own acquisition
 * chains and must not inherit the initiator's held shootdownLock.
 * The dtor panics if the borrowed context still holds locks — the
 * driver must unwind everything it acquired.
 */
class WitnessSuspend
{
  public:
    WitnessSuspend();
    ~WitnessSuspend();

    WitnessSuspend(const WitnessSuspend &) = delete;
    WitnessSuspend &operator=(const WitnessSuspend &) = delete;

  private:
    std::vector<LockRank> saved;
};

/** RAII wrapper pairing acquire/release around a guard's lifetime. */
class WitnessScope
{
  public:
    explicit WitnessScope(LockRank r) : rank(r)
    {
        LockWitness::acquire(rank);
    }
    ~WitnessScope() { LockWitness::release(rank); }

    WitnessScope(const WitnessScope &) = delete;
    WitnessScope &operator=(const WitnessScope &) = delete;

  private:
    LockRank rank;
};

} // namespace hev::smp

// The hooks the SMP monitor's guards call.  Compiled out unless the
// build opts in: the witness then costs nothing, and TSan/scheduler
// runs remain the dynamic backstop.
#if HEV_LOCK_WITNESS
#define HEV_WITNESS_ACQUIRE(rank) ::hev::smp::LockWitness::acquire(rank)
#define HEV_WITNESS_RELEASE(rank) ::hev::smp::LockWitness::release(rank)
#define HEV_WITNESS_SUSPEND(name) ::hev::smp::WitnessSuspend name
#else
#define HEV_WITNESS_ACQUIRE(rank) ((void)0)
#define HEV_WITNESS_RELEASE(rank) ((void)0)
#define HEV_WITNESS_SUSPEND(name) ((void)0)
#endif

#endif // HEV_SMP_LOCK_WITNESS_HH
