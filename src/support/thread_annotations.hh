/**
 * @file
 * Clang Thread Safety Analysis macros and capability-annotated lock
 * wrappers.
 *
 * The paper's development keeps implementation, spec, and proof in
 * lockstep; the SMP monitor's lock discipline (docs/SMP.md, the
 * "acquire strictly in this order" contract) was until now enforced
 * only dynamically — TSan runs, the deterministic scheduler, the
 * coherence oracle.  This header moves the discipline into the type
 * system: every mutex becomes a *capability*, every guarded field
 * names its guard, and a clang build with -DHEV_ANALYZE=ON turns any
 * access outside the declared discipline into a hard compile error
 * (-Werror=thread-safety).  GCC builds compile the annotations away
 * to nothing.
 *
 * Three layers:
 *   1. raw attribute macros (HEV_GUARDED_BY, HEV_REQUIRES, ...) —
 *      the standard Clang TSA vocabulary under a HEV_ prefix;
 *   2. Mutex / SharedMutex — std::mutex / std::shared_mutex wrappers
 *      carrying the capability attribute so the analysis can track
 *      them (the std types are opaque to TSA);
 *   3. MutexGuard / SharedGuard / ExclusiveGuard — scoped-capability
 *      RAII guards TSA understands (std::lock_guard is likewise
 *      opaque to it).
 *
 * The lock *order* is not declared here: HEV_SMP_LOCKS
 * (smp/lock_witness.hh) states it once, each SMP lock carries its rank
 * in its type, and tools/hev_lint.py and the runtime witness check
 * acquisitions against that list (docs/ANALYSIS.md).
 */

#ifndef HEV_SUPPORT_THREAD_ANNOTATIONS_HH
#define HEV_SUPPORT_THREAD_ANNOTATIONS_HH

#include <mutex>
#include <shared_mutex>

// The attribute spelling is clang-only; GCC defines __GNUC__ too, so
// test for the capability of interest, not the compiler name.
#if defined(__clang__) && !defined(SWIG)
#define HEV_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HEV_THREAD_ANNOTATION(x)
#endif

/** Class attribute: instances are lockable capabilities. */
#define HEV_CAPABILITY(x) HEV_THREAD_ANNOTATION(capability(x))

/** Class attribute: RAII type acquiring in ctor, releasing in dtor. */
#define HEV_SCOPED_CAPABILITY HEV_THREAD_ANNOTATION(scoped_lockable)

/** Field attribute: access requires holding the named capability. */
#define HEV_GUARDED_BY(x) HEV_THREAD_ANNOTATION(guarded_by(x))

/** Pointer field: the pointee is guarded by the named capability. */
#define HEV_PT_GUARDED_BY(x) HEV_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function: caller must hold the capabilities exclusively. */
#define HEV_REQUIRES(...) \
    HEV_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function: caller must hold the capabilities at least shared. */
#define HEV_REQUIRES_SHARED(...) \
    HEV_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/** Function: acquires the capabilities exclusively; no return until. */
#define HEV_ACQUIRE(...) \
    HEV_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function: acquires the capabilities shared. */
#define HEV_ACQUIRE_SHARED(...) \
    HEV_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/** Function: releases the capabilities (exclusive). */
#define HEV_RELEASE(...) \
    HEV_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function: releases the capabilities (shared). */
#define HEV_RELEASE_SHARED(...) \
    HEV_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/** Function: releases held capabilities whatever their mode. */
#define HEV_RELEASE_GENERIC(...) \
    HEV_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/** Function: returns true iff the capability was acquired. */
#define HEV_TRY_ACQUIRE(...) \
    HEV_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function: returns true iff the capability was acquired shared. */
#define HEV_TRY_ACQUIRE_SHARED(...) \
    HEV_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

/** Function: caller must NOT hold the capabilities (deadlock guard). */
#define HEV_EXCLUDES(...) \
    HEV_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function: asserts (at runtime) that the capability is held. */
#define HEV_ASSERT_CAPABILITY(x) \
    HEV_THREAD_ANNOTATION(assert_capability(x))

/** Function: returns a reference to the named capability. */
#define HEV_RETURN_CAPABILITY(x) HEV_THREAD_ANNOTATION(lock_returned(x))

/**
 * Function: body is exempt from analysis.  Used for trusted
 * primitives whose contract TSA cannot see through — try-lock spin
 * loops that service IPIs, quiescent-only readers — never to paper
 * over an ordinary violation.
 */
#define HEV_NO_THREAD_SAFETY_ANALYSIS \
    HEV_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace hev
{

/**
 * A std::mutex carrying the TSA capability attribute.  Drop-in for
 * the production code: same lock/unlock/try_lock surface, zero size
 * or runtime overhead over the wrapped mutex.
 */
class HEV_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() HEV_ACQUIRE() { mu.lock(); }
    void unlock() HEV_RELEASE() { mu.unlock(); }
    bool try_lock() HEV_TRY_ACQUIRE(true) { return mu.try_lock(); }

    /** The wrapped mutex, for APIs needing the std type. */
    std::mutex &native() { return mu; }

  private:
    std::mutex mu;
};

/** A std::shared_mutex carrying the TSA capability attribute. */
class HEV_CAPABILITY("shared_mutex") SharedMutex
{
  public:
    SharedMutex() = default;
    SharedMutex(const SharedMutex &) = delete;
    SharedMutex &operator=(const SharedMutex &) = delete;

    void lock() HEV_ACQUIRE() { mu.lock(); }
    void unlock() HEV_RELEASE() { mu.unlock(); }
    bool try_lock() HEV_TRY_ACQUIRE(true) { return mu.try_lock(); }

    void lock_shared() HEV_ACQUIRE_SHARED() { mu.lock_shared(); }
    void unlock_shared() HEV_RELEASE_SHARED() { mu.unlock_shared(); }
    bool
    try_lock_shared() HEV_TRY_ACQUIRE_SHARED(true)
    {
        return mu.try_lock_shared();
    }

    std::shared_mutex &native() { return mu; }

  private:
    std::shared_mutex mu;
};

/** std::lock_guard<Mutex>, visible to the analysis. */
class HEV_SCOPED_CAPABILITY MutexGuard
{
  public:
    explicit MutexGuard(Mutex &m) HEV_ACQUIRE(m) : mu(m) { mu.lock(); }
    ~MutexGuard() HEV_RELEASE() { mu.unlock(); }

    MutexGuard(const MutexGuard &) = delete;
    MutexGuard &operator=(const MutexGuard &) = delete;

  private:
    Mutex &mu;
};

/** Exclusive std::unique_lock<SharedMutex> analogue (no deferral). */
class HEV_SCOPED_CAPABILITY ExclusiveGuard
{
  public:
    explicit ExclusiveGuard(SharedMutex &m) HEV_ACQUIRE(m) : mu(m)
    {
        mu.lock();
    }
    ~ExclusiveGuard() HEV_RELEASE() { mu.unlock(); }

    ExclusiveGuard(const ExclusiveGuard &) = delete;
    ExclusiveGuard &operator=(const ExclusiveGuard &) = delete;

  private:
    SharedMutex &mu;
};

/** std::shared_lock<SharedMutex> analogue (no deferral). */
class HEV_SCOPED_CAPABILITY SharedGuard
{
  public:
    explicit SharedGuard(SharedMutex &m) HEV_ACQUIRE_SHARED(m) : mu(m)
    {
        mu.lock_shared();
    }
    // TSA models a scoped release as generic: the guard knows which
    // mode it holds, the analysis only that it holds *something*.
    ~SharedGuard() HEV_RELEASE_GENERIC() { mu.unlock_shared(); }

    SharedGuard(const SharedGuard &) = delete;
    SharedGuard &operator=(const SharedGuard &) = delete;

  private:
    SharedMutex &mu;
};

} // namespace hev

#endif // HEV_SUPPORT_THREAD_ANNOTATIONS_HH
