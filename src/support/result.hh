/**
 * @file
 * Lightweight expected/error types used across the monitor.
 *
 * The RustMonitor returns Result<T, HvError> everywhere in the original
 * Rust code; we mirror that with a small Expected wrapper so hypercall
 * failures (the security-relevant control flow) stay explicit instead of
 * being thrown.
 */

#ifndef HEV_SUPPORT_RESULT_HH
#define HEV_SUPPORT_RESULT_HH

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace hev
{

/**
 * Error codes mirroring the HyperEnclave hypercall error surface,
 * declared once: X(Enumerator); hvErrorName is the enumerator's
 * spelling.  None must stay first (value 0).
 */
#define HEV_HV_ERRORS(X) \
    X(None) \
    X(OutOfMemory)        /* frame allocator exhausted */ \
    X(InvalidParam)       /* malformed hypercall argument */ \
    X(AlreadyMapped)      /* mapping exists where a fresh one was required */ \
    X(NotMapped)          /* translation miss */ \
    X(NotAligned)         /* address not page aligned */ \
    X(PermissionDenied)   /* access violates the installed permissions */ \
    X(EpcmConflict)       /* EPC page already owned / wrong state */ \
    X(OutOfEpc)           /* no free EPC page */ \
    X(BadEnclaveState)    /* lifecycle violation (e.g. add_page after init) */ \
    X(NoSuchEnclave)      /* unknown enclave id */ \
    X(IsolationViolation) /* request would break spatial isolation */ \
    X(Unsupported)        /* operation outside the modeled subset */ \
    X(SealAuthFailed)     /* sealed-blob MAC / ownership check failed */ \
    X(SealRollback)       /* sealed-blob version is stale (anti-rollback) */ \
    X(ShootdownInFlight)  /* page is inside an in-flight batched shootdown */ \
    X(ImageAuthFailed)    /* enclave-image MAC / digest check failed */ \
    X(ImageRollback)      /* enclave-image version vector is stale */ \
    X(ImageTruncated)     /* enclave-image page vector is short / oversized */

enum class HvError
{
#define HEV_HV_ERROR_ENUMERATOR(name) name,
    HEV_HV_ERRORS(HEV_HV_ERROR_ENUMERATOR)
#undef HEV_HV_ERROR_ENUMERATOR
};

/** Human-readable name for an HvError. */
const char *hvErrorName(HvError e);

/**
 * Minimal expected<T> with an HvError error channel.
 *
 * @tparam T payload type; use Unit for fallible procedures.
 */
template <typename T>
class Expected
{
  public:
    Expected(T value) : repr(std::move(value)) {}
    Expected(HvError error) : repr(error)
    {
        assert(error != HvError::None && "HvError::None is not an error");
    }

    bool ok() const { return std::holds_alternative<T>(repr); }
    explicit operator bool() const { return ok(); }

    const T &
    value() const
    {
        assert(ok() && "value() on an error Expected");
        return std::get<T>(repr);
    }

    T &
    value()
    {
        assert(ok() && "value() on an error Expected");
        return std::get<T>(repr);
    }

    HvError
    error() const
    {
        return ok() ? HvError::None : std::get<HvError>(repr);
    }

    const T &operator*() const { return value(); }
    T &operator*() { return value(); }
    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

  private:
    std::variant<T, HvError> repr;
};

/** Empty payload for Expected<Unit>. */
struct Unit
{
    constexpr bool operator==(const Unit &) const = default;
};

using Status = Expected<Unit>;

/** Success value for Status-returning functions. */
inline Status
okStatus()
{
    return Status(Unit{});
}

} // namespace hev

#endif // HEV_SUPPORT_RESULT_HH
