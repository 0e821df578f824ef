/**
 * @file
 * Status/diagnostic reporting in the gem5 style: panic for internal
 * invariant breakage, fatal for unusable user configuration, warn for
 * non-fatal conditions.
 *
 * Every report is formatted into one buffer and written to stderr as a
 * single line under a mutex, so concurrent campaign workers never
 * interleave bytes.  A thread-local LogLabel prefixes each line with
 * the hypercall the thread is inside and its acting principal, e.g.
 * "panic: [hc=hc_enclave_exit principal=77] ...", instead of each call
 * site re-encoding the ids.
 */

#ifndef HEV_SUPPORT_LOGGING_HH
#define HEV_SUPPORT_LOGGING_HH

#include "support/types.hh"

namespace hev
{

/** Print and abort: an internal bug that should never happen. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print and exit(1): user/configuration error. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Non-fatal suspicious condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Labels this thread's log lines with a hypercall name and principal
 * for its lifetime.  Creating one formats and allocates nothing: the
 * label is rendered only when a line is written.  The innermost live
 * label wins; its destructor restores the enclosing one.
 *
 *     LogLabel label("hc_x", 3);
 *     warn("bad page");   // -> "warn: [hc=hc_x principal=3] bad page"
 */
class LogLabel
{
  public:
    LogLabel(const char *hc_name, u64 hc_principal);
    ~LogLabel();

    LogLabel(const LogLabel &) = delete;
    LogLabel &operator=(const LogLabel &) = delete;

    const char *const name;
    const u64 principal;

  private:
    const LogLabel *const outer;
};

} // namespace hev

#endif // HEV_SUPPORT_LOGGING_HH
