#include "support/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/thread_annotations.hh"

namespace hev
{

namespace
{
/** Serializes whole-line writes to stderr. */
Mutex &
logMutex()
{
    static Mutex mu;
    return mu;
}

/** This thread's innermost live label (nullptr outside any). */
thread_local const LogLabel *innermostLabel = nullptr;

/** vsnprintf into a std::string (two-pass, handles any length). */
std::string
vformat(const char *fmt, va_list ap)
{
    va_list probe;
    va_copy(probe, ap);
    const int needed = std::vsnprintf(nullptr, 0, fmt, probe);
    va_end(probe);
    if (needed <= 0)
        return "";
    std::string text(size_t(needed), '\0');
    std::vsnprintf(text.data(), text.size() + 1, fmt, ap);
    return text;
}

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    // Build the complete line first, then write it with one fwrite
    // under the mutex: concurrent reporters cannot interleave bytes.
    std::string line;
    line += tag;
    line += ": ";
    if (const LogLabel *label = innermostLabel) {
        line += "[hc=";
        line += label->name;
        line += " principal=";
        line += std::to_string(label->principal);
        line += "] ";
    }
    line += vformat(fmt, ap);
    line += '\n';
    MutexGuard lock(logMutex());
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}
} // namespace

LogLabel::LogLabel(const char *hc_name, u64 hc_principal)
    : name(hc_name), principal(hc_principal), outer(innermostLabel)
{
    innermostLabel = this;
}

LogLabel::~LogLabel()
{
    innermostLabel = outer;
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

} // namespace hev
