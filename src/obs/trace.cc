#include "obs/trace.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "obs/ring.hh"
#include "support/thread_annotations.hh"

namespace hev::obs
{

namespace
{

/** One row of HEV_OBS_EVENTS, indexed by EventType. */
struct EventTypeInfo
{
    const char *name;
    const char *category;
    char phase;
};

constexpr EventTypeInfo eventTypeInfo[eventTypeCount] = {
#define HEV_OBS_EVENT_INFO(type, name, category, phase) \
    {name, category, phase},
    HEV_OBS_EVENTS(HEV_OBS_EVENT_INFO)
#undef HEV_OBS_EVENT_INFO
};

} // namespace

const char *
eventTypeName(EventType type)
{
    return u32(type) < eventTypeCount ? eventTypeInfo[u32(type)].name
                                      : "unknown";
}

const char *
eventTypeCategory(EventType type)
{
    return u32(type) < eventTypeCount ? eventTypeInfo[u32(type)].category
                                      : "misc";
}

u64
traceNowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   clock::now() - epoch)
                   .count());
}

namespace
{

using Rings = detail::PerThreadRing<TraceEvent, traceRingCapacity,
                                    ThreadTrace>;

struct Tracer
{
    Mutex mu;
    std::unordered_set<std::string> names HEV_GUARDED_BY(mu);
    /** Events ever recorded per type, immune to ring wraparound.
     *  Lock-free by design: bumped without taking mu. */
    std::array<std::atomic<u64>, eventTypeCount> totals{};
};

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

/** Stable storage for an event name (content-interned). */
const char *
internName(const char *name)
{
    Tracer &tr = tracer();
    MutexGuard lock(tr.mu);
    return tr.names.insert(name).first->c_str();
}

} // namespace

namespace detail
{

void
traceEventSlow(EventType type, const char *name, u64 arg0, u64 arg1,
               u64 ts, u64 dur)
{
    TraceEvent event;
    event.ts = dur || ts ? ts : traceNowNs();
    event.dur = dur;
    event.name = internName(name);
    event.arg0 = arg0;
    event.arg1 = arg1;
    event.type = type;
    Rings::push(event);
    tracer().totals[u32(type)].fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

std::vector<ThreadTrace>
collectTrace()
{
    return Rings::collect();
}

void
clearTrace()
{
    Rings::clear();
    for (auto &total : tracer().totals)
        total.store(0, std::memory_order_relaxed);
}

std::map<std::string, u64>
countEventsByType(const std::vector<ThreadTrace> &trace)
{
    std::map<std::string, u64> counts;
    for (const ThreadTrace &thread : trace) {
        for (const TraceEvent &event : thread.events)
            ++counts[eventTypeName(event.type)];
    }
    return counts;
}

std::map<std::string, u64>
traceEventTotals()
{
    Tracer &tr = tracer();
    std::map<std::string, u64> counts;
    for (u32 i = 0; i < eventTypeCount; ++i) {
        const u64 n = tr.totals[i].load(std::memory_order_relaxed);
        if (n)
            counts[eventTypeName(EventType(i))] = n;
    }
    return counts;
}

namespace
{

/** Chrome phase letter of an event type. */
char
phaseOf(EventType type)
{
    return u32(type) < eventTypeCount ? eventTypeInfo[u32(type)].phase
                                      : 'i';
}

void
renderEvent(std::ostringstream &out, const TraceEvent &event, u32 tid)
{
    const char phase = phaseOf(event.type);
    out << "    {\"name\": \"" << (event.name ? event.name : "?")
        << "\", \"cat\": \"" << eventTypeCategory(event.type)
        << "\", \"ph\": \"" << phase << "\", \"ts\": "
        << event.ts / 1000 << "." << (event.ts % 1000 < 100 ? "0" : "")
        << (event.ts % 1000 < 10 ? "0" : "") << event.ts % 1000
        << ", \"pid\": 1, \"tid\": " << tid;
    if (phase == 'X')
        out << ", \"dur\": " << event.dur / 1000 << "."
            << (event.dur % 1000 < 100 ? "0" : "")
            << (event.dur % 1000 < 10 ? "0" : "") << event.dur % 1000;
    if (phase == 'i')
        out << ", \"s\": \"t\"";
    // Flow events bind by id; "bp": "e" attaches the finish to the
    // enclosing slice rather than the next one.
    if (phase == 's' || phase == 't' || phase == 'f')
        out << ", \"id\": " << event.arg0;
    if (phase == 'f')
        out << ", \"bp\": \"e\"";
    out << ", \"args\": {\"type\": \"" << eventTypeName(event.type)
        << "\", \"arg0\": " << event.arg0 << ", \"arg1\": " << event.arg1
        << "}}";
}

} // namespace

std::string
renderChromeTrace(const std::vector<ThreadTrace> &trace)
{
    std::ostringstream out;
    out << "{\n  \"schemaVersion\": " << traceSchemaVersion
        << ",\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
    bool first = true;
    for (const ThreadTrace &thread : trace) {
        // Emission order is monotonic except for TimerScope events,
        // which carry their *start* time but are recorded at scope
        // end; a stable sort restores per-thread ts monotonicity.
        std::vector<const TraceEvent *> ordered;
        ordered.reserve(thread.events.size());
        for (const TraceEvent &event : thread.events)
            ordered.push_back(&event);
        std::stable_sort(ordered.begin(), ordered.end(),
                         [](const TraceEvent *a, const TraceEvent *b) {
                             return a->ts < b->ts;
                         });
        for (const TraceEvent *event : ordered) {
            out << (first ? "" : ",") << "\n";
            renderEvent(out, *event, thread.tid);
            first = false;
        }
    }
    out << (first ? "" : "\n  ") << "]\n}\n";
    return out.str();
}

bool
writeChromeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << renderChromeTrace(collectTrace());
    return bool(out);
}

} // namespace hev::obs
