/**
 * @file
 * Structured event tracer: a fixed-capacity per-thread ring buffer of
 * typed events, exportable as Chrome trace_event JSON for
 * chrome://tracing (or Perfetto).
 *
 * Writers append to their own ring with plain stores plus one release
 * store of the head index; no locks, no allocation, wraparound
 * overwrites the oldest events (the drop count is kept).  Collection
 * walks every ring under the tracer mutex and is exact once the
 * traced threads are quiescent — the intended use: export after a
 * run.  Rings of exited threads are retired into the collector, so a
 * campaign's worker events survive the join.
 *
 * Event names are interned by content into tracer-owned storage, so
 * call sites may pass transient strings (scenario names, MIR function
 * names) without lifetime concerns.  Interning happens only on the
 * traceEnabled() path.
 */

#ifndef HEV_OBS_TRACE_HH
#define HEV_OBS_TRACE_HH

#include <map>
#include <string>
#include <vector>

#include "obs/obs.hh"

namespace hev::obs
{

/** Version of the exported trace-event schema (2: SMP flow events). */
constexpr int traceSchemaVersion = 2;

/** Events per thread ring; wraparound drops the oldest. */
constexpr u32 traceRingCapacity = 16384;

/**
 * The typed events the subsystems emit, declared once:
 * X(Enumerator, "snake_name", "category", phase).  The category is the
 * Chrome trace_event "cat"; the phase is its "ph" letter: 'B'/'E' for
 * duration begin/end, 'i' for instants, 'X' for complete events and
 * 's'/'t'/'f' for the IPI flow arrows.
 */
#define HEV_OBS_EVENTS(X) \
    X(HypercallEnter, "hypercall_enter", "hv", 'B') /* arg0 = principal */ \
    X(HypercallExit, "hypercall_exit", "hv", 'E') /* arg0 = principal, arg1 = rc */ \
    X(MirCall, "mir_call", "mir", 'B') /* arg0 = layer (0 unknown) */ \
    X(MirReturn, "mir_return", "mir", 'E') /* arg1 = 0 ok / 1 trap */ \
    X(PtWalk, "pt_walk", "mmu", 'i') /* arg0 = resolved level, arg1 = va */ \
    X(TlbHit, "tlb_hit", "mmu", 'i') /* arg0 = domain */ \
    X(TlbMiss, "tlb_miss", "mmu", 'i') /* arg0 = domain */ \
    X(ScenarioStart, "scenario_start", "campaign", 'B') /* arg0 = shard id */ \
    X(ScenarioFinish, "scenario_finish", "campaign", 'E') /* arg0 = shard, arg1 = checks */ \
    X(CounterexampleFound, "counterexample_found", "campaign", 'i') /* arg0 = shard, arg1 = iteration */ \
    X(TimerScope, "timer_scope", "timer", 'X') /* has dur; from ScopedTimer */ \
    X(FuzzExec, "fuzz_exec", "fuzz", 'i') /* arg0 = exec index, arg1 = ops */ \
    X(FuzzCorpusAdd, "fuzz_corpus_add", "fuzz", 'i') /* arg0 = corpus size, arg1 = features */ \
    X(FuzzDivergence, "fuzz_divergence", "fuzz", 'i') /* arg0 = exec index, arg1 = failing op */ \
    X(ShootdownBegin, "shootdown_begin", "smp", 'B') /* arg0 = domain, arg1 = gen */ \
    X(ShootdownEnd, "shootdown_end", "smp", 'E') /* arg0 = domain, arg1 = gen */ \
    X(IpiPost, "ipi_post", "smp", 's') /* arg0 = span id, arg1 = target */ \
    X(IpiDeliver, "ipi_deliver", "smp", 't') /* arg0 = span id, arg1 = target */ \
    X(IpiAck, "ipi_ack", "smp", 'f') /* arg0 = span id, arg1 = gen */

enum class EventType : u8
{
#define HEV_OBS_EVENT_ENUMERATOR(type, name, category, phase) type,
    HEV_OBS_EVENTS(HEV_OBS_EVENT_ENUMERATOR)
#undef HEV_OBS_EVENT_ENUMERATOR
};

#define HEV_OBS_EVENT_COUNT(type, name, category, phase) +1
constexpr u32 eventTypeCount = 0 HEV_OBS_EVENTS(HEV_OBS_EVENT_COUNT);
#undef HEV_OBS_EVENT_COUNT

/** Stable lower-case name ("hypercall_enter", ...). */
const char *eventTypeName(EventType type);

/** Chrome trace_event category the type maps to. */
const char *eventTypeCategory(EventType type);

/** One recorded event.  `name` points into tracer-owned storage. */
struct TraceEvent
{
    u64 ts = 0;   //!< ns since the trace epoch
    u64 dur = 0;  //!< ns; only TimerScope uses it
    const char *name = nullptr;
    u64 arg0 = 0;
    u64 arg1 = 0;
    EventType type = EventType::TimerScope;
};

/** One thread's collected slice of the trace. */
struct ThreadTrace
{
    u32 tid = 0;          //!< small stable id, assigned per thread
    u64 dropped = 0;      //!< events lost to ring wraparound
    std::vector<TraceEvent> events; //!< in emission order
};

namespace detail
{
void traceEventSlow(EventType type, const char *name, u64 arg0,
                    u64 arg1, u64 ts, u64 dur);
} // namespace detail

/** Nanoseconds since the process's trace epoch (monotonic). */
u64 traceNowNs();

/** Record an event now (no-op unless tracing is enabled). */
inline void
traceEvent(EventType type, const char *name, u64 arg0 = 0, u64 arg1 = 0)
{
#if HEV_OBS_TRACE
    if (traceEnabled())
        detail::traceEventSlow(type, name, arg0, arg1, 0, 0);
#else
    (void)type; (void)name; (void)arg0; (void)arg1;
#endif
}

/** Record a complete (begin+duration) event. */
inline void
traceComplete(EventType type, const char *name, u64 start_ns, u64 dur_ns,
              u64 arg0 = 0, u64 arg1 = 0)
{
#if HEV_OBS_TRACE
    if (traceEnabled())
        detail::traceEventSlow(type, name, arg0, arg1, start_ns, dur_ns);
#else
    (void)type; (void)name; (void)start_ns; (void)dur_ns;
    (void)arg0; (void)arg1;
#endif
}

/** Snapshot every ring (live and retired), per thread in order. */
std::vector<ThreadTrace> collectTrace();

/** Drop all recorded events (live rings and retired ones). */
void clearTrace();

/** Event counts by type name over a collected trace. */
std::map<std::string, u64>
countEventsByType(const std::vector<ThreadTrace> &trace);

/**
 * Total events ever recorded, by type name, since process start (or
 * the last clearTrace()).  Unlike countEventsByType over a collected
 * trace, these totals are immune to ring wraparound: diff them around
 * a run for exact per-type activity.
 */
std::map<std::string, u64> traceEventTotals();

/**
 * Render Chrome trace_event JSON: {"schemaVersion", "displayTimeUnit",
 * "traceEvents": [...]}.  Begin/end types map to "B"/"E" phases,
 * instants to "i", TimerScope to complete "X" events, and the IPI
 * causality events to flow phases "s"/"t"/"f" carrying their span in
 * "id" (so chrome://tracing draws initiator -> IPI -> ack arrows);
 * `ts` is microseconds with ns precision, monotonic per tid.
 */
std::string renderChromeTrace(const std::vector<ThreadTrace> &trace);

/** collectTrace + renderChromeTrace into a file. */
bool writeChromeTrace(const std::string &path);

} // namespace hev::obs

#endif // HEV_OBS_TRACE_HH
