/**
 * @file
 * Shared machinery of the end-to-end benchmark: the workload
 * interface, per-call timing, failure accounting and the metric
 * report.
 *
 * Every workload is single-threaded and closed-loop: one client issues
 * the next op only after the previous one completed.  Inputs are
 * generated from the workload seed during set-up, before any timing
 * starts.  Layers are measured from outside only: the benchmark times
 * the public calls it makes into hv, smp, migrate and fuzz, and diffs
 * obs::snapshotStats() around the measured phase.
 */

#ifndef HEV_PERFBENCH_COMMON_HH
#define HEV_PERFBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hv/monitor.hh"
#include "obs/stats.hh"
#include "support/types.hh"

namespace hev::perfbench
{

using Clock = std::chrono::steady_clock;

constexpr u64 wordsPerPage = pageSize / sizeof(u64);
using PageWords = std::array<u64, wordsPerPage>;

/** ELRANGE start of every enclave the serving workloads launch. */
constexpr u64 elrangeBase = 0x10'0000;
/** Where the marshalling buffer appears in those enclaves. */
constexpr u64 mbufVa = 0x100'0000;

/** Enclave-linear address of a word of an ELRANGE page. */
inline Gva
wordVa(u64 page, u64 word)
{
    return Gva(elrangeBase + page * pageSize + word * sizeof(u64));
}

/** The reply an enclave writes for a request, over the words it loaded. */
inline u64
replyOf(u64 request, u64 loaded_sum)
{
    return (request ^ loaded_sum) * 0x9e3779b97f4a7c15ull;
}

/** A refused set-up step leaves nothing to measure: exit non-zero. */
[[noreturn]] void setupFailed(const char *what, HvError error);

inline u64
nowNs()
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
                   .count());
}

/** Nanosecond samples with exact (sorted, nearest-rank) percentiles. */
class Samples
{
  public:
    void add(u64 ns) { values.push_back(ns); }
    u64 size() const { return values.size(); }
    /** Sum of all samples. */
    u64 total() const;
    void reserve(u64 n) { values.reserve(n); }

    /** Nearest-rank percentile, pct in [1, 100]; 0 when empty. */
    double percentile(u32 pct) const;

  private:
    std::vector<u64> values;
};

/**
 * Per-call spans of the traced run, keyed by metric stem (for example
 * "hv.hc.enter").  Untraced runs pass a null Spans pointer, so the only
 * difference between the two runs is the clock reads.
 */
using Spans = std::map<std::string, Samples>;

/** Time one call into the program when tracing; otherwise just call. */
template <typename F>
auto
timed(Spans *spans, const char *stem, F &&call) -> decltype(call())
{
    if (!spans)
        return call();
    const u64 t0 = nowNs();
    auto result = call();
    (*spans)[stem].add(nowNs() - t0);
    return result;
}

/**
 * Op-latency stopwatch that can be paused around the benchmark's own
 * output checks, so an op's time is the program's time only.
 */
class OpTimer
{
  public:
    void start()
    {
        elapsed = 0;
        resume();
    }
    void pause() { elapsed += nowNs() - since; }
    void resume() { since = nowNs(); }
    /** Stop and return the accumulated program time. */
    u64 stop()
    {
        pause();
        return elapsed;
    }

  private:
    u64 elapsed = 0;
    u64 since = 0;
};

/** Ops attempted and failed, failures by reason. */
struct Outcome
{
    u64 attempted = 0;
    u64 failed = 0;
    std::map<std::string, u64> reasons;

    void
    fail(const std::string &reason)
    {
        ++failed;
        ++reasons[reason];
    }

    void
    merge(const Outcome &other)
    {
        attempted += other.attempted;
        failed += other.failed;
        for (const auto &[reason, n] : other.reasons)
            reasons[reason] += n;
    }
};

/** One measured phase: a fixed number of ops. */
struct Phase
{
    Outcome outcome;
    /** Program time of every op, in issue order. */
    Samples opNs;
    /** obs activity during the phase. */
    obs::Snapshot delta;
    /**
     * Deterministic counts that must repeat exactly between two runs
     * on the same seed.
     */
    std::map<std::string, u64> exact;
    /** Per-call spans (traced runs only). */
    Spans spans;
};

/** A named metric with its unit, in report order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** A histogram's activity during a phase (empty if it never moved). */
obs::HistogramData histogramOf(const Phase &phase, const std::string &name);

/** Append `<stem>.p50_<unit>` and, with >= 1000 samples, `.p99_`. */
void addPercentiles(Metrics &out, const Spans &spans,
                    const std::string &stem, const std::string &unit,
                    bool with_p99);

/**
 * Append the monitor's end-of-run resource levels: TLB entries (given,
 * since SMP keeps one TLB per vCPU), used page-table frames, free EPC
 * pages and live enclaves.
 */
void addMonitorLevels(Metrics &out, const hv::Monitor &mon,
                      u64 tlb_entries);

/** The interface each workload implements. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build fresh state, and the inputs of repetition @p rep from the
     * seed (timed as setup_s).
     */
    virtual void setup(u32 rep) = 0;

    /**
     * Run the fixed op count on the state setup() built, checking
     * every output.  @p traced times each public call into the
     * program.
     */
    virtual Phase run(bool traced) = 0;

    /** Per-layer metrics of a traced phase. */
    virtual void layerMetrics(const Phase &traced, Metrics &out) = 0;

    /** Repetitions (set-up plus fixed op count) of an untraced run. */
    virtual u32 repeats() const = 0;
};

std::unique_ptr<Workload> makeLifecycle(u64 seed, u64 seconds);
std::unique_ptr<Workload> makeServe(u64 seed, u64 seconds);
std::unique_ptr<Workload> makeCheck(u64 seed, u64 seconds);

} // namespace hev::perfbench

#endif // HEV_PERFBENCH_COMMON_HH
