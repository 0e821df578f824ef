/**
 * @file
 * Entry point of the end-to-end benchmark.
 *
 *     perfbench --workload lifecycle|serve|check --seed N --seconds S
 *               --trace 0|1
 *
 * --trace 0 runs several repetitions, each a fresh set-up followed by
 * the workload's fixed op count with only whole ops timed, and reports
 * the end-to-end metrics over all of them.  --trace 1 runs repetition 0
 * twice on fresh state, untraced and then with every public call timed,
 * requires their deterministic counts to agree exactly, and reports the
 * per-layer metrics.  The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hh"

using namespace hev;
using namespace hev::perfbench;

namespace
{

struct Args
{
    std::string workload;
    u64 seed = 0;
    u64 seconds = 0;
    int trace = -1;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = val;
            continue;
        }
        const unsigned long long n = std::strtoull(val, &end, 10);
        if (!*val || *end)
            return false;
        if (key == "--seed")
            args.seed = n;
        else if (key == "--seconds")
            args.seconds = n;
        else if (key == "--trace")
            args.trace = int(n);
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
           args.seconds <= 600 && (args.trace == 0 || args.trace == 1);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const u64 n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / double(values.size());
}

double
opsPerSecond(const Samples &opNs)
{
    // Closed loop: throughput is the inverse of the mean program time.
    return double(opNs.size()) / (double(opNs.total()) / 1e9);
}

/**
 * obs work counters reported per op by every workload.  A layer the
 * workload bypasses reads 0: that is the measurement, not a gap.
 */
const char *const workCounters[] = {
    "hv.hypercalls",     "hv.pt.maps",        "hv.pt.unmaps",
    "hv.pt.walk_faults", "hv.tlb.flushes",    "hv.tlb.misses",
    "hv.tlb.inserts",    "smp.shootdowns",    "smp.ipis_sent",
    "smp.ipis_acked",    "smp.cache.refills", "smp.cache.drains",
    "mir.steps",         "mir.calls",         "ccal.harness_runs",
};

void
addWorkCounts(Phase &phase)
{
    for (const char *name : workCounters) {
        const auto it = phase.delta.counters.find(name);
        phase.exact[name] = it == phase.delta.counters.end() ? 0 : it->second;
    }
}

/** Exact-count agreement of two runs on the same seed. */
bool
countsAgree(const Phase &a, const Phase &b)
{
    bool agree = a.exact.size() == b.exact.size();
    for (const auto &[name, value] : a.exact) {
        const auto it = b.exact.find(name);
        if (it == b.exact.end() || it->second != value) {
            std::printf("COUNT MISMATCH %s: untraced %llu, traced %llu\n",
                        name.c_str(), (unsigned long long)value,
                        it == b.exact.end()
                            ? 0ull
                            : (unsigned long long)it->second);
            agree = false;
        }
    }
    return agree;
}

void
printResult(bool correct, const Outcome &outcome, const Metrics &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("ops attempted %llu, failed %llu\n",
                (unsigned long long)outcome.attempted,
                (unsigned long long)outcome.failed);
    for (const auto &[reason, n] : outcome.reasons)
        std::printf("  failed: %-40s %llu\n", reason.c_str(),
                    (unsigned long long)n);

    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(outcome.attempted) +
                       ", \"failed\": " + std::to_string(outcome.failed) +
                       ", \"metrics\": {";
    for (u64 i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload lifecycle|serve|check "
                     "--seed N --seconds S --trace 0|1\n");
        return 2;
    }
    std::unique_ptr<Workload> workload;
    if (args.workload == "lifecycle")
        workload = makeLifecycle(args.seed, args.seconds);
    else if (args.workload == "serve")
        workload = makeServe(args.seed, args.seconds);
    else if (args.workload == "check")
        workload = makeCheck(args.seed, args.seconds);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    Metrics metrics;
    bool correct = true;
    Outcome outcome;
    if (args.trace == 0) {
        // The host alternates between a fast and a slow state for
        // seconds at a time, so per-repetition figures are bimodal.
        // Throughput pools every repetition's ops and times, and the
        // latency percentiles are averaged over repetitions: both move
        // in proportion to the share of slow time, where a median over
        // repetitions would jump from one state to the other.
        std::vector<double> setups, p50s, p99s;
        double ops = 0.0, seconds = 0.0;
        for (u32 rep = 0; rep < workload->repeats(); ++rep) {
            const u64 t0 = nowNs();
            workload->setup(rep);
            setups.push_back(double(nowNs() - t0) / 1e9);
            const Phase phase = workload->run(false);
            ops += double(phase.opNs.size());
            seconds += double(phase.opNs.total()) / 1e9;
            p50s.push_back(phase.opNs.percentile(50) / 1e3);
            p99s.push_back(phase.opNs.percentile(99) / 1e3);
            outcome.merge(phase.outcome);
        }
        metrics.push_back({"ops_per_s", ops / seconds, "1/s"});
        metrics.push_back({"op_p50_us", mean(p50s), "us"});
        metrics.push_back({"op_p99_us", mean(p99s), "us"});
        metrics.push_back({"setup_s", median(setups), "s"});
        metrics.push_back({"peak_rss_mib", peakRssMib(), "MiB"});
    } else {
        workload->setup(0);
        Phase plain = workload->run(false);
        addWorkCounts(plain);
        workload->setup(0);
        Phase traced = workload->run(true);
        addWorkCounts(traced);
        correct = countsAgree(plain, traced);
        outcome = plain.outcome;
        outcome.merge(traced.outcome);
        workload->layerMetrics(traced, metrics);
        for (const char *name : workCounters)
            metrics.push_back({name,
                               double(traced.exact.at(name)) /
                                   double(traced.opNs.size()),
                               "count/op"});
        metrics.push_back({"obs.traced_slowdown",
                           opsPerSecond(traced.opNs) / opsPerSecond(plain.opNs),
                           "ratio"});
    }
    correct = correct && outcome.failed == 0 && outcome.attempted > 0;
    printResult(correct, outcome, metrics);
    return 0;
}
