/**
 * @file
 * The `check` workload: the checking pipeline that stands in for the
 * paper's proofs.
 *
 * One op is one fuzz::executeTrace with ExecOptions::standard() and
 * MIR lockstep on, over a trace of at most 64 ops that set-up derives
 * from seedTraces() with mutateTrace.  Each exec builds a fresh
 * hv::Machine and runs every op against the concrete monitor, the
 * flat and tree specs, the MIR interpreter and the oracles; a
 * divergence is a wrong output.  Serving-path changes barely touch
 * this workload, while executor set-up and interpreter changes move
 * only it.
 */

#include <bitset>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hh"
#include "fuzz/executor.hh"
#include "fuzz/mutate.hh"
#include "hv/machine.hh"
#include "support/rng.hh"

namespace hev::perfbench
{

namespace
{

/** Execs per repetition for each second of --seconds. */
constexpr u64 execsPerSecond = 100;
constexpr u32 maxTraceOps = 64;
/** Share of the traces the traced run also times without MIR. */
constexpr u64 nomirEvery = 8;
/** JSON numbers are doubles: keep digests exact below 2^52. */
constexpr u64 digestMask = (1ull << 52) - 1;

u64
fnvStep(u64 acc, u64 word)
{
    return (acc ^ word) * 0x100000001b3ull;
}

class Check final : public Workload
{
  public:
    Check(u64 seed_value, u64 seconds)
        : seed(seed_value), execs(execsPerSecond * seconds)
    {
    }

    u32 repeats() const override { return 5; }

    void
    setup(u32 rep) override
    {
        opts = fuzz::ExecOptions::standard();
        const std::vector<fuzz::Trace> seeds = fuzz::seedTraces();
        // The skeletons are the corpus every mutation starts from; run
        // each once so one-time initialisation is not charged to ops.
        for (const fuzz::Trace &t : seeds)
            if (fuzz::executeTrace(opts, t).divergence) {
                std::fprintf(stderr, "check setup: seed trace diverges\n");
                std::exit(1);
            }
        Rng rng = Rng(seed).split(rep);
        traces.clear();
        traces.reserve(execs);
        for (u64 i = 0; i < execs; ++i)
            traces.push_back(fuzz::mutateTrace(
                seeds[rng.below(seeds.size())], rng, maxTraceOps));
    }

    Phase
    run(bool traced) override
    {
        Phase phase;
        phase.opNs.reserve(execs);
        Spans *spans = traced ? &phase.spans : nullptr;
        u64 digest = 0xcbf29ce484222325ull;
        auto features = std::make_unique<std::bitset<1u << 16>>();
        const obs::Snapshot before = obs::snapshotStats();
        for (const fuzz::Trace &trace : traces) {
            OpTimer timer;
            timer.start();
            const fuzz::ExecResult result = fuzz::executeTrace(opts, trace);
            phase.opNs.add(timer.stop());
            ++phase.outcome.attempted;
            if (result.divergence)
                phase.outcome.fail("wrong:divergence");
            digest = fnvStep(digest, result.signature);
            for (const u32 f : result.features)
                features->set(f & 0xffff);
        }
        phase.delta = obs::snapshotStats().minus(before);
        phase.exact["fuzz.signature_digest"] = digest & digestMask;
        phase.exact["fuzz.features"] = features->count();
        if (spans)
            timeLayers(*spans);
        return phase;
    }

    void
    layerMetrics(const Phase &traced, Metrics &out) override
    {
        addPercentiles(out, traced.spans, "hv.machine_ctor", "us", false);
        addPercentiles(out, traced.spans, "fuzz.exec_nomir", "us", false);
        out.push_back(
            {"ccal.harness_run.p50_ns",
             histogramOf(traced, "ccal.harness_run_ns").percentile(50), "ns"});
        out.push_back({"fuzz.features",
                       double(traced.exact.at("fuzz.features")), "count"});
        out.push_back({"fuzz.signature_digest",
                       double(traced.exact.at("fuzz.signature_digest")),
                       "hash"});
    }

  private:
    /**
     * The parts of an exec, timed from outside: building the standard
     * machine, and the same traces with MIR lockstep off.
     */
    void
    timeLayers(Spans &spans)
    {
        fuzz::ExecOptions nomir = opts;
        nomir.mirLockstep = false;
        for (u64 i = 0; i < traces.size(); i += nomirEvery) {
            timed(&spans, "hv.machine_ctor", [&] {
                return std::make_unique<hv::Machine>(opts.monitor);
            });
            timed(&spans, "fuzz.exec_nomir",
                  [&] { return fuzz::executeTrace(nomir, traces[i]); });
        }
    }

    const u64 seed;
    const u64 execs;
    fuzz::ExecOptions opts;
    std::vector<fuzz::Trace> traces;
};

} // namespace

std::unique_ptr<Workload>
makeCheck(u64 seed, u64 seconds)
{
    return std::make_unique<Check>(seed, seconds);
}

} // namespace hev::perfbench
