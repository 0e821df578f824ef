/**
 * @file
 * Lockstep differential execution of one fuzz trace.
 *
 * One trace runs against every artifact of the development at once:
 * the concrete monitor (hv::Machine), the flat functional specs, the
 * MIR models (checked in lockstep via LayerHarness, exactly like the
 * conformance campaigns), and the tree-shaped high spec through the
 * refinement relation R.  After every op the executor cross-checks
 * verdict classes, translation results, EPCM contents, the Sec. 5.2
 * invariant families on both the concrete and abstract states, and R
 * itself.  Any disagreement is a divergence — the fuzzer's only
 * failure signal (planted bugs surface as divergences, never crashes).
 *
 * Execution is bit-deterministic: the result of a trace depends only
 * on (options, trace), never on wall clock, addresses, or thread
 * interleaving, so corpus replay and shrinking are exact.
 */

#ifndef HEV_FUZZ_EXECUTOR_HH
#define HEV_FUZZ_EXECUTOR_HH

#include <string>
#include <vector>

#include "fuzz/trace.hh"
#include "hv/monitor.hh"

namespace hev::fuzz
{

/** Options fixing the machine and oracle set for a run. */
struct ExecOptions
{
    /**
     * Monitor configuration; the layout doubles as the abstract
     * geometry (the fuzzer keeps both worlds on the same addresses, as
     * tests/integration/test_differential.cc does).
     */
    hv::MonitorConfig monitor;
    /**
     * Executor-side planted bug: maintain the tree-view mirrors with a
     * dropped writable bit, skewing the refinement relation R.
     */
    bool treeSkewBug = false;
    /**
     * Run the MIR models of L11/L14/L15 in lockstep with the specs.
     * On by default; benches can turn it off to measure the concrete
     * diff path alone.
     */
    bool mirLockstep = true;
    /** Hard cap on ops executed per trace. */
    u32 maxOps = 64;
    /**
     * Route every trace through the SMP executor (src/smp/) with this
     * many vCPUs.  Traces that carry SMP data themselves (a nonzero
     * vcpu field or schedule seed) take that route even when this is
     * off; see fuzz/smp_executor.hh.
     */
    bool smpFuzz = false;
    u32 smpVcpus = 2;
    /**
     * Planted SMP bug: the shootdown initiator skips the ack wait, so
     * remote vCPUs keep stale TLB entries past unmap/downgrade.
     */
    bool skipShootdownAckBug = false;
    /**
     * Where to write a forensics bundle when an oracle fails ("" =
     * fall back to $HEV_FORENSICS, then stay silent).  Emission is a
     * write-only side effect: ExecResult stays bit-deterministic.
     */
    std::string forensicsPath;

    /** The standard small fuzzing machine (4 MiB, 256+256 frames). */
    static ExecOptions standard();
};

/** Kill-suite bug names accepted by applyPlantedBug. */
std::vector<std::string> plantedBugNames();

/**
 * Enable one planted bug by name, one of plantedBugNames(); false if
 * the name is unknown.  "skip-shootdown-ack" and
 * "batch-skip-middle-invalidate" also turn on smpFuzz (both bugs only
 * show through a sibling vCPU's TLB).
 */
bool applyPlantedBug(ExecOptions &opts, const std::string &name);

/** Outcome of executing one trace. */
struct ExecResult
{
    /** True iff some oracle disagreed (the trace is a counterexample). */
    bool divergence = false;
    /** Index of the op the divergence surfaced at (iff divergence). */
    u64 failedOp = 0;
    /** Deterministic description of the divergence (iff divergence). */
    std::string detail;
    /** Ops actually executed (maxOps-capped). */
    u64 opsExecuted = 0;
    /** FNV over the per-op outcome sequence; replay identity check. */
    u64 signature = 0;
    /** Sorted, deduplicated 16-bit coverage features the run touched. */
    std::vector<u32> features;
};

/** Execute a trace against all oracles; deterministic. */
ExecResult executeTrace(const ExecOptions &opts, const Trace &trace);

/** Render an ExecResult as stable text (for replay comparison). */
std::string renderExecResult(const ExecResult &result);

} // namespace hev::fuzz

#endif // HEV_FUZZ_EXECUTOR_HH
