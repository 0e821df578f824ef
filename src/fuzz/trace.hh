/**
 * @file
 * The fuzzer's test-case representation: a serializable trace of ops.
 *
 * A trace is a flat list of (kind, a, b, c, d) tuples.  The arguments
 * are raw 64-bit words; the executor decodes them modulo small,
 * state-dependent domains (enclave selectors, VA slots, twist codes),
 * so every u64 assignment names a valid op and mutation can havoc
 * arguments freely without a validity oracle.  The text format is
 * line-oriented and diff-friendly — one op per line — because shrunk
 * repro files get checked into tests/fuzz/corpus/ and pasted into bug
 * reports.
 */

#ifndef HEV_FUZZ_TRACE_HH
#define HEV_FUZZ_TRACE_HH

#include <optional>
#include <string>
#include <vector>

#include "support/types.hh"

namespace hev::fuzz
{

/**
 * The op vocabulary (paper Sec. 5.1 steps plus layer ops), declared
 * once: X(Enumerator, "snake_name").  The enumerator order is the
 * on-disk opcode (flight records, corpus signatures), so entries only
 * ever append.
 */
#define HEV_FUZZ_OPS(X) \
    X(HcInit, "hc_init") /* hypercall init; a=ELRANGE sel, b=pages, c=mbuf, d=twist */ \
    X(HcAddPage, "hc_add_page") /* hypercall add_page; a=enclave sel, b=gva sel, c=twist/kind */ \
    X(HcInitFinish, "hc_init_finish") /* hypercall init_finish; a=enclave sel */ \
    X(HcRemove, "hc_remove") /* hypercall remove; a=enclave sel */ \
    X(Enter, "enter") /* hypercall enter; a=enclave sel */ \
    X(Exit, "exit") /* hypercall exit */ \
    X(MemLoad, "mem_load") /* mem_load by the running principal; a/b=va sel, c=offset */ \
    X(MemStore, "mem_store") /* mem_store; a/b=va sel, c=offset, d=value */ \
    X(OsUnmap, "os_unmap") /* guest unmaps a kernel GPT page + CR3 reload; a=page sel */ \
    X(OsMap, "os_map") /* guest restores an identity mapping + CR3 reload; a=page sel */ \
    X(QueryVa, "query_va") /* uncached differential translation probe; a/b/c=va sel */ \
    X(LayerMap, "layer_map") /* as_map on the scratch AS (spec/MIR/tree); a=va, b=pa, c=flags */ \
    X(LayerUnmap, "layer_unmap") /* as_unmap on the scratch AS; a=va */ \
    X(LayerQuery, "layer_query") /* as_query on the scratch AS; a=va */ \
    X(EvictPage, "evict_page") /* hypercall evict (EWB); a=enclave sel, b=gva sel */ \
    X(ReloadPage, "reload_page") /* hypercall reload (ELD); a=enclave sel, b=gva sel, c=blob sel */ \
    X(AddPagesBatch, "add_pages_batch") /* batched add_page; a=enclave sel, b=gva sel, c=twist/kind, d=count */ \
    X(EvictPagesBatch, "evict_pages_batch") /* batched evict; a=enclave sel, b=gva sel, d=count */ \
    X(Snapshot, "snapshot") /* whole-enclave snapshot; a=enclave sel, b=mode (odd=Move) */ \
    X(RestoreImage, "restore_image") /* restore on the twin host; a=image sel, c=corruption sel */ \
    X(MigrateLive, "migrate_live") /* live pre-copy migration to the twin; a=enclave sel, b=rounds, c=mode */

enum class OpKind : u8
{
#define HEV_OP_ENUMERATOR(kind, name) kind,
    HEV_FUZZ_OPS(HEV_OP_ENUMERATOR)
#undef HEV_OP_ENUMERATOR
};

#define HEV_OP_COUNT(kind, name) +1
constexpr u32 opKindCount = 0 HEV_FUZZ_OPS(HEV_OP_COUNT);
#undef HEV_OP_COUNT

/** Stable lower-snake name ("hc_init", "mem_load", ...). */
const char *opKindName(OpKind kind);

/** Inverse of opKindName. */
std::optional<OpKind> opKindFromName(const std::string &name);

/** One op of a trace. */
struct Op
{
    OpKind kind = OpKind::MemLoad;
    u64 a = 0;
    u64 b = 0;
    u64 c = 0;
    u64 d = 0;
    /**
     * Issuing vCPU (SMP fuzzing, src/smp/).  0 is also what the
     * single-vCPU executor runs as, so the serializer omits the field
     * when it is 0 and the whole pre-SMP corpus remains byte-identical.
     */
    u32 vcpu = 0;

    bool operator==(const Op &) const = default;
};

/** One test case. */
struct Trace
{
    std::vector<Op> ops;
    /**
     * Seed of the SMP interleaving schedule (0 = none): with a nonzero
     * seed the SMP executor threads IPI servicing between ops from a
     * stream derived from it.  Serialized as a `schedule-seed` line
     * only when nonzero, keeping pre-SMP corpus files unchanged.
     */
    u64 scheduleSeed = 0;

    bool operator==(const Trace &) const = default;
};

/**
 * Text serialization:
 *
 *     hev-trace v1
 *     # optional comments
 *     schedule-seed 7
 *     op hc_init 1 2 0 0
 *     op mem_load 0 3 8 0 vcpu=2
 *
 * Blank lines and `#` comments are ignored by the parser; numbers may
 * be decimal or 0x-hex.  The `schedule-seed` line and the `vcpu=`
 * field are optional (both default to 0 and are omitted when 0, so
 * single-vCPU traces serialize exactly as before SMP existed).
 * serialize/parse round-trip exactly.
 */
std::string serializeTrace(const Trace &trace);

/** Parse the text format; on failure returns nullopt and sets *error. */
std::optional<Trace> parseTrace(const std::string &text,
                                std::string *error = nullptr);

/** Write serializeTrace(trace) to a file. */
bool writeTraceFile(const Trace &trace, const std::string &path);

/** Read + parse a trace file. */
std::optional<Trace> readTraceFile(const std::string &path,
                                   std::string *error = nullptr);

} // namespace hev::fuzz

#endif // HEV_FUZZ_TRACE_HH
