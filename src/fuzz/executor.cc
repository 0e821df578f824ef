#include "fuzz/executor.hh"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "ccal/checker.hh"
#include "ccal/specs.hh"
#include "ccal/tree_state.hh"
#include "fuzz/forensics.hh"
#include "fuzz/smp_executor.hh"
#include "hv/hv_invariants.hh"
#include "hv/machine.hh"
#include "migrate/migrate.hh"
#include "obs/flight.hh"
#include "sec/invariants.hh"

namespace hev::fuzz
{

namespace
{

using namespace ccal;
using namespace ccal::spec;
using hv::AddPageKind;
using hv::EnclaveConfig;
using hv::Machine;

mir::Value
iv(i64 v)
{
    return mir::Value::intVal(v);
}

mir::Value
uv(u64 v)
{
    return mir::Value::intVal(i64(v));
}

/**
 * Coarse error classes shared by the concrete monitor and the specs
 * (same table as tests/integration/test_differential.cc), plus Skipped
 * for ops the executor declined to run (resource guard, wrong mode).
 */
enum class Rc : u8
{
    Ok = 0,
    Invalid,
    Isolation,
    Conflict,
    Resource,
    NoSuch,
    Skipped,
    SealAuth,     //!< sealed-blob MAC / ownership rejection
    SealRollback, //!< sealed-blob anti-rollback rejection
};

constexpr u32 rcCount = 9;

Rc
classifyHv(HvError error)
{
    switch (error) {
      case HvError::None: return Rc::Ok;
      case HvError::InvalidParam:
      case HvError::NotAligned: return Rc::Invalid;
      case HvError::IsolationViolation:
      case HvError::PermissionDenied: return Rc::Isolation;
      case HvError::AlreadyMapped:
      case HvError::BadEnclaveState:
      case HvError::EpcmConflict: return Rc::Conflict;
      case HvError::OutOfMemory:
      case HvError::OutOfEpc: return Rc::Resource;
      case HvError::NoSuchEnclave:
      case HvError::NotMapped: return Rc::NoSuch;
      case HvError::SealAuthFailed:
      case HvError::ImageAuthFailed: return Rc::SealAuth;
      case HvError::SealRollback:
      case HvError::ImageRollback: return Rc::SealRollback;
      case HvError::ImageTruncated: return Rc::Invalid;
      // Exhaustive on purpose: no default, and hev_fuzz builds with
      // -Werror=switch, so a new HvError cannot silently fall into a
      // catch-all and dodge the differential comparison against the
      // spec's coarse codes.
      case HvError::Unsupported: return Rc::Invalid;
      // Invalid (not Conflict): the flat spec has no shootdown window,
      // so its reload-during-batch verdict lands in the same coarse
      // class the executor's skip-compare logic expects.
      case HvError::ShootdownInFlight: return Rc::Invalid;
    }
    return Rc::Invalid;
}

Rc
classifySpec(i64 code)
{
    switch (code) {
      case 0: return Rc::Ok;
      case errInvalidParam:
      case errNotAligned: return Rc::Invalid;
      case errIsolation: return Rc::Isolation;
      case errAlreadyMapped:
      case errBadState: return Rc::Conflict;
      case errOutOfMemory:
      case errOutOfEpc: return Rc::Resource;
      case errNoSuchEnclave:
      case errNotMapped: return Rc::NoSuch;
      case errSealAuth:
      case errImageAuth: return Rc::SealAuth;
      case errSealRollback:
      case errImageRollback: return Rc::SealRollback;
      case errImageTruncated: return Rc::Invalid;
      default: return Rc::Invalid;
    }
}

const char *
rcName(Rc rc)
{
    switch (rc) {
      case Rc::Ok: return "ok";
      case Rc::Invalid: return "invalid";
      case Rc::Isolation: return "isolation";
      case Rc::Conflict: return "conflict";
      case Rc::Resource: return "resource";
      case Rc::NoSuch: return "no-such";
      case Rc::Skipped: return "skipped";
      case Rc::SealAuth: return "seal-auth";
      case Rc::SealRollback: return "seal-rollback";
    }
    return "?";
}

/** The abstract geometry matching an hv layout (same addresses). */
Geometry
geometryOf(const hv::MonitorConfig &cfg)
{
    Geometry geo;
    geo.frameBase = cfg.layout.secureBase();
    geo.frameCount = cfg.layout.ptAreaBytes / pageSize;
    geo.epcBase = cfg.layout.epcRange().start.value;
    geo.epcCount = cfg.layout.epcBytes / pageSize;
    geo.normalLimit = cfg.layout.secureBase();
    return geo;
}

constexpr u64 fnvOffset = 0xcbf29ce484222325ull;
constexpr u64 fnvPrime = 0x100000001b3ull;

u64
fnvStep(u64 hash, u64 value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= fnvPrime;
    }
    return hash;
}

/** Everything needed to run one trace; fresh per execution. */
class Executor
{
  public:
    explicit Executor(const ExecOptions &options)
        : opts(options), machine(options.monitor),
          specState(geometryOf(options.monitor)),
          mirFlat(geometryOf(options.monitor)),
          twinState(geometryOf(options.monitor))
    {
        // One staging page in normal memory feeds every add_page; a
        // fresh machine cannot fail this allocation.
        auto stage = machine.os().allocPage();
        stagePage = stage ? *stage : Gpa(0);
    }

    ExecResult
    run(const Trace &trace)
    {
        ExecResult result;
        u64 signature = fnvOffset;
        const u16 runTag = obs::newFlightRunTag();
        for (u64 i = 0; i < trace.ops.size() && i < opts.maxOps; ++i) {
            const Op &op = trace.ops[i];
            lastRc = Rc::Skipped;
            const auto failure = dispatch(op);
            ++result.opsExecuted;
            obs::flightRecord(u16(op.kind), op.a, op.b, op.c, op.d,
                              u64(lastRc), u16(i), runTag, u8(op.vcpu),
                              obs::flightReplayable);

            // Coverage features: (op, outcome), the 2-gram edge with
            // the previous op, and a coarse state-shape bucket.
            const u32 sig = u32(op.kind) * rcCount + u32(lastRc);
            addFeature(0x1000 + sig);
            addFeature(pairFeature(prevSig, sig));
            prevSig = sig;
            addFeature(
                0x4000 +
                u32(machine.monitor().liveEnclaves() % 8) * 32 +
                u32(machine.monitor().ptAlloc().usedFrames() / 16));
            signature = fnvStep(signature, u64(op.kind));
            signature = fnvStep(signature, u64(lastRc));

            if (failure) {
                result.divergence = true;
                result.failedOp = i;
                std::ostringstream detail;
                detail << "op " << i << " (" << opKindName(op.kind)
                       << "): " << *failure;
                result.detail = detail.str();
                const std::string path =
                    obs::forensicsPathOrEnv(opts.forensicsPath);
                if (!path.empty()) {
                    ForensicsInput in;
                    in.kind = "fuzz";
                    in.detail = result.detail;
                    in.failedOp = i;
                    in.runTag = runTag;
                    in.scheduleSeed = trace.scheduleSeed;
                    in.digests["epcm"] =
                        hv::epcmDigest(machine.monitor().epcm());
                    in.digests["tlb"] =
                        hv::tlbDigest(machine.monitor().tlb());
                    emitForensics(path, in);
                }
                break;
            }
        }
        signature = fnvStep(signature, result.divergence ? 1 : 0);
        result.signature = signature;
        result.features.assign(featureSet.begin(), featureSet.end());
        return result;
    }

  private:
    using Fail = std::optional<std::string>;

    Fail
    dispatch(const Op &op)
    {
        switch (op.kind) {
          case OpKind::HcInit: return opHcInit(op);
          case OpKind::HcAddPage: return opHcAddPage(op);
          case OpKind::HcInitFinish: return opHcInitFinish(op);
          case OpKind::HcRemove: return opHcRemove(op);
          case OpKind::Enter: return opEnter(op);
          case OpKind::Exit: return opExit(op);
          case OpKind::MemLoad:
          case OpKind::MemStore: return opMemAccess(op);
          case OpKind::OsUnmap: return opOsUnmap(op);
          case OpKind::OsMap: return opOsMap(op);
          case OpKind::QueryVa: return opQueryVa(op);
          case OpKind::LayerMap: return opLayerMap(op);
          case OpKind::LayerUnmap: return opLayerUnmap(op);
          case OpKind::LayerQuery: return opLayerQuery(op);
          case OpKind::EvictPage: return opEvictPage(op);
          case OpKind::ReloadPage: return opReloadPage(op);
          case OpKind::AddPagesBatch: return opAddPagesBatch(op);
          case OpKind::EvictPagesBatch: return opEvictPagesBatch(op);
          case OpKind::Snapshot: return opSnapshot(op);
          case OpKind::RestoreImage: return opRestoreImage(op);
          case OpKind::MigrateLive: return opMigrateLive(op);
        }
        return std::nullopt;
    }

    /// @name Hypercall ops
    /// @{

    Fail
    opHcInit(const Op &op)
    {
        if (lowOnFrames())
            return std::nullopt;
        u64 el_start = 0x10'0000ull * (1 + op.a % 4);
        const u64 el_pages = 1 + op.b % 4;
        const u64 el_end = el_start + el_pages * pageSize;
        const u64 mbuf_pages = 1 + op.c % 2;
        u64 mbuf_gva = el_end + pageSize;
        const u64 twist = op.d % 8;

        u64 backing;
        if (twist == 7) {
            // Secure-region backing: both sides must reject.
            backing = opts.monitor.layout.secureBase();
        } else {
            std::vector<Gpa> pages;
            for (u64 i = 0; i < mbuf_pages; ++i) {
                auto page = machine.os().allocPage();
                if (!page)
                    break;
                pages.push_back(*page);
            }
            bool contiguous = pages.size() == mbuf_pages;
            for (u64 i = 1; contiguous && i < pages.size(); ++i)
                contiguous =
                    pages[i].value == pages[0].value + i * pageSize;
            if (!contiguous) {
                for (const Gpa page : pages)
                    (void)machine.os().freePage(page);
                return std::nullopt; // guest pool frontier; skip
            }
            backing = pages[0].value;
        }
        if (twist == 5)
            el_start += 0x100; // misaligned ELRANGE start
        if (twist == 6)
            mbuf_gva = el_start; // mbuf overlaps ELRANGE

        EnclaveConfig cfg;
        cfg.elrange = {Gva(el_start), Gva(el_end)};
        cfg.mbufGva = Gva(mbuf_gva);
        cfg.mbufPages = mbuf_pages;
        cfg.mbufBacking = Gpa(backing);
        cfg.creatorGptRoot = machine.vcpu().gptRoot;
        auto hv_id = machine.monitor().hcEnclaveInit(cfg);

        const IntResult spec_id = specHcInit(
            specState, el_start, el_end, mbuf_gva, mbuf_pages, backing);

        if (auto f = verdictsAgree("init", hv_id.error(),
                                   spec_id.isOk ? 0 : spec_id.errCode))
            return f;

        if (auto f = mirAgree("hc_init", harness14(), "hc_init",
                              {uv(el_start), uv(el_end), uv(mbuf_gva),
                               uv(mbuf_pages), uv(backing)},
                              encodeIntResult(spec_id)))
            return f;

        if (hv_id.ok()) {
            idMap[*hv_id] = i64(spec_id.value);
            created.push_back(*hv_id);
            const AbsEnclave &abs =
                specState.enclaves.at(i64(spec_id.value));
            gptTrees.emplace(
                *hv_id,
                treeFromFlat(specState, specState.rootOf(abs.gptHandle)));
            if (auto f = treeAgree("init gpt", gptTrees.at(*hv_id),
                                   abs.gptHandle))
                return f;
        }
        if (auto f = invariantsAgree("init"))
            return f;
        return epcmAgree("init");
    }

    Fail
    opHcAddPage(const Op &op)
    {
        if (lowOnFrames())
            return std::nullopt;
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);
        const u64 twist = op.c % 8;

        u64 gva = batchGva(spec_id, op.b, 0);
        if (twist == 6)
            gva += 0x100; // misaligned
        const u64 src = twist == 7 ? opts.monitor.layout.secureBase()
                                   : stagePage.value;
        const bool tcs = (op.c >> 3) & 1;
        const i64 kind_code = tcs ? epcStateTcs : epcStateReg;

        auto st = machine.monitor().hcEnclaveAddPage(
            hv_id, Gva(gva), Gpa(src),
            tcs ? AddPageKind::Tcs : AddPageKind::Reg);
        const i64 rc =
            specHcAddPage(specState, spec_id, gva, src, kind_code);

        if (auto f = verdictsAgree("add_page", st.error(), rc))
            return f;
        if (auto f = mirAgree("hc_add_page", harness14(), "hc_add_page",
                              {iv(spec_id), uv(gva), uv(src),
                               iv(kind_code)},
                              iv(rc)))
            return f;

        if (st.ok()) {
            const AbsEnclave &abs = specState.enclaves.at(spec_id);
            const u64 gpa = specState.geo.epcGpaBase +
                            (abs.addedPages - 1) * pageSize;
            TreeState &tree = gptTrees.at(hv_id);
            if (auto f = treeStepOk("tree map",
                                    treeMap(tree, gva, gpa, treeFlags()),
                                    "succeeded"))
                return f;
            if (auto f = treeAgree("add_page gpt", tree, abs.gptHandle))
                return f;
        }
        if (auto f = invariantsAgree("add_page"))
            return f;
        return epcmAgree("add_page");
    }

    Fail
    opHcInitFinish(const Op &op)
    {
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);
        auto st = machine.monitor().hcEnclaveInitFinish(hv_id);
        const i64 rc = specHcInitFinish(specState, spec_id);
        if (auto f = verdictsAgree("init_finish", st.error(), rc))
            return f;
        if (auto f = mirAgree("hc_init_finish", harness14(),
                              "hc_init_finish", {iv(spec_id)}, iv(rc)))
            return f;
        return invariantsAgree("init_finish");
    }

    Fail
    opHcRemove(const Op &op)
    {
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);

        if (inEnclave && hv_id == curEnclave) {
            // The spec has no notion of an executing vCPU; the monitor
            // must reject removal of the active enclave on its own.
            auto st = machine.monitor().hcEnclaveRemove(hv_id);
            if (st.ok())
                return "hv removed the enclave the vCPU is executing in";
            lastRc = classifyHv(st.error());
            return invariantsAgree("remove-active");
        }

        auto st = machine.monitor().hcEnclaveRemove(hv_id);
        const i64 rc = specHcRemove(specState, spec_id);
        if (auto f = verdictsAgree("remove", st.error(), rc))
            return f;
        if (auto f = mirAgree("hc_remove", harness14(), "hc_remove",
                              {iv(spec_id)}, iv(rc)))
            return f;
        if (st.ok()) {
            removesHappened = true;
            gptTrees.erase(hv_id);
        }
        return invariantsAgree("remove");
    }

    Fail
    opEvictPage(const Op &op)
    {
        if (inEnclave)
            return std::nullopt; // management hypercall, normal mode only
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);

        const u64 gva = batchGva(spec_id, op.b, 0);
        auto blob = machine.monitor().hcEnclaveEvictPage(hv_id, Gva(gva));
        const IntResult r = specHcEvictPage(specState, spec_id, gva);
        if (opts.mirLockstep) {
            // No L14 MIR model for evict yet; the spec transition is
            // applied to the MIR shadow state so lockstep equality of
            // the *next* modeled call still holds.
            (void)specHcEvictPage(mirFlat, spec_id, gva);
        }

        if (auto f = verdictsAgree("evict", blob.error(),
                                   r.isOk ? 0 : r.errCode))
            return f;

        if (blob.ok()) {
            if (blob->version != r.value) {
                std::ostringstream msg;
                msg << "evict version skew: hv " << blob->version
                    << " vs spec " << r.value;
                return msg.str();
            }
            // Blob history is append-only, like real OS custody: stale
            // versions stay presentable, which is what gives the
            // anti-rollback check something to reject.
            sealedBlobs.push_back({*blob, spec_id, gva, r.value});
            TreeState &tree = gptTrees.at(hv_id);
            if (auto f = treeStepOk("tree unmap", treeUnmap(tree, gva),
                                    "evicted"))
                return f;
            if (auto f = treeAgree(
                    "evict gpt", tree,
                    specState.enclaves.at(spec_id).gptHandle))
                return f;
        }
        if (auto f = invariantsAgree("evict_page"))
            return f;
        return epcmAgree("evict_page");
    }

    Fail
    opReloadPage(const Op &op)
    {
        if (inEnclave || sealedBlobs.empty())
            return std::nullopt;
        if (lowOnFrames())
            return std::nullopt; // reload re-maps and may need frames
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);
        const SealedPair &pair = sealedBlobs[op.c % sealedBlobs.size()];

        auto st =
            machine.monitor().hcEnclaveReloadPage(hv_id, pair.hvBlob);
        const i64 rc = specHcReloadPage(specState, spec_id,
                                        pair.specOwner, pair.gva,
                                        pair.version);
        if (opts.mirLockstep)
            (void)specHcReloadPage(mirFlat, spec_id, pair.specOwner,
                                   pair.gva, pair.version);
        if (auto f = verdictsAgree("reload_page", st.error(), rc))
            return f;

        if (st.ok()) {
            const AbsEnclave &abs = specState.enclaves.at(spec_id);
            const QueryResult back =
                specAsQuery(specState, abs.gptHandle, pair.gva);
            if (!back.isSome)
                return "reload succeeded but the spec stage-1 slot is "
                       "empty";
            TreeState &tree = gptTrees.at(hv_id);
            if (auto f = treeStepOk(
                    "tree map",
                    treeMap(tree, pair.gva,
                            back.physAddr & ~(pageSize - 1), treeFlags()),
                    "reloaded"))
                return f;
            if (auto f = treeAgree("reload gpt", tree, abs.gptHandle))
                return f;

            // The reloaded frame must hold the sealed content
            // bit-identically.
            const hv::Enclave *enc = machine.monitor().findEnclave(hv_id);
            auto walk = machine.monitor().translateEnclaveUncached(
                enc->gptRoot, enc->eptRoot, Gva(pair.gva), false);
            if (!walk.ok())
                return "reload succeeded but the page does not "
                       "translate";
            const u64 page = walk->value & ~(pageSize - 1);
            for (u64 off = 0; off < pageSize; off += sizeof(u64)) {
                if (machine.monitor().mem().read(Hpa(page + off)) !=
                    pair.hvBlob.words[off / sizeof(u64)]) {
                    std::ostringstream msg;
                    msg << "reload content mismatch at offset " << off;
                    return msg.str();
                }
            }
        }
        if (auto f = invariantsAgree("reload_page"))
            return f;
        return epcmAgree("reload_page");
    }

    /** Element gvas of a batch: a contiguous selector window so that a
     *  batch of 1 decodes exactly like the single-op form (index 0). */
    u64
    batchGva(i64 spec_id, u64 b_sel, u64 index) const
    {
        const auto abs_it = specState.enclaves.find(spec_id);
        if (abs_it != specState.enclaves.end() &&
            abs_it->second.state != enclStateDead)
            return elrangeGva(abs_it->second, b_sel + index);
        return 0x10'0000 + ((b_sel + index) % 8) * pageSize;
    }

    Fail
    opAddPagesBatch(const Op &op)
    {
        if (inEnclave)
            return std::nullopt; // management hypercall, normal mode only
        if (lowOnFrames())
            return std::nullopt;
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);
        const u64 count = 1 + op.d % 4;
        const u64 twist = op.c % 8;
        const bool tcs = (op.c >> 3) & 1;

        std::vector<hv::AddPageRequest> reqs;
        std::vector<SpecAddPageOp> spec_ops;
        for (u64 i = 0; i < count; ++i) {
            u64 gva = batchGva(spec_id, op.b, i);
            if (twist == 6 && i == count / 2)
                gva += 0x100; // misaligned mid-batch element
            const u64 src = twist == 7
                                ? opts.monitor.layout.secureBase()
                                : stagePage.value;
            // At most the final element is a TCS, so the entry-point
            // bookkeeping matches the equivalent single-op sequence.
            const bool el_tcs = tcs && i + 1 == count;
            reqs.push_back({Gva(gva), Gpa(src),
                            el_tcs ? AddPageKind::Tcs
                                   : AddPageKind::Reg});
            spec_ops.push_back(
                {gva, src, el_tcs ? epcStateTcs : epcStateReg});
        }

        // The batch≡fold theorem, checked from the live abstract state
        // before either side moves.
        const BatchEquivalence eq =
            checkAddBatchFold(specState, spec_id, spec_ops);
        if (!eq.equivalent)
            return "add_pages_batch batch/fold equivalence broken: " +
                   eq.detail;

        auto st =
            machine.monitor().hcEnclaveAddPagesBatch(hv_id, reqs);
        const i64 rc =
            specHcAddPagesBatch(specState, spec_id, spec_ops);
        if (opts.mirLockstep) {
            // No L14 MIR model for the batch; apply the spec transition
            // to the MIR shadow state, as evict does.
            (void)specHcAddPagesBatch(mirFlat, spec_id, spec_ops);
        }
        if (auto f = verdictsAgree("add_pages_batch", st.error(), rc))
            return f;

        if (st.ok()) {
            const AbsEnclave &abs = specState.enclaves.at(spec_id);
            const u64 flags = treeFlags();
            std::vector<TreeBatchOp> tree_ops;
            for (u64 i = 0; i < spec_ops.size(); ++i)
                tree_ops.push_back(
                    {true, spec_ops[i].gva,
                     specState.geo.epcGpaBase +
                         (abs.addedPages - spec_ops.size() + i) *
                             pageSize,
                     flags});
            TreeState &tree = gptTrees.at(hv_id);
            if (auto f = treeStepOk("tree batch map",
                                    treeApplyBatch(tree, tree_ops),
                                    "succeeded"))
                return f;
            if (auto f = treeAgree("add_pages_batch gpt", tree,
                                   abs.gptHandle))
                return f;
        }
        if (auto f = invariantsAgree("add_pages_batch"))
            return f;
        return epcmAgree("add_pages_batch");
    }

    Fail
    opEvictPagesBatch(const Op &op)
    {
        if (inEnclave)
            return std::nullopt; // management hypercall, normal mode only
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);
        const u64 count = 1 + op.d % 4;

        std::vector<Gva> gvas;
        std::vector<u64> raw;
        for (u64 i = 0; i < count; ++i) {
            const u64 gva = batchGva(spec_id, op.b, i);
            gvas.push_back(Gva(gva));
            raw.push_back(gva);
        }

        const BatchEquivalence eq =
            checkEvictBatchFold(specState, spec_id, raw);
        if (!eq.equivalent)
            return "evict_pages_batch batch/fold equivalence broken: " +
                   eq.detail;

        auto blobs =
            machine.monitor().hcEnclaveEvictPagesBatch(hv_id, gvas);
        std::vector<u64> versions;
        const IntResult r =
            specHcEvictPagesBatch(specState, spec_id, raw, &versions);
        if (opts.mirLockstep)
            (void)specHcEvictPagesBatch(mirFlat, spec_id, raw);

        if (auto f = verdictsAgree("evict batch", blobs.error(),
                                   r.isOk ? 0 : r.errCode))
            return f;

        if (blobs.ok()) {
            if (blobs->size() != raw.size() ||
                versions.size() != raw.size())
                return "evict batch arity skew between hv and spec";
            for (u64 i = 0; i < raw.size(); ++i) {
                if ((*blobs)[i].version != versions[i]) {
                    std::ostringstream msg;
                    msg << "evict batch version skew at element " << i
                        << ": hv " << (*blobs)[i].version << " vs spec "
                        << versions[i];
                    return msg.str();
                }
                sealedBlobs.push_back(
                    {(*blobs)[i], spec_id, raw[i], versions[i]});
            }
            std::vector<TreeBatchOp> tree_ops;
            for (const u64 gva : raw)
                tree_ops.push_back({false, gva, 0, 0});
            TreeState &tree = gptTrees.at(hv_id);
            if (auto f = treeStepOk("tree batch unmap",
                                    treeApplyBatch(tree, tree_ops),
                                    "evicted"))
                return f;
            if (auto f = treeAgree(
                    "evict_pages_batch gpt", tree,
                    specState.enclaves.at(spec_id).gptHandle))
                return f;
        }
        if (auto f = invariantsAgree("evict_pages_batch"))
            return f;
        return epcmAgree("evict_pages_batch");
    }

    Fail
    opSnapshot(const Op &op)
    {
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);
        const bool move = op.b & 1;
        const hv::SnapshotMode mode =
            move ? hv::SnapshotMode::Move : hv::SnapshotMode::Fork;

        if (inEnclave && hv_id == curEnclave) {
            // The spec has no notion of an executing vCPU; the monitor
            // must refuse to snapshot the enclave it is running on its
            // own (a resident vCPU keeps state outside the image).
            auto image = machine.monitor().hcEnclaveSnapshot(hv_id, mode);
            if (image.ok())
                return "hv snapshotted the enclave the vCPU is "
                       "executing in";
            lastRc = classifyHv(image.error());
            return invariantsAgree("snapshot-active");
        }

        auto image = machine.monitor().hcEnclaveSnapshot(hv_id, mode);
        // The spec's measurement is an opaque ledger token; use the
        // monitor's so the two anti-rollback ledgers stay key-aligned.
        const u64 meas = image.ok() ? image->measurement : 0;

        // The migration ≡ quiesced-fold theorem, checked from the live
        // pre-states (pure: both states are copied).  Gated to a
        // deterministic quarter of successful snapshots for throughput.
        if (image.ok() && (op.d & 3) == 0) {
            const BatchEquivalence eq = checkMigrateQuiescedFold(
                specState, twinState, spec_id, move, meas);
            if (!eq.equivalent)
                return "snapshot quiesced-fold equivalence broken: " +
                       eq.detail;
        }

        AbsImage abs;
        const i64 rc =
            specHcSnapshot(specState, spec_id, move, meas, &abs);
        if (opts.mirLockstep) {
            // No L14 MIR model for snapshot; apply the spec transition
            // to the MIR shadow state, as evict does.
            (void)specHcSnapshot(mirFlat, spec_id, move, meas, nullptr);
        }

        if (auto f = verdictsAgree("snapshot", image.error(), rc))
            return f;

        if (image.ok()) {
            // Image shape agreement: same pages, same gva order, the
            // same evict-all version vector.
            if (image->pages.size() != abs.pages.size() ||
                image->versionBase != abs.versionBase) {
                std::ostringstream msg;
                msg << "snapshot image skew: hv " << image->pages.size()
                    << " pages from version " << image->versionBase
                    << " vs spec " << abs.pages.size() << " from "
                    << abs.versionBase;
                return msg.str();
            }
            for (u64 i = 0; i < abs.pages.size(); ++i) {
                if (image->pages[i].gva.value != abs.pages[i].gva ||
                    image->pages[i].version !=
                        abs.pages[i].sealed.version) {
                    std::ostringstream msg;
                    msg << "snapshot page " << i << " skew: hv gva "
                        << std::hex << image->pages[i].gva.value << " v"
                        << std::dec << image->pages[i].version
                        << " vs spec gva " << std::hex
                        << abs.pages[i].gva << " v" << std::dec
                        << abs.pages[i].sealed.version;
                    return msg.str();
                }
            }
            images.push_back({*image, abs});
            if (move) {
                removesHappened = true;
                gptTrees.erase(hv_id);
            } else if (auto f = treeAgree(
                           "snapshot gpt", gptTrees.at(hv_id),
                           specState.enclaves.at(spec_id).gptHandle)) {
                return f;
            }
        }
        if (auto f = invariantsAgree("snapshot"))
            return f;
        return epcmAgree("snapshot");
    }

    Fail
    opRestoreImage(const Op &op)
    {
        if (images.empty())
            return std::nullopt;
        ensureTwin();
        if (lowOnFrames(*twin, twinState))
            return std::nullopt;
        const ImagePair &pair = images[op.a % images.size()];
        hv::EnclaveImage hv_img = pair.hvImage;
        AbsImage abs_img = pair.absImage;

        // OS-side tampering before presentation: the concrete image is
        // corrupted for real, the abstract one records what a verifier
        // would conclude.
        switch (op.c % 4) {
          case 0: // presented verbatim (replays draw ImageRollback)
            break;
          case 1: // header MAC flip
            hv_img.mac ^= 1;
            abs_img.authentic = false;
            break;
          case 2: // truncate: the page vector contradicts the header
            hv_img.pages.pop_back();
            hv_img.pageMeta.pop_back();
            abs_img.pages.pop_back();
            break;
          default: // content tamper under the original blob MAC
            hv_img.pages[0].words[0] ^= 1;
            abs_img.authentic = false;
            break;
        }

        auto twin_id = twin->monitor().hcEnclaveRestoreImage(hv_img);
        const IntResult rc = specHcRestoreImage(twinState, abs_img);

        if (auto f = verdictsAgree("restore", twin_id.error(),
                                   rc.isOk ? 0 : rc.errCode))
            return f;

        if (twin_id.ok()) {
            // Only restores create enclaves on the twin, so ids stay
            // aligned between the concrete and abstract hosts.
            if (u64(*twin_id) != u64(rc.value)) {
                std::ostringstream msg;
                msg << "twin enclave id skew: hv " << u64(*twin_id)
                    << " vs spec " << rc.value;
                return msg.str();
            }
            // Ledger agreement on the key both sides just accepted.
            const auto hv_led = twin->monitor().restoredImageLedger();
            const auto hv_it = hv_led.find(hv_img.measurement);
            const auto sp_it =
                twinState.imageLedger.find(abs_img.measurement);
            if (hv_it == hv_led.end() ||
                sp_it == twinState.imageLedger.end() ||
                hv_it->second != sp_it->second) {
                std::ostringstream msg;
                msg << "twin ledger skew for measurement " << std::hex
                    << hv_img.measurement;
                return msg.str();
            }
            // Content: every restored page equals its sealed payload.
            std::array<u64, pageSize / sizeof(u64)> words{};
            for (const hv::SealedBlob &blob : hv_img.pages) {
                if (!twin->monitor()
                         .enclaveReadPage(*twin_id, blob.gva,
                                          words.data())
                         .ok())
                    return "restored page does not read back";
                if (words != blob.words) {
                    std::ostringstream msg;
                    msg << "restore content mismatch at gva " << std::hex
                        << blob.gva.value;
                    return msg.str();
                }
            }
        }
        return invariantsAgree("restore_image", *twin, twinState, "twin ");
    }

    Fail
    opMigrateLive(const Op &op)
    {
        if (inEnclave)
            return std::nullopt; // the engine quiesces the source itself
        if (lowOnFrames())
            return std::nullopt;
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);
        ensureTwin();
        if (lowOnFrames(*twin, twinState))
            return std::nullopt;

        const hv::Enclave *enc = machine.monitor().findEnclave(hv_id);
        const bool move = op.c & 1;
        const u64 meas = enc ? enc->measurement : 0;

        // Deterministic dirty injection between rounds: each workload
        // step rewrites one resident page through the stamping path.
        std::vector<Gva> resident;
        if (auto r = machine.monitor().enclaveResidentPages(hv_id))
            resident = std::move(*r);
        const u64 salt = op.d;
        const auto workload = [&](u64 round) {
            for (u64 t = 0; t < 4 && t < resident.size(); ++t) {
                const Gva va =
                    resident[(salt + round + t) % resident.size()];
                if (machine.monitor()
                        .enclaveStore(hv_id, va,
                                      0xd117'0000 + salt * 16 + round)
                        .ok())
                    break;
            }
        };

        migrate::MigrateOptions mopts;
        mopts.mode = move ? hv::SnapshotMode::Move
                          : hv::SnapshotMode::Fork;
        mopts.maxPrecopyRounds = 1 + op.b % 3;
        auto result =
            migrate::migrateLive(machine, hv_id, *twin, workload, mopts);

        // Mirror the spec on a scratch copy: the source-side fold
        // commits exactly when the engine got past sealFromStaging —
        // i.e. on success, or on a restore-stage failure (the twin ran
        // dry or its ledger refused the lineage).
        FlatState scratch = specState;
        AbsImage abs;
        const i64 rc = specHcSnapshot(scratch, spec_id, move, meas, &abs);

        if (result.ok()) {
            lastRc = Rc::Ok;
            if (rc != 0) {
                std::ostringstream msg;
                msg << "migrate_live succeeded but the spec source fold "
                       "failed with "
                    << rc;
                return msg.str();
            }
            commitMigrateFold(scratch, hv_id, move);
            const IntResult rr = specHcRestoreImage(twinState, abs);
            if (!rr.isOk) {
                std::ostringstream msg;
                msg << "migrate_live restored on the twin but the spec "
                       "restore failed with "
                    << rr.errCode;
                return msg.str();
            }
            if (u64(result->dstId) != u64(rr.value)) {
                std::ostringstream msg;
                msg << "migrated twin id skew: hv " << u64(result->dstId)
                    << " vs spec " << rr.value;
                return msg.str();
            }
            if (!move) {
                // The content oracle: after a fork migration the twin
                // must hold exactly what the source holds now — this is
                // what catches skip-dirty-on-final-round, whose stale
                // pages ship under freshly recomputed, valid MACs.
                std::array<u64, pageSize / sizeof(u64)> src_words{};
                std::array<u64, pageSize / sizeof(u64)> dst_words{};
                for (const Gva gva : resident) {
                    if (!machine.monitor()
                             .enclaveReadPage(hv_id, gva,
                                              src_words.data())
                             .ok() ||
                        !twin->monitor()
                             .enclaveReadPage(result->dstId, gva,
                                              dst_words.data())
                             .ok())
                        return "migrated page does not read back";
                    if (src_words != dst_words) {
                        std::ostringstream msg;
                        msg << "migrate content oracle: twin diverges "
                               "at gva "
                            << std::hex << gva.value;
                        return msg.str();
                    }
                }
            } else if (machine.monitor().findEnclave(hv_id)) {
                return "move migration left the source enclave alive";
            }
        } else {
            const HvError e = result.error();
            lastRc = classifyHv(e);
            const bool fold_committed =
                e == HvError::ImageRollback || e == HvError::OutOfEpc ||
                e == HvError::OutOfMemory ||
                e == HvError::ImageAuthFailed ||
                e == HvError::ImageTruncated;
            if (fold_committed) {
                if (rc != 0) {
                    std::ostringstream msg;
                    msg << "migrate_live failed on the twin (restore "
                           "stage) but the spec source fold failed "
                           "upstream with "
                        << rc;
                    return msg.str();
                }
                commitMigrateFold(scratch, hv_id, move);
                const IntResult rr = specHcRestoreImage(twinState, abs);
                if (rr.isOk ||
                    classifySpec(rr.errCode) != classifyHv(e)) {
                    std::ostringstream msg;
                    msg << "migrate restore-failure classes differ: hv="
                        << hvErrorName(e) << " vs spec "
                        << (rr.isOk ? i64(0) : rr.errCode);
                    return msg.str();
                }
            } else if (rc == 0 || classifySpec(rc) != classifyHv(e)) {
                std::ostringstream msg;
                msg << "migrate quiesce-failure classes differ: hv="
                    << hvErrorName(e) << " vs spec " << rc;
                return msg.str();
            }
        }
        if (auto f = invariantsAgree("migrate_live"))
            return f;
        if (auto f = invariantsAgree("migrate_live", *twin, twinState, "twin "))
            return f;
        return epcmAgree("migrate_live");
    }

    /** Commit a scratch spec fold after migrateLive moved the source. */
    void
    commitMigrateFold(FlatState &scratch, EnclaveId hv_id, bool move)
    {
        specState = std::move(scratch);
        if (opts.mirLockstep) {
            // Keep the MIR shadow equal to the committed spec state
            // (no L14 model for the migration fold).
            mirFlat = specState;
        }
        if (move) {
            removesHappened = true;
            gptTrees.erase(hv_id);
        }
    }

    /** The restore/migration target host, created on first use. */
    void
    ensureTwin()
    {
        if (!twin)
            twin = std::make_unique<Machine>(opts.monitor);
    }

    Fail
    opEnter(const Op &op)
    {
        EnclaveId hv_id;
        i64 spec_id;
        pickEnclave(op.a, hv_id, spec_id);
        const auto abs_it = specState.enclaves.find(spec_id);
        const bool expect_ok =
            !inEnclave && abs_it != specState.enclaves.end() &&
            abs_it->second.state == enclStateInitialized;
        auto st =
            machine.monitor().hcEnclaveEnter(hv_id, machine.vcpu());
        if (st.ok() != expect_ok) {
            std::ostringstream msg;
            msg << "enter verdict: hv="
                << (st.ok() ? "ok" : hvErrorName(st.error()))
                << " but the abstract lifecycle says "
                << (expect_ok ? "ok" : "reject");
            return msg.str();
        }
        lastRc = st.ok() ? Rc::Ok : classifyHv(st.error());
        if (st.ok()) {
            inEnclave = true;
            curEnclave = hv_id;
        }
        return invariantsAgree("enter");
    }

    Fail
    opExit(const Op &)
    {
        auto st = machine.monitor().hcEnclaveExit(machine.vcpu());
        if (st.ok() != inEnclave) {
            std::ostringstream msg;
            msg << "exit verdict: hv="
                << (st.ok() ? "ok" : hvErrorName(st.error()))
                << " but vCPU is " << (inEnclave ? "inside" : "outside");
            return msg.str();
        }
        lastRc = st.ok() ? Rc::Ok : classifyHv(st.error());
        if (st.ok()) {
            inEnclave = false;
            curEnclave = invalidEnclave;
        }
        return invariantsAgree("exit");
    }

    /// @}
    /// @name Memory-access ops
    /// @{

    Fail
    opMemAccess(const Op &op)
    {
        const bool is_write = op.kind == OpKind::MemStore;
        const u64 va = decodeMemVa(op);
        hv::VCpu &cpu = machine.vcpu();
        hv::Monitor &mon = machine.monitor();

        // Uncached reference walk through the live tables.
        auto walk = inEnclave
                        ? mon.translateEnclaveUncached(
                              cpu.gptRoot, cpu.eptRoot, Gva(va), is_write)
                        : mon.translateUncached(cpu.gptRoot, cpu.eptRoot,
                                                Gva(va), is_write);

        const u64 hits_before = mon.tlb().hits();
        const u64 misses_before = mon.tlb().misses();
        bool access_ok;
        HvError access_err = HvError::None;
        u64 loaded = 0;
        if (is_write) {
            auto st = machine.memStore(Gva(va), op.d);
            access_ok = st.ok();
            access_err = st.error();
        } else {
            auto ld = machine.memLoad(Gva(va));
            access_ok = ld.ok();
            access_err = ld.error();
            if (ld.ok())
                loaded = *ld;
        }
        addFeature(0x3000 + u32(op.kind) * 4 +
                   (mon.tlb().hits() > hits_before ? 2u : 0u) +
                   (mon.tlb().misses() > misses_before ? 1u : 0u));

        // The TLB-assisted path and the uncached walk must agree: a
        // cached translation surviving an unmap is exactly the
        // stale-TLB isolation hole.
        if (access_ok != walk.ok()) {
            std::ostringstream msg;
            msg << (is_write ? "store" : "load") << " at va " << std::hex
                << va << ": cached path "
                << (access_ok ? "succeeded" : hvErrorName(access_err))
                << " but uncached walk "
                << (walk.ok() ? "succeeded" : hvErrorName(walk.error()));
            return msg.str();
        }
        if (access_ok && !is_write &&
            loaded != mon.mem().read(*walk)) {
            std::ostringstream msg;
            msg << "load at va " << std::hex << va
                << ": cached translation reads a different page than "
                   "the uncached walk";
            return msg.str();
        }
        lastRc = access_ok ? Rc::Ok : classifyHv(access_err);

        // In enclave mode, the L15 spec translation is a third oracle.
        if (inEnclave) {
            const AbsEnclave &abs =
                specState.enclaves.at(idMap.at(curEnclave));
            const QueryResult sq =
                specMemTranslate(specState, abs.gptHandle, abs.eptHandle,
                                 va, is_write);
            if (auto f = translationAgree(
                    is_write ? "store" : "load", va, walk, sq))
                return f;
        }
        return invariantsAgree("mem");
    }

    Fail
    opOsUnmap(const Op &op)
    {
        if (inEnclave)
            return std::nullopt; // guest PT management is a normal-mode op
        const u64 va = topRegionPage(op.a);
        auto st = machine.os().gptUnmap(machine.kernelGptRoot(), va);
        lastRc = st.ok() ? Rc::Ok : classifyHv(st.error());
        // MOV CR3 reload: the architectural point where stale entries
        // must die.
        (void)machine.monitor().guestSetGptRoot(machine.vcpu(),
                                                machine.vcpu().gptRoot);
        return invariantsAgree("os_unmap");
    }

    Fail
    opOsMap(const Op &op)
    {
        if (inEnclave)
            return std::nullopt;
        const u64 va = topRegionPage(op.a);
        auto st = machine.os().gptMap(machine.kernelGptRoot(), va,
                                      Gpa(va), hv::PteFlags::userRw());
        lastRc = st.ok() ? Rc::Ok : classifyHv(st.error());
        (void)machine.monitor().guestSetGptRoot(machine.vcpu(),
                                                machine.vcpu().gptRoot);
        return invariantsAgree("os_map");
    }

    Fail
    opQueryVa(const Op &op)
    {
        std::vector<EnclaveId> live;
        for (const EnclaveId id : created) {
            const auto it = specState.enclaves.find(idMap.at(id));
            if (machine.monitor().findEnclave(id) &&
                it != specState.enclaves.end() &&
                it->second.state != enclStateDead)
                live.push_back(id);
        }
        if (live.empty())
            return std::nullopt;
        const EnclaveId hv_id = live[op.a % live.size()];
        const hv::Enclave *enc = machine.monitor().findEnclave(hv_id);
        const AbsEnclave &abs = specState.enclaves.at(idMap.at(hv_id));

        u64 va;
        if (op.c % 3 == 2)
            va = abs.mbufGva + (op.b % abs.mbufPages) * pageSize;
        else
            va = elrangeGva(abs, op.b);

        lastRc = Rc::Ok;
        for (const bool is_write : {false, true}) {
            auto walk = machine.monitor().translateEnclaveUncached(
                enc->gptRoot, enc->eptRoot, Gva(va), is_write);
            const QueryResult sq =
                specMemTranslate(specState, abs.gptHandle, abs.eptHandle,
                                 va, is_write);
            if (auto f = translationAgree(
                    is_write ? "query(w)" : "query(r)", va, walk, sq))
                return f;
            if (!walk.ok())
                lastRc = classifyHv(walk.error());
            if (auto f = mirAgree("mem_translate", harness15(),
                                  "mem_translate",
                                  {encodeHandle(abs.gptHandle),
                                   encodeHandle(abs.eptHandle), uv(va),
                                   iv(is_write ? 1 : 0)},
                                  encodeQueryResult(sq)))
                return f;
        }
        return std::nullopt;
    }

    /// @}
    /// @name Layer ops (spec vs tree vs MIR on the scratch AS)
    /// @{

    Fail
    opLayerMap(const Op &op)
    {
        if (lowOnFrames())
            return std::nullopt;
        if (auto f = ensureScratch())
            return f;
        if (!scratchHandle)
            return std::nullopt;
        const u64 va = (op.a % 32) * pageSize;
        const u64 pa = (op.b % 64) * pageSize;
        // Only non-huge leaf flags: the incremental tree mirror models
        // 4 KiB mappings, like the enclave tables.
        const u64 flags =
            op.c % 2 ? pteRwFlags : (pteFlagP | pteFlagU);

        const i64 rc = specAsMap(specState, *scratchHandle, va, pa, flags);
        u64 tree_flags = flags;
        if (opts.treeSkewBug)
            tree_flags &= ~pteFlagW;
        const i64 tree_rc = treeMap(scratchTree, va, pa, tree_flags);
        lastRc = classifySpec(rc);
        if (rc != tree_rc) {
            std::ostringstream msg;
            msg << "as_map rc: flat spec " << rc << " vs tree view "
                << tree_rc;
            return msg.str();
        }
        if (auto f = mirAgree("as_map", harness11(), "as_map",
                              {encodeHandle(*scratchHandle), uv(va),
                               uv(pa), uv(flags)},
                              iv(rc)))
            return f;
        return treeAgree("as_map", scratchTree, *scratchHandle);
    }

    Fail
    opLayerUnmap(const Op &op)
    {
        if (lowOnFrames())
            return std::nullopt;
        if (auto f = ensureScratch())
            return f;
        if (!scratchHandle)
            return std::nullopt;
        const u64 va = (op.a % 32) * pageSize;
        const i64 rc = specAsUnmap(specState, *scratchHandle, va);
        const i64 tree_rc = treeUnmap(scratchTree, va);
        lastRc = classifySpec(rc);
        if (rc != tree_rc) {
            std::ostringstream msg;
            msg << "as_unmap rc: flat spec " << rc << " vs tree view "
                << tree_rc;
            return msg.str();
        }
        if (auto f = mirAgree("as_unmap", harness11(), "as_unmap",
                              {encodeHandle(*scratchHandle), uv(va)},
                              iv(rc)))
            return f;
        return treeAgree("as_unmap", scratchTree, *scratchHandle);
    }

    Fail
    opLayerQuery(const Op &op)
    {
        if (lowOnFrames())
            return std::nullopt;
        if (auto f = ensureScratch())
            return f;
        if (!scratchHandle)
            return std::nullopt;
        const u64 va = (op.a % 32) * pageSize + (op.b % 64) * 8;
        const QueryResult sq = specAsQuery(specState, *scratchHandle, va);
        const QueryResult tq = treeQuery(scratchTree, va);
        lastRc = sq.isSome ? Rc::Ok : Rc::NoSuch;
        if (!(sq == tq)) {
            std::ostringstream msg;
            msg << "as_query at va " << std::hex << va
                << ": flat spec and tree view disagree";
            return msg.str();
        }
        return mirAgree("as_query", harness11(), "as_query",
                        {encodeHandle(*scratchHandle), uv(va)},
                        encodeQueryResult(sq));
    }

    /// @}
    /// @name Shared oracles
    /// @{

    /** hv verdict (HvError::None = ok) vs the spec's code (0 = ok),
     *  exactly and then by coarse class; records lastRc. */
    Fail
    verdictsAgree(const char *what, HvError error, i64 rc)
    {
        const bool hv_ok = error == HvError::None;
        if (hv_ok != (rc == 0)) {
            std::ostringstream msg;
            msg << what << " verdicts differ: hv="
                << (hv_ok ? "ok" : hvErrorName(error)) << " spec=" << rc;
            return msg.str();
        }
        if (!hv_ok && classifyHv(error) != classifySpec(rc)) {
            std::ostringstream msg;
            msg << what << " error classes differ: hv="
                << hvErrorName(error) << " (" << rcName(classifyHv(error))
                << ") vs spec " << rc << " (" << rcName(classifySpec(rc))
                << ")";
            return msg.str();
        }
        lastRc = classifyHv(error);
        return std::nullopt;
    }

    /** A tree-mirror step must succeed wherever the flat spec's did. */
    static Fail
    treeStepOk(const char *step, i64 tree_rc, const char *spec_did)
    {
        if (tree_rc == 0)
            return std::nullopt;
        std::ostringstream msg;
        msg << step << " failed (rc " << tree_rc
            << ") where the flat spec " << spec_did;
        return msg.str();
    }

    /** hv uncached walk vs specMemTranslate on the same va. */
    Fail
    translationAgree(const char *what, u64 va, const Expected<Hpa> &walk,
                     const QueryResult &sq)
    {
        if (walk.ok() != sq.isSome) {
            std::ostringstream msg;
            msg << what << " at va " << std::hex << va << ": hv walk "
                << (walk.ok() ? "succeeded" : hvErrorName(walk.error()))
                << " but spec mem_translate "
                << (sq.isSome ? "succeeded" : "missed");
            return msg.str();
        }
        if (!walk.ok())
            return std::nullopt;
        const u64 hv_page = walk->value & ~(pageSize - 1);
        const u64 spec_page = sq.physAddr & ~(pageSize - 1);
        if (specState.geo.inEpc(spec_page)) {
            if (!machine.monitor().epcm().isEpc(Hpa(hv_page))) {
                std::ostringstream msg;
                msg << what << " at va " << std::hex << va
                    << ": spec resolves into the EPC, hv to " << hv_page;
                return msg.str();
            }
            if (!removesHappened && hv_page != spec_page) {
                std::ostringstream msg;
                msg << what << " at va " << std::hex << va
                    << ": EPC page skew (hv " << hv_page << " vs spec "
                    << spec_page << ")";
                return msg.str();
            }
        } else if (hv_page != spec_page) {
            std::ostringstream msg;
            msg << what << " at va " << std::hex << va
                << ": hv resolves to " << hv_page << ", spec to "
                << spec_page;
            return msg.str();
        }
        return std::nullopt;
    }

    /** Run the MIR model in lockstep and require exact agreement. */
    Fail
    mirAgree(const char *what, LayerHarness &harness,
             const std::string &fn, std::vector<mir::Value> args,
             const mir::Value &expect)
    {
        if (!opts.mirLockstep)
            return std::nullopt;
        auto out = harness.run(fn, std::move(args));
        if (!out.ok())
            return std::string(what) +
                   ": MIR model trapped: " + out.trap().message;
        if (!(*out == expect))
            return std::string(what) +
                   ": MIR result differs from the spec";
        if (!(mirFlat == specState))
            return std::string(what) + ": MIR state diverged: " +
                   diffStates(mirFlat, specState);
        return std::nullopt;
    }

    /** Sec. 5.2 invariants on both the concrete and abstract states. */
    Fail
    invariantsAgree(const char *where)
    {
        return invariantsAgree(where, machine, specState, "");
    }

    /** The same on one host; `host` prefixes the report ("twin "). */
    static Fail
    invariantsAgree(const char *where, const Machine &host_machine,
                    const FlatState &state, const char *host)
    {
        const auto hv_viol =
            hv::checkMonitorInvariants(host_machine.monitor());
        if (!hv_viol.empty())
            return std::string(where) + ": " + host +
                   "monitor invariant broken: " + hv_viol.front();
        const auto spec_viol = sec::checkInvariants(state);
        if (!spec_viol.empty())
            return std::string(where) + ": " + host +
                   "abstract invariant broken: " + spec_viol.front().detail;
        return std::nullopt;
    }

    /** Index-aligned EPCM agreement (exact until the first remove). */
    Fail
    epcmAgree(const char *where)
    {
        if (removesHappened)
            return std::nullopt;
        const hv::Epcm &hv_epcm = machine.monitor().epcm();
        const u64 epc_base = hv_epcm.range().start.value;
        const u64 count =
            std::min(hv_epcm.totalPages(), u64(specState.epcm.size()));
        for (u64 i = 0; i < count; ++i) {
            const hv::EpcmEntry &he =
                hv_epcm.entryFor(Hpa(epc_base + i * pageSize));
            const AbsEpcmEntry &se = specState.epcm[i];
            const i64 hv_state =
                he.state == hv::EpcPageState::Free ? epcStateFree
                : he.state == hv::EpcPageState::Reg ? epcStateReg
                                                    : epcStateTcs;
            const auto differs = [&] {
                std::ostringstream msg;
                msg << where << ": EPCM entry " << i << " differs: ";
                return msg;
            };
            if (hv_state != se.state) {
                auto msg = differs();
                msg << "state hv=" << hv_state << " spec=" << se.state;
                return msg.str();
            }
            if (hv_state == epcStateFree)
                continue;
            const auto owner_it = idMap.find(he.owner);
            const i64 hv_owner =
                owner_it == idMap.end() ? -1 : owner_it->second;
            if (hv_owner != se.owner) {
                auto msg = differs();
                msg << "owner hv=" << hv_owner << " spec=" << se.owner;
                return msg.str();
            }
            if (he.linAddr.value != se.linAddr) {
                auto msg = differs();
                msg << "linear address hv=" << std::hex
                    << he.linAddr.value << " spec=" << se.linAddr;
                return msg.str();
            }
        }
        return std::nullopt;
    }

    /** Refinement relation R between a tree mirror and the flat table. */
    Fail
    treeAgree(const char *what, const TreeState &tree, i64 handle)
    {
        const auto viol = sec::checkTreeRefinement(
            tree, specState, specState.rootOf(handle));
        if (viol.empty())
            return std::nullopt;
        return std::string(what) +
               ": refinement R broken: " + viol.front().detail;
    }

    /// @}
    /// @name Decoding helpers
    /// @{

    /**
     * ELRANGE page `sel` of an enclave: +2 slots reach exactly elEnd
     * (the off-by-one boundary) and one page beyond.
     */
    static u64
    elrangeGva(const AbsEnclave &abs, u64 sel)
    {
        const u64 el_pages = (abs.elEnd - abs.elStart) / pageSize;
        return abs.elStart + (sel % (el_pages + 2)) * pageSize;
    }

    /** Leaf flags the tree mirror installs for an enclave page. */
    u64
    treeFlags() const
    {
        return opts.treeSkewBug ? pteRwFlags & ~pteFlagW : pteRwFlags;
    }

    void
    pickEnclave(u64 sel, EnclaveId &hv_id, i64 &spec_id)
    {
        if (created.empty()) {
            // No enclave ever created: probe unknown ids (both sides
            // number identically from 1).
            hv_id = EnclaveId(1 + sel % 3);
            spec_id = i64(hv_id);
            return;
        }
        hv_id = created[sel % created.size()];
        spec_id = idMap.at(hv_id);
    }

    u64
    decodeMemVa(const Op &op) const
    {
        const u64 off = 8 * (op.c % 512);
        if (inEnclave) {
            const AbsEnclave &abs =
                specState.enclaves.at(idMap.at(curEnclave));
            switch (op.a % 4) {
              case 0:
              case 1:
                return elrangeGva(abs, op.b) + off;
              case 2:
                return abs.mbufGva +
                       (op.b % abs.mbufPages) * pageSize + off;
              default:
                return abs.elEnd + pageSize + off;
            }
        }
        return topRegionPage(op.a) + off;
    }

    /**
     * Normal-mode accesses stay in the top quarter of normal memory:
     * the OS pool is first-fit from the bottom, so page-table frames,
     * staging and mbuf backings never live up here and a random store
     * cannot legitimately invalidate a cached translation.
     */
    u64
    topRegionPage(u64 sel) const
    {
        const u64 normal_pages =
            opts.monitor.layout.secureBase() / pageSize;
        const u64 top_base = normal_pages * 3 / 4;
        const u64 top_count = normal_pages - top_base;
        return (top_base + sel % top_count) * pageSize;
    }

    /**
     * Resource guard: near the allocator frontier hv and spec diverge
     * legitimately (the monitor's normal EPT costs a few frames the
     * abstract machine does not model), so allocating ops back off
     * while any side has fewer than 16 free frames.
     */
    bool
    lowOnFrames() const
    {
        return lowOnFrames(machine, specState);
    }

    /** The same guard on one host (the twin has the same model gap). */
    static bool
    lowOnFrames(const Machine &host_machine, const FlatState &state)
    {
        const auto &fa = host_machine.monitor().ptAlloc();
        if (fa.totalFrames() - fa.usedFrames() < 16)
            return true;
        u64 free_spec = 0;
        for (const bool used : state.allocated)
            free_spec += used ? 0 : 1;
        return free_spec < 16;
    }

    Fail
    ensureScratch()
    {
        if (scratchHandle || scratchFailed)
            return std::nullopt;
        const IntResult res = specAsCreate(specState);
        if (auto f = mirAgree("as_create", harness11(), "as_create", {},
                              encodeHandleResult(res)))
            return f;
        if (!res.isOk) {
            scratchFailed = true;
            return std::nullopt;
        }
        scratchHandle = i64(res.value);
        scratchTree = TreeState{};
        return std::nullopt;
    }

    /// @}

    LayerHarness &
    harness11()
    {
        if (!h11)
            h11 = std::make_unique<LayerHarness>(11, mirFlat);
        return *h11;
    }

    LayerHarness &
    harness14()
    {
        if (!h14)
            h14 = std::make_unique<LayerHarness>(14, mirFlat);
        return *h14;
    }

    LayerHarness &
    harness15()
    {
        if (!h15)
            h15 = std::make_unique<LayerHarness>(15, mirFlat);
        return *h15;
    }

    void
    addFeature(u32 feature)
    {
        featureSet.insert(feature & 0xFFFF);
    }

    static u32
    pairFeature(u32 prev, u32 cur)
    {
        u32 x = prev * 211 + cur * 7 + 0x9e37;
        x ^= x >> 7;
        return 0x8000 | (x & 0x7FFF);
    }

    /** One sealed blob in (modeled) OS custody: hv + spec images. */
    struct SealedPair
    {
        hv::SealedBlob hvBlob;
        i64 specOwner = 0;
        u64 gva = 0;
        u64 version = 0;
    };

    /** One enclave image in (modeled) OS custody, append-only like the
     *  blob history: stale images stay presentable, which is what the
     *  anti-rollback ledger has to reject. */
    struct ImagePair
    {
        hv::EnclaveImage hvImage;
        AbsImage absImage;
    };

    const ExecOptions &opts;
    Machine machine;
    FlatState specState;
    FlatState mirFlat;
    std::unique_ptr<LayerHarness> h11, h14, h15;
    std::map<EnclaveId, i64> idMap;
    std::map<EnclaveId, TreeState> gptTrees;
    std::vector<EnclaveId> created;
    std::vector<SealedPair> sealedBlobs;
    std::vector<ImagePair> images;
    /** The restore/migration target host (lazy) and its spec shadow. */
    std::unique_ptr<Machine> twin;
    FlatState twinState;
    bool removesHappened = false;
    bool inEnclave = false;
    EnclaveId curEnclave = invalidEnclave;
    std::optional<i64> scratchHandle;
    bool scratchFailed = false;
    TreeState scratchTree;
    Gpa stagePage{};
    Rc lastRc = Rc::Skipped;
    u32 prevSig = 0;
    std::set<u32> featureSet;
};

} // namespace

ExecOptions
ExecOptions::standard()
{
    ExecOptions opts;
    opts.monitor.layout.totalBytes = 4 * 1024 * 1024;
    opts.monitor.layout.ptAreaBytes = 1 * 1024 * 1024;
    opts.monitor.layout.epcBytes = 1 * 1024 * 1024;
    return opts;
}

std::vector<std::string>
plantedBugNames()
{
    return {"elrange-off-by-one", "epcm-owner-skip",   "stale-tlb",
            "wrong-perm-mask",    "frame-double-free", "tree-skew",
            "skip-shootdown-ack", "seal-rollback-accept",
            "batch-skip-middle-invalidate",
            "skip-dirty-page-on-final-round"};
}

bool
applyPlantedBug(ExecOptions &opts, const std::string &name)
{
    if (name == "elrange-off-by-one")
        opts.monitor.planted.elrangeOffByOne = true;
    else if (name == "epcm-owner-skip")
        opts.monitor.planted.skipEpcmOwnerCheck = true;
    else if (name == "stale-tlb")
        opts.monitor.planted.staleTlbOnUnmap = true;
    else if (name == "wrong-perm-mask")
        opts.monitor.planted.wrongPermMask = true;
    else if (name == "frame-double-free")
        opts.monitor.planted.frameDoubleFree = true;
    else if (name == "tree-skew")
        opts.treeSkewBug = true;
    else if (name == "skip-shootdown-ack") {
        opts.smpFuzz = true;
        opts.skipShootdownAckBug = true;
    } else if (name == "seal-rollback-accept")
        opts.monitor.planted.acceptSealRollback = true;
    else if (name == "batch-skip-middle-invalidate") {
        // Enter/exit flush the whole domain in the single-vCPU TLB
        // model, so the skipped middle invalidation is only observable
        // through a *sibling* vCPU's cache: fuzz it on the SMP machine,
        // where the coherence oracle sees the surviving entry.
        opts.smpFuzz = true;
        opts.monitor.planted.batchSkipMiddleInvalidate = true;
    } else if (name == "skip-dirty-page-on-final-round") {
        // Silent at the protocol level: the stale staged pages ship
        // under freshly recomputed, valid MACs, so only the
        // migrate_live content oracle on the restored twin catches it.
        opts.monitor.planted.skipDirtyOnFinalRound = true;
    } else
        return false;
    return true;
}

ExecResult
executeTrace(const ExecOptions &opts, const Trace &trace)
{
    if (needsSmpExecutor(opts, trace))
        return executeSmpTrace(opts, trace);
    Executor executor(opts);
    return executor.run(trace);
}

std::string
renderExecResult(const ExecResult &result)
{
    std::ostringstream out;
    out << "result: " << (result.divergence ? "divergence" : "clean")
        << "\n";
    out << "ops: " << result.opsExecuted << "\n";
    out << "signature: 0x" << std::hex << result.signature << std::dec
        << "\n";
    out << "features: " << result.features.size() << "\n";
    if (result.divergence) {
        out << "failed_op: " << result.failedOp << "\n";
        out << "detail: " << result.detail << "\n";
    }
    return out.str();
}

} // namespace hev::fuzz
