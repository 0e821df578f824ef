#include "fuzz/smp_executor.hh"

#include <array>
#include <optional>
#include <set>
#include <sstream>

#include "fuzz/forensics.hh"
#include "hv/hv_invariants.hh"
#include "obs/flight.hh"
#include "smp/smp_invariants.hh"
#include "smp/smp_monitor.hh"
#include "support/rng.hh"

namespace hev::fuzz
{

namespace
{

using smp::SmpMonitor;
using smp::VcpuId;

/** ELRANGE bases the two enclave slots rotate through. */
constexpr u64 elrangeBases[2] = {0x10'0000, 0x30'0000};
/** Normal-VM VA slots the OS ops map/unmap/access. */
constexpr u64 slotVaBase = 0x50'0000;
constexpr u64 slotCount = 4;

/** Deterministic differential harness around one SmpMonitor. */
class SmpExecutor
{
  public:
    SmpExecutor(const ExecOptions &opts, u64 schedule_seed)
        : smpCfg(makeConfig(opts)), smp(smpCfg),
          sched(schedule_seed ? schedule_seed : 0x51ed)
    {
        smp.setIpiDriver([this](VcpuId, u64) {
            for (VcpuId w = 0; w < smp.vcpuCount(); ++w)
                smp.serviceIpis(w);
        });
    }

    ExecResult run(const ExecOptions &opts, const Trace &trace);

  private:
    static smp::SmpConfig
    makeConfig(const ExecOptions &opts)
    {
        smp::SmpConfig cfg;
        cfg.monitor = opts.monitor;
        cfg.vcpus = opts.smpVcpus < 1 ? 1
                    : opts.smpVcpus > 8 ? 8
                                        : opts.smpVcpus;
        cfg.cacheCapacity = 8;
        cfg.planted.skipShootdownAck = opts.skipShootdownAckBug;
        return cfg;
    }

    bool setupScene(std::string *detail);

    /** Execute one op; returns its folded outcome code. */
    u64 applyOp(const Op &op);

    /** Status/Expected outcome -> small deterministic code. */
    static u64
    codeOf(const Status &st)
    {
        return st ? 0 : u64(st.error()) + 1;
    }

    u64 enclaveIdOf(u64 sel) const;

    smp::SmpConfig smpCfg;
    SmpMonitor smp;
    Rng sched;
    std::array<std::optional<hv::EnclaveHandle>, 2> enclaves;
    std::array<Gpa, slotCount> backing{};
    /** Sealed blobs in (modeled) OS custody, append-only. */
    std::vector<hv::SealedBlob> blobs;
    /** Enclave images in (modeled) OS custody, append-only. */
    std::vector<hv::EnclaveImage> images;
};

u64
SmpExecutor::enclaveIdOf(u64 sel) const
{
    const auto &slot = enclaves[sel % enclaves.size()];
    // A retired slot decodes to a never-valid id so lifecycle ops
    // still exercise the NoSuchEnclave paths deterministically.
    return slot ? u64(slot->id) : 9999;
}

bool
SmpExecutor::setupScene(std::string *detail)
{
    // Three Reg pages (plus the TCS at page 3) so a batched evict can
    // cover a run of three evictable pages — the minimum where the
    // skip-middle planted bug has a middle page to forget.
    auto first = smp.machine().setupEnclave(elrangeBases[0], 3, 1, 0x111);
    if (!first) {
        *detail = std::string("scene enclave setup failed: ") +
                  hvErrorName(first.error());
        return false;
    }
    enclaves[0] = *first;
    for (u64 i = 0; i < slotCount; ++i) {
        auto page = smp.machine().os().allocPage();
        if (!page) {
            *detail = "scene slot allocation failed";
            return false;
        }
        backing[i] = *page;
        if (i % 2 == 0)
            (void)smp.osMap(0, slotVaBase + i * pageSize, *page);
    }
    return true;
}

u64
SmpExecutor::applyOp(const Op &op)
{
    const VcpuId v = op.vcpu % smp.vcpuCount();
    const bool inEnclave =
        smp.archOf(v).mode == hv::CpuMode::GuestEnclave;
    const u64 slot = op.a % slotCount;
    const u64 slotVa = slotVaBase + slot * pageSize;

    // Address domain: enclave-resident vCPUs touch their ELRANGE,
    // normal-mode ones the OS VA slots.
    u64 va = slotVa + (op.c % (pageSize / 8)) * 8;
    if (inEnclave) {
        const EnclaveId current = smp.archOf(v).currentEnclave;
        u64 base = elrangeBases[0];
        for (const auto &slot_handle : enclaves)
            if (slot_handle && slot_handle->id == current)
                base = slot_handle->elrange.start.value;
        // Page index from op.b so a resident vCPU can cache any page
        // of its ELRANGE (including the middle page of a batch); every
        // pre-batch seed uses b=0, which degenerates to the old decode.
        va = base + (op.b % 4) * pageSize + (op.c % 32) * 8;
    }

    switch (op.kind) {
      case OpKind::HcInit: {
        const u64 which = op.a % enclaves.size();
        if (enclaves[which])
            return 100; // slot occupied; deterministic no-op code
        auto handle = smp.machine().setupEnclave(
            elrangeBases[which], 1 + op.b % 2, 1, op.c % 1000);
        if (!handle)
            return u64(handle.error()) + 1;
        enclaves[which] = *handle;
        return 0;
      }
      case OpKind::HcAddPage: {
        const u64 id = enclaveIdOf(op.a);
        const u64 gva = elrangeBases[op.a % 2] + (op.b % 4) * pageSize;
        return codeOf(smp.hcEnclaveAddPage(
            v, EnclaveId(id), Gva(gva), Gpa(backing[op.c % slotCount]),
            op.d % 2 ? hv::AddPageKind::Tcs : hv::AddPageKind::Reg));
      }
      case OpKind::HcInitFinish:
        return codeOf(
            smp.hcEnclaveInitFinish(v, EnclaveId(enclaveIdOf(op.a))));
      case OpKind::HcRemove: {
        const u64 which = op.a % enclaves.size();
        const auto st =
            smp.hcEnclaveRemove(v, EnclaveId(enclaveIdOf(op.a)));
        if (st)
            enclaves[which].reset();
        return codeOf(st);
      }
      case OpKind::Enter:
        return codeOf(
            smp.hcEnclaveEnter(v, EnclaveId(enclaveIdOf(op.a))));
      case OpKind::Exit:
        return codeOf(smp.hcEnclaveExit(v));
      case OpKind::MemLoad:
      case OpKind::LayerQuery:
      case OpKind::QueryVa: {
        auto value = smp.memLoad(v, Gva(va));
        if (!value)
            return u64(value.error()) + 1;
        // Differential check: the cached access must read the same
        // word a TLB-less authoritative walk reaches right now.
        auto auth = smp.translateAuthoritative(
            v, smp.archOf(v).domain, Gva(va), false);
        if (auth && !smp.shootdownInFlight(smp.archOf(v).domain)) {
            const u64 direct = smp.monitor().mem().read(*auth);
            if (direct != *value)
                return 0xd1ff; // divergence sentinel; oracle flags it
        }
        return (*value % 251) + 300;
      }
      case OpKind::MemStore:
        return codeOf(smp.memStore(v, Gva(va), op.d));
      case OpKind::OsUnmap:
        return codeOf(smp.osUnmap(v, slotVa));
      case OpKind::OsMap:
        return codeOf(smp.osMap(v, slotVa, backing[slot]));
      case OpKind::LayerMap:
        return codeOf(smp.osProtectRo(v, slotVa, backing[slot]));
      case OpKind::LayerUnmap:
        return codeOf(smp.osUnmap(v, slotVa));
      case OpKind::EvictPage: {
        const u64 id = enclaveIdOf(op.a);
        const u64 gva = elrangeBases[op.a % 2] + (op.b % 4) * pageSize;
        auto blob = smp.hcEnclaveEvictPage(v, EnclaveId(id), Gva(gva));
        if (!blob)
            return u64(blob.error()) + 1;
        blobs.push_back(*blob);
        return 0;
      }
      case OpKind::ReloadPage: {
        if (blobs.empty())
            return 99; // nothing in custody; deterministic no-op code
        const hv::SealedBlob &blob = blobs[op.c % blobs.size()];
        return codeOf(smp.hcEnclaveReloadPage(
            v, EnclaveId(enclaveIdOf(op.a)), blob));
      }
      case OpKind::AddPagesBatch: {
        const u64 id = enclaveIdOf(op.a);
        const u64 count = 1 + op.d % 3;
        std::vector<hv::AddPageRequest> reqs;
        for (u64 i = 0; i < count; ++i)
            reqs.push_back({Gva(elrangeBases[op.a % 2] +
                                ((op.b + i) % 4) * pageSize),
                            Gpa(backing[op.c % slotCount]),
                            hv::AddPageKind::Reg});
        return codeOf(
            smp.hcEnclaveAddPagesBatch(v, EnclaveId(id), reqs));
      }
      case OpKind::EvictPagesBatch: {
        const u64 id = enclaveIdOf(op.a);
        const u64 count = 1 + op.d % 3;
        std::vector<Gva> gvas;
        for (u64 i = 0; i < count; ++i)
            gvas.push_back(Gva(elrangeBases[op.a % 2] +
                               ((op.b + i) % 4) * pageSize));
        auto out = smp.hcEnclaveEvictPagesBatch(v, EnclaveId(id), gvas);
        if (!out)
            return u64(out.error()) + 1;
        for (const hv::SealedBlob &blob : *out)
            blobs.push_back(blob);
        return 0;
      }
      case OpKind::Snapshot: {
        const u64 which = op.a % enclaves.size();
        auto image = smp.hcEnclaveSnapshot(
            v, EnclaveId(enclaveIdOf(op.a)),
            op.b & 1 ? hv::SnapshotMode::Move : hv::SnapshotMode::Fork);
        if (!image)
            return u64(image.error()) + 1;
        if (op.b & 1)
            enclaves[which].reset(); // move retired the source
        images.push_back(std::move(*image));
        return 0;
      }
      case OpKind::RestoreImage: {
        if (images.empty())
            return 98; // nothing in custody; deterministic no-op code
        auto twin = smp.hcEnclaveRestoreImage(
            v, images[op.c % images.size()]);
        return twin ? 0 : u64(twin.error()) + 1;
      }
      case OpKind::MigrateLive:
        // The live-migration engine drives a Machine pair, not an
        // SmpMonitor; the SMP stream folds it to a deterministic no-op.
        return 97;
    }
    return 0;
}

ExecResult
SmpExecutor::run(const ExecOptions &opts, const Trace &trace)
{
    ExecResult result;
    u64 signature = 0xcbf29ce484222325ull;
    const auto fold = [&signature](u64 value) {
        signature ^= value;
        signature *= 0x100000001b3ull;
    };
    std::set<u32> featureSet;

    std::string detail;
    if (!setupScene(&detail)) {
        result.divergence = true;
        result.detail = detail;
        result.signature = signature;
        return result;
    }

    const u16 runTag = obs::newFlightRunTag();
    const u64 cap = std::min<u64>(trace.ops.size(), opts.maxOps);
    for (u64 i = 0; i < cap; ++i) {
        const Op &op = trace.ops[i];
        const VcpuId v = op.vcpu % smp.vcpuCount();
        const u64 code = applyOp(op);
        fold(u64(op.kind));
        fold(v);
        fold(code);
        ++result.opsExecuted;
        obs::flightRecord(u16(op.kind), op.a, op.b, op.c, op.d, code,
                          u16(i), runTag, u8(op.vcpu),
                          obs::flightReplayable);
        featureSet.insert((u32(op.kind) << 8) | u32(code & 0xff));
        featureSet.insert(0x8000u | (u32(op.kind) << 4) | v);

        auto violations = smp::checkTlbCoherence(smp);
        if (violations.empty())
            violations = smp::checkSmpInvariants(smp);
        if (violations.empty() && code == 0xd1ff)
            violations.push_back(
                "cached load disagrees with the authoritative walk");
        if (violations.empty() && (i % 8 == 7 || i + 1 == cap))
            violations = hv::checkMonitorInvariants(smp.monitor());
        if (!violations.empty()) {
            result.divergence = true;
            result.failedOp = i;
            std::ostringstream os;
            os << "smp op " << i << " (" << opKindName(op.kind)
               << " vcpu " << v << "): " << violations.front();
            result.detail = os.str();
            featureSet.insert(0xffffu);
            const std::string path =
                obs::forensicsPathOrEnv(opts.forensicsPath);
            if (!path.empty()) {
                ForensicsInput in;
                in.kind = "smp-fuzz";
                in.detail = result.detail;
                in.failedOp = i;
                in.runTag = runTag;
                in.scheduleSeed = trace.scheduleSeed;
                in.digests["epcm"] =
                    hv::epcmDigest(smp.monitor().epcm());
                for (VcpuId w = 0; w < smp.vcpuCount(); ++w)
                    in.digests["tlb.v" + std::to_string(w)] =
                        hv::tlbDigest(smp.tlbOf(w));
                emitForensics(path, in);
            }
            break;
        }

        // Scheduled IPI delivery: between ops, each vCPU may or may
        // not get around to servicing its mailbox — drawn from the
        // schedule stream, so the interleaving replays exactly.
        for (VcpuId w = 0; w < smp.vcpuCount(); ++w)
            if (sched.chance(1, 3))
                smp.serviceIpis(w);
    }

    result.signature = signature;
    result.features.assign(featureSet.begin(), featureSet.end());
    return result;
}

} // namespace

bool
needsSmpExecutor(const ExecOptions &opts, const Trace &trace)
{
    if (opts.smpFuzz || trace.scheduleSeed != 0)
        return true;
    for (const Op &op : trace.ops)
        if (op.vcpu != 0)
            return true;
    return false;
}

ExecResult
executeSmpTrace(const ExecOptions &opts, const Trace &trace)
{
    SmpExecutor executor(opts, trace.scheduleSeed);
    return executor.run(opts, trace);
}

} // namespace hev::fuzz
