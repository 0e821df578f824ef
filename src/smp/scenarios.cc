#include "smp/scenarios.hh"

#include <array>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hv/hv_invariants.hh"
#include "obs/flight.hh"
#include "sec/schedule_ni.hh"
#include "smp/sched.hh"
#include "smp/smp_invariants.hh"
#include "smp/smp_monitor.hh"

namespace hev::smp
{
namespace
{

/** ELRANGE bases the coherence shards rotate enclaves through. */
constexpr u64 elrangeBases[] = {0x10'0000, 0x30'0000};
/** Base of the normal-VM VA slots the OS actors map and unmap. */
constexpr u64 slotVaBase = 0x50'0000;
constexpr u64 slotCount = 4;

std::string
shardName(const std::string &prefix, int block)
{
    return prefix + "/s" + std::to_string(block);
}

/** Flight-recorder op ids of the scenario steps (informational). */
constexpr u16 flightOpCoherenceStep = obs::flightOpBase + 0;
constexpr u16 flightOpPagingStep = obs::flightOpBase + 1;

/** Bundle a failing shard's state: oracle detail + machine digests. */
void
emitScenarioForensics(const std::string &configured_path,
                      const SmpMonitor &smp, const std::string &scenario,
                      const std::string &detail, u64 step, u16 run_tag)
{
    const std::string path = obs::forensicsPathOrEnv(configured_path);
    if (path.empty())
        return;
    obs::ForensicsBundle bundle;
    bundle.kind = "smp-scenario";
    bundle.scenario = scenario;
    bundle.detail = detail;
    bundle.failedOp = step;
    bundle.digests["epcm"] = hv::epcmDigest(smp.monitor().epcm());
    for (VcpuId w = 0; w < smp.vcpuCount(); ++w)
        bundle.digests["tlb.v" + std::to_string(w)] =
            hv::tlbDigest(smp.tlbOf(w));
    bundle.tail = obs::flightTail(run_tag);
    bundle.opName = [](u16 op) -> std::string {
        switch (op) {
          case flightOpCoherenceStep: return "coherence_step";
          case flightOpPagingStep: return "paging_step";
          default: return "";
        }
    };
    obs::writeForensicsBundle(bundle, path);
}

std::string
joinViolations(const char *oracle, u64 step,
               const std::vector<std::string> &violations)
{
    std::ostringstream os;
    os << oracle << " after step " << step << ": " << violations.front();
    if (violations.size() > 1)
        os << " (+" << violations.size() - 1 << " more)";
    return os.str();
}

/**
 * One scheduled multi-vCPU program with per-step oracle sweeps.
 * Returns the first violation's detail, nullopt on a clean run.
 */
std::optional<std::string>
coherenceShard(check::ShardContext &ctx, const SmpScenarioOptions &opts)
{
    const u16 runTag = obs::newFlightRunTag();
    SmpConfig cfg;
    cfg.vcpus = opts.vcpus;
    cfg.cacheCapacity = 8;
    cfg.planted = opts.planted;
    cfg.monitor.planted = opts.monitorPlanted;
    SmpMonitor smp(cfg);
    // Single-threaded runs must retire IPIs themselves: the driver
    // services every vCPU while an initiator waits for acks.
    smp.setIpiDriver([&smp](VcpuId, u64) {
        for (VcpuId w = 0; w < smp.vcpuCount(); ++w)
            smp.serviceIpis(w);
    });

    std::vector<hv::EnclaveHandle> enclaves;
    for (const u64 base : elrangeBases) {
        auto handle = smp.machine().setupEnclave(base, 2, 1, base);
        if (!handle)
            return std::string("scene setup failed: ") +
                   hvErrorName(handle.error());
        enclaves.push_back(*handle);
    }

    std::vector<Gpa> backing;
    for (u64 i = 0; i < slotCount; ++i) {
        auto page = smp.machine().os().allocPage();
        if (!page)
            return std::string("slot backing allocation failed");
        backing.push_back(*page);
        // Half the slots start mapped so early loads can cache entries.
        if (i % 2 == 0)
            (void)smp.osMap(0, slotVaBase + i * pageSize, *page);
    }

    /** Sealed blobs in (modeled) OS custody, append-only: later reloads
     *  may present stale versions, which must fail typed. */
    std::vector<hv::SealedBlob> custody;

    std::optional<std::string> failure;
    u64 failureStep = 0;
    auto sweep = [&](u64 step) {
        if (failure)
            return;
        failureStep = step;
        auto violations = checkTlbCoherence(smp);
        if (!violations.empty()) {
            failure = joinViolations("tlb-coherence", step, violations);
            return;
        }
        violations = checkSmpInvariants(smp);
        if (!violations.empty())
            failure = joinViolations("smp-invariants", step, violations);
    };

    Rng &rng = ctx.rng();
    InterleavingScheduler sched(rng.split(1));
    const u64 stepsEach = u64(opts.stepsPerShard) / opts.vcpus + 1;

    for (VcpuId v = 0; v < smp.vcpuCount(); ++v) {
        sched.addActor("vcpu" + std::to_string(v), [&, v](u64 step) {
            if (failure)
                return StepOutcome::Done;
            if (smp.archOf(v).mode == hv::CpuMode::GuestEnclave) {
                const hv::EnclaveHandle *handle = nullptr;
                for (const auto &e : enclaves)
                    if (e.id == smp.archOf(v).currentEnclave)
                        handle = &e;
                const u64 word =
                    handle ? handle->elrange.start.value +
                                 rng.below(16) * sizeof(u64)
                           : 0;
                switch (rng.below(4)) {
                  case 0:
                    (void)smp.hcEnclaveExit(v);
                    break;
                  case 1: {
                    // Loads span all three ELRANGE pages so this vCPU's
                    // TLB can hold the *middle* page of a later batched
                    // evict — exactly the entry the planted skip-middle
                    // bug forgets to shoot down.
                    const u64 page = rng.below(3) * pageSize;
                    (void)smp.memLoad(v, Gva(word + page));
                    break;
                  }
                  case 2:
                    (void)smp.memStore(v, Gva(word), step);
                    break;
                  default: {
                    auto report = smp.hcEnclaveReport(v);
                    if (report &&
                        report->id != smp.archOf(v).currentEnclave)
                        failure = "report named the wrong enclave";
                    break;
                  }
                }
            } else {
                const u64 slot = rng.below(slotCount);
                const u64 va = slotVaBase + slot * pageSize;
                switch (rng.below(12)) {
                  case 0:
                    (void)smp.hcEnclaveEnter(
                        v, enclaves[rng.below(enclaves.size())].id);
                    break;
                  case 1:
                  case 2:
                    (void)smp.memLoad(v, Gva(va + rng.below(8) * 8));
                    break;
                  case 3:
                    (void)smp.memStore(v, Gva(va + rng.below(8) * 8),
                                       step);
                    break;
                  case 4:
                    (void)smp.osUnmap(v, va);
                    break;
                  case 5:
                    (void)smp.osMap(v, va, backing[slot]);
                    break;
                  case 6:
                    (void)smp.osProtectRo(v, va, backing[slot]);
                    break;
                  case 7: {
                    // EWB: evict a page of some live enclave; failures
                    // (unmapped VA, resident sibling races) are typed.
                    const u64 j = rng.below(enclaves.size());
                    const Gva gva{enclaves[j].elrange.start.value +
                                  rng.below(3) * pageSize};
                    auto blob = smp.hcEnclaveEvictPage(
                        v, enclaves[j].id, gva);
                    if (blob)
                        custody.push_back(*blob);
                    break;
                  }
                  case 8:
                    // ELD: half the time present the freshest blob to
                    // its true owner (restoring the page keeps later
                    // batched evicts viable), otherwise any blob to any
                    // enclave — possibly stale (rollback) or aimed at
                    // the wrong enclave (replay); rejections are typed.
                    if (!custody.empty()) {
                        if (rng.chance(1, 2)) {
                            const hv::SealedBlob &fresh = custody.back();
                            (void)smp.hcEnclaveReloadPage(
                                v, fresh.owner, fresh);
                        } else {
                            (void)smp.hcEnclaveReloadPage(
                                v,
                                enclaves[rng.below(enclaves.size())].id,
                                custody[rng.below(custody.size())]);
                        }
                    }
                    break;
                  case 9: {
                    // Batched EWB: the whole three-page ELRANGE run in
                    // one hypercall, retired by ONE vectored shootdown.
                    // Prefer the enclave someone is currently running —
                    // paging out a live enclave is the case where the
                    // remote-invalidation vector earns its keep (and
                    // where a skipped middle page leaves a stale entry).
                    // Failures (already-evicted pages, resident races)
                    // roll the batch back typed; successful blobs enter
                    // custody like their single-evict cousins.
                    u64 j = rng.below(enclaves.size());
                    for (VcpuId w = 0; w < smp.vcpuCount(); ++w) {
                        if (smp.archOf(w).mode !=
                            hv::CpuMode::GuestEnclave)
                            continue;
                        for (u64 e = 0; e < enclaves.size(); ++e)
                            if (enclaves[e].id ==
                                smp.archOf(w).currentEnclave)
                                j = e;
                        break;
                    }
                    std::vector<Gva> gvas;
                    for (u64 p = 0; p < 3; ++p)
                        gvas.push_back(
                            Gva(enclaves[j].elrange.start.value +
                                p * pageSize));
                    auto blobs = smp.hcEnclaveEvictPagesBatch(
                        v, enclaves[j].id, gvas);
                    if (blobs)
                        for (const hv::SealedBlob &b : *blobs)
                            custody.push_back(b);
                    break;
                  }
                  case 10: {
                    // Batched OS page-table maintenance over a slot
                    // pair: unmap or read-only downgrade, one ack
                    // generation per batch either way.
                    const u64 s1 = (slot + 1) % slotCount;
                    const std::vector<u64> vas = {
                        va, slotVaBase + s1 * pageSize};
                    if (rng.chance(1, 2)) {
                        (void)smp.osUnmapBatch(v, vas);
                    } else {
                        (void)smp.osProtectRoBatch(
                            v, {{vas[0], backing[slot]},
                                {vas[1], backing[s1]}});
                    }
                    break;
                  }
                  default:
                    if (rng.chance(1, 8)) {
                        // Rare full teardown: destroy (fails while any
                        // vCPU is resident) and rebuild on success.
                        const u64 j = rng.below(enclaves.size());
                        if (smp.hcEnclaveRemove(v, enclaves[j].id)) {
                            auto fresh = smp.machine().setupEnclave(
                                elrangeBases[j], 2, 1, step + 1);
                            if (fresh)
                                enclaves[j] = *fresh;
                        }
                    } else {
                        smp.serviceIpis(v);
                    }
                }
            }
            smp.serviceIpis(v);
            ctx.tick();
            sweep(step);
            obs::flightRecord(flightOpCoherenceStep, v, step, 0, 0,
                              failure ? 1 : 0, u16(step), runTag,
                              u8(v));
            return failure || step >= stepsEach * smp.vcpuCount()
                       ? StepOutcome::Done
                       : StepOutcome::Ran;
        });
    }

    (void)sched.run(u64(opts.stepsPerShard));
    if (failure) {
        emitScenarioForensics(opts.forensicsPath, smp,
                              "smp/coherence", *failure, failureStep,
                              runTag);
        return failure;
    }

    const auto structural =
        hv::checkMonitorInvariants(smp.monitor());
    if (!structural.empty()) {
        const std::string detail =
            "monitor invariants after run: " + structural.front();
        emitScenarioForensics(opts.forensicsPath, smp,
                              "smp/coherence", detail, failureStep,
                              runTag);
        return detail;
    }
    return std::nullopt;
}

/**
 * One evict/reload round-trip property shard.  Every successful
 * evict -> reload pair must restore bit-identical page content and the
 * same EPCM metadata (owner, kind, linear address) at the — possibly
 * different — destination frame; a superseded blob must fail with
 * SealRollback and a cross-enclave blob with SealAuthFailed; the
 * monitor invariants hold after every paging hypercall.
 */
std::optional<std::string>
pagingShard(check::ShardContext &ctx, const SmpScenarioOptions &opts)
{
    const u16 runTag = obs::newFlightRunTag();
    SmpConfig cfg;
    cfg.vcpus = opts.vcpus;
    cfg.cacheCapacity = 8;
    SmpMonitor smp(cfg);
    smp.setIpiDriver([&smp](VcpuId, u64) {
        for (VcpuId w = 0; w < smp.vcpuCount(); ++w)
            smp.serviceIpis(w);
    });

    std::vector<hv::EnclaveHandle> enclaves;
    for (const u64 base : elrangeBases) {
        auto handle = smp.machine().setupEnclave(base, 2, 1,
                                                 base ^ 0x5eed);
        if (!handle)
            return std::string("scene setup failed: ") +
                   hvErrorName(handle.error());
        enclaves.push_back(*handle);
    }

    hv::Monitor &mon = smp.monitor();
    const auto pageOf = [&](EnclaveId id, u64 gva) -> std::optional<Hpa> {
        const hv::Enclave *enc = mon.findEnclave(id);
        if (!enc)
            return std::nullopt;
        auto walk = mon.translateEnclaveUncached(enc->gptRoot,
                                                 enc->eptRoot, Gva(gva),
                                                 false);
        if (!walk.ok())
            return std::nullopt;
        return Hpa(walk->value & ~(pageSize - 1));
    };

    // The last blob each (enclave slot, page) round-trip used: once its
    // page has been evicted again, it is superseded and must roll back.
    std::map<std::pair<u64, u64>, hv::SealedBlob> superseded;

    Rng &rng = ctx.rng();
    for (int step = 0; step < opts.stepsPerShard; ++step) {
        ctx.tick();
        const u64 j = rng.below(enclaves.size());
        const EnclaveId id = enclaves[j].id;
        const u64 gva = enclaves[j].elrange.start.value +
                        rng.below(3) * pageSize;
        obs::flightRecord(flightOpPagingStep, j, gva, 0, 0, 0,
                          u16(step), runTag);
        const auto fail = [&](std::string detail) {
            emitScenarioForensics(opts.forensicsPath, smp,
                                  "smp/paging-roundtrip", detail,
                                  u64(step), runTag);
            return detail;
        };
        const auto before = pageOf(id, gva);
        if (!before)
            continue;
        std::array<u64, pageSize / sizeof(u64)> snapshot{};
        for (u64 off = 0; off < pageSize; off += sizeof(u64))
            snapshot[off / sizeof(u64)] =
                mon.mem().read(Hpa(before->value + off));
        const hv::EpcmEntry entry = mon.epcm().entryFor(*before);

        auto blob = smp.hcEnclaveEvictPage(0, id, Gva(gva));
        if (!blob)
            return fail(std::string("evict of a resident page failed: ") +
                        hvErrorName(blob.error()));
        if (blob->words != snapshot)
            return fail("sealed blob does not capture the page content");
        auto violations = hv::checkMonitorInvariants(mon);
        if (!violations.empty())
            return fail(joinViolations("post-evict invariants", u64(step),
                                       violations));

        // Cross-enclave replay: the sibling must reject on authenticity.
        if (rng.chance(1, 3)) {
            const auto replay = smp.hcEnclaveReloadPage(
                0, enclaves[1 - j].id, *blob);
            if (replay || replay.error() != HvError::SealAuthFailed)
                return fail("cross-enclave replay was not rejected with "
                            "SealAuthFailed");
        }
        // Anti-rollback: a blob superseded by this evict's fresh
        // version must be rejected.
        const auto key = std::make_pair(j, gva);
        auto stale = superseded.find(key);
        if (stale != superseded.end()) {
            const auto rollback =
                smp.hcEnclaveReloadPage(0, id, stale->second);
            if (rollback ||
                rollback.error() != HvError::SealRollback)
                return fail("stale blob was not rejected with SealRollback");
        }

        const auto reloaded = smp.hcEnclaveReloadPage(0, id, *blob);
        if (!reloaded)
            return fail(std::string("reload of a fresh blob failed: ") +
                        hvErrorName(reloaded.error()));
        const auto after = pageOf(id, gva);
        if (!after)
            return fail("reloaded page does not translate");
        for (u64 off = 0; off < pageSize; off += sizeof(u64))
            if (mon.mem().read(Hpa(after->value + off)) !=
                snapshot[off / sizeof(u64)])
                return fail("reload did not restore bit-identical content");
        if (!(mon.epcm().entryFor(*after) == entry))
            return fail("reload did not restore the EPCM metadata");
        violations = hv::checkMonitorInvariants(mon);
        if (!violations.empty())
            return fail(joinViolations("post-reload invariants", u64(step),
                                       violations));
        superseded[key] = *blob;
    }
    return std::nullopt;
}

/** One noninterference-over-schedules shard. */
std::optional<std::string>
niScheduleShard(check::ShardContext &ctx)
{
    sec::ScheduleNiOptions opts;
    const auto violation = sec::checkNiOverSchedules(ctx.rng(), opts);
    ctx.tick(u64(opts.rounds) * 3);
    if (violation)
        return violation->lemma + ": " + violation->detail;
    return std::nullopt;
}

} // namespace

std::vector<check::Scenario>
smpScenarios(const SmpScenarioOptions &opts)
{
    std::vector<check::Scenario> scenarios;
    for (int block = 0; block < opts.coherenceShards; ++block) {
        scenarios.push_back(check::Scenario{
            shardName("smp/coherence", block), "smp", 0,
            [opts](check::ShardContext &ctx) {
                return coherenceShard(ctx, opts);
            }});
    }
    for (int block = 0; block < opts.pagingShards; ++block) {
        scenarios.push_back(check::Scenario{
            shardName("smp/paging-roundtrip", block), "smp", 0,
            [opts](check::ShardContext &ctx) {
                return pagingShard(ctx, opts);
            }});
    }
    for (int block = 0; block < opts.niShards; ++block) {
        scenarios.push_back(check::Scenario{
            shardName("smp/ni-schedule", block), "smp", 0,
            [](check::ShardContext &ctx) {
                return niScheduleShard(ctx);
            }});
    }
    return scenarios;
}

} // namespace hev::smp
