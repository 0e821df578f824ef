/**
 * @file
 * The `serve` workload: request serving on a freshly booted
 * smp::SmpMonitor with 4 vCPUs and 8 long-lived 16-page enclaves, all
 * with ids below 4096.
 *
 * One op (a request) on a seeded (enclave, vCPU) pair: the app writes
 * the marshalling buffer, enter, the enclave reads the request and
 * does 4 loads, writes its reply, report, exit, the app reads the
 * reply.  Every 16th request also evicts and reloads one page, which
 * runs a cross-vCPU TLB shootdown.  The setIpiDriver callback services
 * every vCPU's mailbox inline on the one benchmark thread, so the
 * numbers measure the monitor, not the host scheduler.
 *
 * Almost no init, remove or history: per-hypercall fixed cost and TLB
 * refill dominate.  Evict requests are 1/16 of ops, so p50 falls inside
 * the plain requests and p99 inside the evict requests.
 */

#include <algorithm>
#include <array>
#include <vector>

#include "common.hh"
#include "smp/smp_monitor.hh"
#include "support/rng.hh"

namespace hev::perfbench
{

namespace
{

/** Requests per repetition for each second of --seconds. */
constexpr u64 requestsPerSecond = 30'000;
constexpr u32 vcpus = 4;
constexpr u32 enclaves = 8;
constexpr u64 enclavePages = 16;
constexpr u64 loadsPerRequest = 4;
constexpr u64 evictEvery = 16;

/** Every input of one request, generated before timing. */
struct Request
{
    u64 value = 0;
    u8 enclave = 0;
    u8 vcpu = 0;
    u8 evictPage = 0;
    std::array<u8, loadsPerRequest> page{};
    std::array<u16, loadsPerRequest> word{};
};

class Serve final : public Workload
{
  public:
    Serve(u64 seed_value, u64 seconds)
        : seed(seed_value), requests(requestsPerSecond * seconds)
    {
    }

    u32 repeats() const override { return 20; }

    void
    setup(u32 rep) override
    {
        smp.reset();
        smp::SmpConfig cfg;
        cfg.vcpus = vcpus;
        smp = std::make_unique<smp::SmpMonitor>(cfg);
        smp::SmpMonitor &mon = *smp;
        mon.setIpiDriver([&mon](smp::VcpuId, u64) {
            for (smp::VcpuId w = 0; w < mon.vcpuCount(); ++w)
                mon.serviceIpis(w);
        });

        Rng rng = Rng(seed).split(rep);
        hv::PrimaryOs &os = smp->machine().os();
        auto alloc = [&os] {
            auto page = os.allocPage();
            if (!page)
                setupFailed("allocPage", page.error());
            return *page;
        };
        // Stage one enclave's pages at a time in the same normal pages.
        std::vector<Gpa> staging;
        for (u64 p = 0; p <= enclavePages; ++p)
            staging.push_back(alloc());
        contents.assign(enclaves * enclavePages, PageWords{});
        handles.assign(enclaves, hv::EnclaveHandle{});
        measurements.assign(enclaves, 0);
        for (u32 e = 0; e < enclaves; ++e) {
            std::vector<hv::AddPageRequest> reqs;
            for (u64 p = 0; p <= enclavePages; ++p) {
                PageWords words{};
                if (p < enclavePages) {
                    for (u64 &w : words)
                        w = rng.next();
                    contents[e * enclavePages + p] = words;
                } else {
                    words[0] = elrangeBase; // TCS entry point
                }
                std::copy(words.begin(), words.end(),
                          smp->monitor().mem().pageWordsMut(
                              Hpa(staging[p].value)));
                reqs.push_back({Gva(elrangeBase + p * pageSize), staging[p],
                                p < enclavePages ? hv::AddPageKind::Reg
                                                 : hv::AddPageKind::Tcs});
            }
            hv::EnclaveConfig ecfg;
            ecfg.elrange = {Gva(elrangeBase),
                            Gva(elrangeBase + (enclavePages + 1) * pageSize)};
            ecfg.mbufGva = Gva(mbufVa);
            ecfg.mbufPages = 1;
            ecfg.mbufBacking = alloc();
            const smp::VcpuId v = e % vcpus;
            auto id = smp->hcEnclaveInit(v, ecfg);
            if (!id)
                setupFailed("init", id.error());
            if (auto ok = smp->hcEnclaveAddPagesBatch(v, *id, reqs); !ok)
                setupFailed("add_pages_batch", ok.error());
            if (auto ok = smp->hcEnclaveInitFinish(v, *id); !ok)
                setupFailed("init_finish", ok.error());
            handles[e].id = *id;
            handles[e].mbufGva = ecfg.mbufGva;
            handles[e].mbufBacking = ecfg.mbufBacking;
            handles[e].mbufPages = 1;
            measurements[e] = smp->monitor().findEnclave(*id)->measurement;
        }
        for (const Gpa page : staging)
            (void)os.freePage(page);

        inputs.assign(requests, Request{});
        for (Request &r : inputs) {
            r.value = rng.next();
            r.enclave = u8(rng.below(enclaves));
            r.vcpu = u8(rng.below(vcpus));
            r.evictPage = u8(rng.below(enclavePages));
            for (u64 k = 0; k < loadsPerRequest; ++k) {
                r.page[k] = u8(rng.below(enclavePages));
                r.word[k] = u16(rng.below(wordsPerPage));
            }
        }
    }

    Phase
    run(bool traced) override
    {
        Phase phase;
        phase.opNs.reserve(requests);
        Spans *spans = traced ? &phase.spans : nullptr;
        const obs::Snapshot before = obs::snapshotStats();
        for (u64 i = 0; i < requests; ++i) {
            OpTimer timer;
            timer.start();
            const char *failure = request(i, timer, spans);
            phase.opNs.add(timer.stop());
            ++phase.outcome.attempted;
            if (failure) {
                phase.outcome.fail(failure);
                recover(inputs[i].vcpu);
            }
        }
        phase.delta = obs::snapshotStats().minus(before);
        u64 tlb_entries = smp->monitor().tlb().size();
        for (smp::VcpuId v = 0; v < smp->vcpuCount(); ++v)
            tlb_entries += smp->tlbOf(v).size();
        phase.exact["hv.tlb.entries_end"] = tlb_entries;
        return phase;
    }

    void
    layerMetrics(const Phase &traced, Metrics &out) override
    {
        for (const char *hc : {"enter", "exit", "report", "evict", "reload"})
            addPercentiles(out, traced.spans, std::string("smp.hc.") + hc,
                           "ns", true);
        addPercentiles(out, traced.spans, "smp.mem.load", "ns", false);
        addMonitorLevels(out, smp->monitor(),
                         traced.exact.at("hv.tlb.entries_end"));
        const obs::HistogramData shootdowns =
            histogramOf(traced, "smp.shootdown_ns");
        out.push_back({"smp.shootdown.p50_ns", shootdowns.percentile(50),
                       "ns"});
        out.push_back({"smp.shootdown.p99_ns", shootdowns.percentile(99),
                       "ns"});
    }

  private:
    /** Leave a vCPU outside any enclave after a failed request. */
    void
    recover(smp::VcpuId v)
    {
        if (smp->archOf(v).mode == hv::CpuMode::GuestEnclave)
            (void)smp->hcEnclaveExit(v);
    }

    /**
     * Serve request i; return the failure reason, or null on success.
     * The timer is paused while the benchmark checks outputs.
     */
    const char *
    request(u64 i, OpTimer &timer, Spans *spans)
    {
        const Request &in = inputs[i];
        smp::SmpMonitor &mon = *smp;
        hv::Machine &mach = mon.machine();
        const hv::EnclaveHandle &handle = handles[in.enclave];
        const EnclaveId id = handle.id;
        const smp::VcpuId v = in.vcpu;

        if (!mach.mbufWrite(handle, 0, in.value))
            return "app:mbuf_write";
        if (!timed(spans, "smp.hc.enter",
                   [&] { return mon.hcEnclaveEnter(v, id); }))
            return "refused:enter";
        auto req = mon.memLoad(v, Gva(mbufVa));
        if (!req)
            return "refused:load";
        if (*req != in.value)
            return "wrong:mbuf_request";
        u64 sum = 0;
        for (u64 k = 0; k < loadsPerRequest; ++k) {
            auto loaded = timed(spans, "smp.mem.load", [&] {
                return mon.memLoad(v, wordVa(in.page[k], in.word[k]));
            });
            if (!loaded)
                return "refused:load";
            if (*loaded !=
                contents[in.enclave * enclavePages + in.page[k]][in.word[k]])
                return "wrong:load";
            sum += *loaded;
        }
        if (!mon.memStore(v, Gva(mbufVa + 8), replyOf(*req, sum)))
            return "refused:store";
        auto report = timed(spans, "smp.hc.report",
                            [&] { return mon.hcEnclaveReport(v); });
        if (!report)
            return "refused:report";
        if (report->measurement != measurements[in.enclave])
            return "wrong:report_measurement";
        if (!timed(spans, "smp.hc.exit", [&] { return mon.hcEnclaveExit(v); }))
            return "refused:exit";
        auto reply = mach.mbufRead(handle, 1);
        if (!reply)
            return "app:mbuf_read";
        if (*reply != replyOf(in.value, sum))
            return "wrong:mbuf_reply";

        if (i % evictEvery != evictEvery - 1)
            return nullptr;
        const Gva page_va(elrangeBase + in.evictPage * pageSize);
        auto blob = timed(spans, "smp.hc.evict", [&] {
            return mon.hcEnclaveEvictPage(v, id, page_va);
        });
        if (!blob)
            return "refused:evict";
        if (!timed(spans, "smp.hc.reload",
                   [&] { return mon.hcEnclaveReloadPage(v, id, *blob); }))
            return "refused:reload";
        timer.pause();
        PageWords got{};
        const bool same =
            mon.monitor().enclaveReadPage(id, page_va, got.data()) &&
            got == contents[in.enclave * enclavePages + in.evictPage];
        timer.resume();
        return same ? nullptr : "wrong:reload_content";
    }

    const u64 seed;
    const u64 requests;
    std::unique_ptr<smp::SmpMonitor> smp;
    std::vector<PageWords> contents;
    std::vector<hv::EnclaveHandle> handles;
    std::vector<u64> measurements;
    std::vector<Request> inputs;
};

} // namespace

std::unique_ptr<Workload>
makeServe(u64 seed, u64 seconds)
{
    return std::make_unique<Serve>(seed, seconds);
}

} // namespace hev::perfbench
