/**
 * @file
 * The `lifecycle` workload: the whole serving lifecycle of one enclave
 * per op, on a source and a twin hv::Machine that each carry a history
 * of 10^4 launched, entered and removed enclaves.
 *
 * One op (a session): init, one add_pages_batch of 32 Reg pages and a
 * TCS page, init_finish; 16 requests (the app writes the marshalling
 * buffer, enter, the enclave reads the request, does 8 stores and
 * loads in ELRANGE, writes its reply, report, exit, the app reads the
 * reply); evict 4 pages and reload them; live-migrate (Move) to the
 * twin; enter/report/exit on the twin; remove on the twin.
 *
 * This is the workload whose cost scales with history and state:
 * init/remove walk every enclave ever created and scan the EPCM, page
 * tables are built and torn down, pages are measured and sealed, and
 * TLB entries of enclave ids >= 4096 are never flushed (their domain
 * tag is truncated), so later sessions pay for earlier ones.  The
 * benchmark reports that growth as it is.
 */

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"
#include "hv/machine.hh"
#include "migrate/migrate.hh"
#include "support/rng.hh"

namespace hev::perfbench
{

namespace
{

constexpr u64 historyEnclaves = 10'000;
/** Sessions per repetition for each second of --seconds. */
constexpr u64 sessionsPerSecond = 100;
constexpr u64 regPages = 32;
constexpr u64 poolPages = 64;
constexpr u64 requestsPerSession = 16;
constexpr u64 accessesPerRequest = 8;
constexpr u64 evictsPerSession = 4;
constexpr u64 migrateRounds = 4;
constexpr u64 writesPerMigrateRound = 2;

constexpr u64 tcsVa = elrangeBase + regPages * pageSize;

/** One store the enclave makes, as (page, word, value). */
struct Write
{
    u64 page = 0;
    u64 word = 0;
    u64 value = 0;
};

/** Every input of one session, generated before timing. */
struct SessionInput
{
    std::array<u64, regPages> poolPage{};  //!< staged page of each Reg page
    std::array<u64, requestsPerSession> request{};
    std::array<std::array<Write, accessesPerRequest>, requestsPerSession>
        access{};
    std::array<u64, evictsPerSession> evict{};
    std::array<std::array<Write, writesPerMigrateRound>, migrateRounds>
        migrateWrite{};
};

/** The reply the enclave computes for a request. */

/** Resource levels conserved across a session. */
struct Levels
{
    u64 live = 0;
    u64 frames = 0;
    u64 epcFree = 0;

    bool operator==(const Levels &) const = default;
};

Levels
levelsOf(const hv::Monitor &mon)
{
    return {mon.liveEnclaves(), mon.ptAlloc().usedFrames(),
            mon.epcm().freePages()};
}

/** Setup failures abort the run: there is nothing to measure. */

class Lifecycle final : public Workload
{
  public:
    Lifecycle(u64 seed_value, u64 seconds)
        : seed(seed_value), sessions(sessionsPerSecond * seconds)
    {
    }

    u32 repeats() const override { return 4; }

    void
    setup(u32 rep) override
    {
        src.reset();
        twin.reset();
        hv::MonitorConfig cfg;
        src = std::make_unique<hv::Machine>(cfg);
        twin = std::make_unique<hv::Machine>(cfg);

        Rng rng = Rng(seed).split(rep);
        pool.assign(poolPages, PageWords{});
        for (PageWords &page : pool)
            for (u64 &word : page)
                word = rng.next();
        srcStage = stage(*src);
        twinStage = stage(*twin);
        runHistory(*src, srcStage);
        runHistory(*twin, twinStage);
        srcBase = levelsOf(src->monitor());
        twinBase = levelsOf(twin->monitor());

        inputs.assign(sessions, SessionInput{});
        for (SessionInput &in : inputs)
            generate(rng, in);
    }

    Phase
    run(bool traced) override
    {
        Phase phase;
        phase.opNs.reserve(sessions);
        Spans *spans = traced ? &phase.spans : nullptr;
        migrateTotals = {};
        const obs::Snapshot before = obs::snapshotStats();
        for (u64 s = 0; s < sessions; ++s) {
            OpTimer timer;
            timer.start();
            const char *failure = session(s, timer, spans);
            phase.opNs.add(timer.stop());
            ++phase.outcome.attempted;
            if (failure)
                phase.outcome.fail(failure);
        }
        phase.delta = obs::snapshotStats().minus(before);
        phase.exact["migrate.precopy_rounds"] = migrateTotals.rounds;
        phase.exact["migrate.pages_copied"] = migrateTotals.pages;
        phase.exact["migrate.downtime_pages"] = migrateTotals.downtime;
        phase.exact["hv.tlb.entries_end"] = src->monitor().tlb().size();
        return phase;
    }

    void
    layerMetrics(const Phase &traced, Metrics &out) override
    {
        for (const char *hc : {"init", "add_batch", "init_finish", "enter",
                               "exit", "report", "evict", "reload",
                               "remove"})
            addPercentiles(out, traced.spans, std::string("hv.hc.") + hc,
                           "us", true);
        addPercentiles(out, traced.spans, "hv.mem.store", "ns", false);
        addPercentiles(out, traced.spans, "migrate.live", "us", false);
        const double n = double(traced.opNs.size());
        for (const char *name : {"migrate.precopy_rounds",
                                 "migrate.pages_copied",
                                 "migrate.downtime_pages"})
            out.push_back({name, double(traced.exact.at(name)) / n,
                           "count/op"});
        addMonitorLevels(out, src->monitor(),
                         traced.exact.at("hv.tlb.entries_end"));
    }

  private:
    /** Staged normal-memory pages of one machine. */
    struct Stage
    {
        std::vector<Gpa> pool;
        Gpa tcs{};
        Gpa mbuf{};
    };

    Stage
    stage(hv::Machine &m)
    {
        Stage st;
        auto alloc = [&m] {
            auto page = m.os().allocPage();
            if (!page)
                setupFailed("allocPage", page.error());
            return *page;
        };
        for (const PageWords &words : pool) {
            st.pool.push_back(alloc());
            for (u64 w = 0; w < wordsPerPage; ++w)
                if (auto ok = m.os().physWrite(
                        st.pool.back() + w * sizeof(u64), words[w]);
                    !ok)
                    setupFailed("physWrite", ok.error());
        }
        st.tcs = alloc();
        st.mbuf = alloc();
        if (auto ok = m.os().zeroPage(st.tcs); !ok)
            setupFailed("zeroPage", ok.error());
        // A TCS page's first word is the enclave's entry point.
        if (auto ok = m.os().physWrite(st.tcs, elrangeBase); !ok)
            setupFailed("physWrite", ok.error());
        return st;
    }

    static hv::EnclaveConfig
    enclaveConfig(const Stage &st, u64 reg_pages)
    {
        hv::EnclaveConfig cfg;
        cfg.elrange = {Gva(elrangeBase),
                       Gva(elrangeBase + (reg_pages + 1) * pageSize)};
        cfg.mbufGva = Gva(mbufVa);
        cfg.mbufPages = 1;
        cfg.mbufBacking = st.mbuf;
        return cfg;
    }

    /** Launch, enter once and remove historyEnclaves small enclaves. */
    static void
    runHistory(hv::Machine &m, const Stage &st)
    {
        hv::Monitor &mon = m.monitor();
        // History enclaves are two Reg pages plus the TCS at page 2.
        const hv::EnclaveConfig cfg = enclaveConfig(st, 2);
        const std::vector<hv::AddPageRequest> reqs = {
            {Gva(elrangeBase), st.pool[0], hv::AddPageKind::Reg},
            {Gva(elrangeBase + pageSize), st.pool[1], hv::AddPageKind::Reg},
            {Gva(elrangeBase + 2 * pageSize), st.tcs,
             hv::AddPageKind::Tcs}};
        for (u64 i = 0; i < historyEnclaves; ++i) {
            auto id = mon.hcEnclaveInit(cfg);
            if (!id)
                setupFailed("history init", id.error());
            if (auto ok = mon.hcEnclaveAddPagesBatch(*id, reqs); !ok)
                setupFailed("history add", ok.error());
            if (auto ok = mon.hcEnclaveInitFinish(*id); !ok)
                setupFailed("history init_finish", ok.error());
            if (auto ok = mon.hcEnclaveEnter(*id, m.vcpu()); !ok)
                setupFailed("history enter", ok.error());
            if (auto ok = mon.hcEnclaveExit(m.vcpu()); !ok)
                setupFailed("history exit", ok.error());
            if (auto ok = mon.hcEnclaveRemove(*id); !ok)
                setupFailed("history remove", ok.error());
        }
    }

    static void
    generate(Rng &rng, SessionInput &in)
    {
        // The Reg pages are a seeded choice from the staged pool; the
        // TCS page carries the session index, so every session's
        // measurement differs and the twin's anti-rollback ledger
        // accepts each migration.
        std::array<u64, poolPages> order{};
        for (u64 i = 0; i < poolPages; ++i)
            order[i] = i;
        for (u64 i = 0; i < regPages; ++i) {
            std::swap(order[i], order[i + rng.below(poolPages - i)]);
            in.poolPage[i] = order[i];
        }
        auto randomWrite = [&rng] {
            return Write{rng.below(regPages), rng.below(wordsPerPage),
                         rng.next()};
        };
        for (u64 r = 0; r < requestsPerSession; ++r) {
            in.request[r] = rng.next();
            for (Write &w : in.access[r])
                w = randomWrite();
        }
        std::array<u64, regPages> pages{};
        for (u64 i = 0; i < regPages; ++i)
            pages[i] = i;
        for (u64 i = 0; i < evictsPerSession; ++i) {
            std::swap(pages[i], pages[i + rng.below(regPages - i)]);
            in.evict[i] = pages[i];
        }
        for (auto &round : in.migrateWrite)
            for (Write &w : round)
                w = randomWrite();
    }

    /** Expected words of a session page after the given writes. */
    PageWords
    expectedPage(u64 s, u64 page, const std::vector<Write> &writes) const
    {
        PageWords words{};
        if (page == regPages) {
            words[0] = elrangeBase;
            words[1] = seed;
            words[2] = s;
        } else {
            words = pool[inputs[s].poolPage[page]];
        }
        for (const Write &w : writes)
            if (w.page == page)
                words[w.word] = w.value;
        return words;
    }

    bool
    pageMatches(const hv::Monitor &mon, EnclaveId id, u64 s, u64 page,
                const std::vector<Write> &writes) const
    {
        PageWords got{};
        const Gva va(elrangeBase + page * pageSize);
        return mon.enclaveReadPage(id, va, got.data()) &&
               got == expectedPage(s, page, writes);
    }

    /** Tear down whatever a failed session left behind. */
    void
    cleanup(EnclaveId src_id, EnclaveId twin_id)
    {
        if (src->vcpu().mode == hv::CpuMode::GuestEnclave)
            (void)src->monitor().hcEnclaveExit(src->vcpu());
        if (twin->vcpu().mode == hv::CpuMode::GuestEnclave)
            (void)twin->monitor().hcEnclaveExit(twin->vcpu());
        if (src_id != invalidEnclave &&
            src->monitor().findEnclave(src_id))
            (void)src->monitor().hcEnclaveRemove(src_id);
        if (twin_id != invalidEnclave &&
            twin->monitor().findEnclave(twin_id))
            (void)twin->monitor().hcEnclaveRemove(twin_id);
    }

    /**
     * Run session s; return the failure reason, or null on success.
     * The timer is paused while the benchmark checks outputs.
     */
    const char *
    session(u64 s, OpTimer &timer, Spans *spans)
    {
        EnclaveId src_id = invalidEnclave;
        EnclaveId twin_id = invalidEnclave;
        const char *failure = sessionBody(s, timer, spans, src_id, twin_id);
        timer.pause();
        if (failure)
            cleanup(src_id, twin_id);
        else if (levelsOf(src->monitor()) != srcBase ||
                 levelsOf(twin->monitor()) != twinBase)
            failure = "wrong:resources_not_conserved";
        timer.resume();
        return failure;
    }

    const char *
    sessionBody(u64 s, OpTimer &timer, Spans *spans, EnclaveId &src_id,
                EnclaveId &twin_id)
    {
        const SessionInput &in = inputs[s];
        hv::Monitor &mon = src->monitor();
        hv::VCpu &cpu = src->vcpu();
        std::vector<Write> writes;
        writes.reserve(requestsPerSession * accessesPerRequest +
                       migrateRounds * writesPerMigrateRound);

        // Launch.  The app stamps its TCS staging page with the session.
        if (!src->os().physWrite(srcStage.tcs + 8, seed) ||
            !src->os().physWrite(srcStage.tcs + 16, s))
            return "app:physWrite";
        const hv::EnclaveConfig cfg = enclaveConfig(srcStage, regPages);
        auto id = timed(spans, "hv.hc.init",
                        [&] { return mon.hcEnclaveInit(cfg); });
        if (!id)
            return "refused:init";
        src_id = *id;
        std::vector<hv::AddPageRequest> reqs;
        reqs.reserve(regPages + 1);
        for (u64 p = 0; p < regPages; ++p)
            reqs.push_back({Gva(elrangeBase + p * pageSize),
                            srcStage.pool[in.poolPage[p]],
                            hv::AddPageKind::Reg});
        reqs.push_back({Gva(tcsVa), srcStage.tcs, hv::AddPageKind::Tcs});
        if (!timed(spans, "hv.hc.add_batch", [&] {
                return mon.hcEnclaveAddPagesBatch(src_id, reqs);
            }))
            return "refused:add_batch";
        if (!timed(spans, "hv.hc.init_finish",
                   [&] { return mon.hcEnclaveInitFinish(src_id); }))
            return "refused:init_finish";

        // Serve.
        hv::EnclaveHandle handle;
        handle.id = src_id;
        handle.mbufGva = Gva(mbufVa);
        handle.mbufBacking = srcStage.mbuf;
        handle.mbufPages = 1;
        u64 measurement = 0;
        for (u64 r = 0; r < requestsPerSession; ++r) {
            if (!src->mbufWrite(handle, 0, in.request[r]))
                return "app:mbuf_write";
            if (!timed(spans, "hv.hc.enter",
                       [&] { return mon.hcEnclaveEnter(src_id, cpu); }))
                return "refused:enter";
            auto request = src->memLoad(Gva(mbufVa));
            if (!request)
                return "refused:load";
            if (*request != in.request[r])
                return "wrong:mbuf_request";
            u64 sum = 0;
            for (const Write &w : in.access[r]) {
                const Gva va = wordVa(w.page, w.word);
                if (!timed(spans, "hv.mem.store",
                           [&] { return src->memStore(va, w.value); }))
                    return "refused:store";
                auto loaded = src->memLoad(va);
                if (!loaded)
                    return "refused:load";
                if (*loaded != w.value)
                    return "wrong:load";
                sum += *loaded;
                writes.push_back(w);
            }
            if (!src->memStore(Gva(mbufVa + 8), replyOf(*request, sum)))
                return "refused:store";
            auto report = timed(spans, "hv.hc.report",
                                [&] { return mon.hcEnclaveReport(cpu); });
            if (!report)
                return "refused:report";
            if (r > 0 && report->measurement != measurement)
                return "wrong:report_measurement";
            measurement = report->measurement;
            if (!timed(spans, "hv.hc.exit",
                       [&] { return mon.hcEnclaveExit(cpu); }))
                return "refused:exit";
            auto reply = src->mbufRead(handle, 1);
            if (!reply)
                return "app:mbuf_read";
            if (*reply != replyOf(in.request[r], sum))
                return "wrong:mbuf_reply";
        }

        // EPC pressure: evict pages, then reload them.
        std::array<hv::SealedBlob, evictsPerSession> blobs;
        for (u64 i = 0; i < evictsPerSession; ++i) {
            auto blob = timed(spans, "hv.hc.evict", [&] {
                return mon.hcEnclaveEvictPage(
                    src_id, Gva(elrangeBase + in.evict[i] * pageSize));
            });
            if (!blob)
                return "refused:evict";
            blobs[i] = std::move(*blob);
        }
        for (const hv::SealedBlob &blob : blobs)
            if (!timed(spans, "hv.hc.reload", [&] {
                    return mon.hcEnclaveReloadPage(src_id, blob);
                }))
                return "refused:reload";
        timer.pause();
        bool reloaded_ok = true;
        for (const u64 page : in.evict)
            reloaded_ok &= pageMatches(mon, src_id, s, page, writes);
        timer.resume();
        if (!reloaded_ok)
            return "wrong:reload_content";

        // Live migration to the twin while the enclave keeps writing.
        u64 round_writes = 0;
        HvError store_error = HvError::None;
        const migrate::Workload between = [&](u64 round) {
            if (round >= migrateRounds)
                return;
            for (const Write &w : in.migrateWrite[round]) {
                if (auto ok = mon.enclaveStore(src_id, wordVa(w.page, w.word),
                                               w.value);
                    !ok)
                    store_error = ok.error();
                writes.push_back(w);
                ++round_writes;
            }
        };
        migrate::MigrateOptions opts;
        opts.maxPrecopyRounds = migrateRounds;
        auto moved = timed(spans, "migrate.live", [&] {
            return migrate::migrateLive(*src, src_id, *twin, between, opts);
        });
        if (!moved)
            return "refused:migrate";
        src_id = invalidEnclave; // Move retired the source enclave
        twin_id = moved->dstId;
        if (store_error != HvError::None)
            return "refused:migrate_store";
        migrateTotals.rounds += moved->precopyRounds;
        migrateTotals.pages += moved->totalPagesCopied;
        migrateTotals.downtime += moved->downtimePages;

        timer.pause();
        bool twin_ok = true;
        for (u64 page = 0; page <= regPages; ++page)
            twin_ok &= pageMatches(twin->monitor(), twin_id, s, page, writes);
        timer.resume();
        if (!twin_ok)
            return "wrong:twin_content";

        // The twin serves: its report must carry the same measurement.
        hv::Monitor &tmon = twin->monitor();
        if (!timed(spans, "hv.hc.enter", [&] {
                return tmon.hcEnclaveEnter(twin_id, twin->vcpu());
            }))
            return "refused:twin_enter";
        auto report = timed(spans, "hv.hc.report",
                            [&] { return tmon.hcEnclaveReport(twin->vcpu()); });
        if (!report)
            return "refused:twin_report";
        if (report->measurement != measurement)
            return "wrong:twin_measurement";
        if (!timed(spans, "hv.hc.exit",
                   [&] { return tmon.hcEnclaveExit(twin->vcpu()); }))
            return "refused:twin_exit";
        if (!timed(spans, "hv.hc.remove",
                   [&] { return tmon.hcEnclaveRemove(twin_id); }))
            return "refused:remove";
        twin_id = invalidEnclave;
        return nullptr;
    }

    const u64 seed;
    const u64 sessions;
    std::unique_ptr<hv::Machine> src;
    std::unique_ptr<hv::Machine> twin;
    std::vector<PageWords> pool;
    Stage srcStage;
    Stage twinStage;
    Levels srcBase;
    Levels twinBase;
    std::vector<SessionInput> inputs;
    struct
    {
        u64 rounds = 0;
        u64 pages = 0;
        u64 downtime = 0;
    } migrateTotals;
};

} // namespace

std::unique_ptr<Workload>
makeLifecycle(u64 seed, u64 seconds)
{
    return std::make_unique<Lifecycle>(seed, seconds);
}

} // namespace hev::perfbench
