#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace hev::perfbench
{

void
setupFailed(const char *what, HvError error)
{
    std::fprintf(stderr, "perfbench set-up: %s failed: %s\n", what,
                 hvErrorName(error));
    std::exit(1);
}

double
Samples::percentile(u32 pct) const
{
    if (values.empty())
        return 0.0;
    std::vector<u64> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    // Nearest rank: the smallest sample with at least pct% at or below.
    const u64 rank = std::max<u64>(1, (pct * sorted.size() + 99) / 100);
    return double(sorted[rank - 1]);
}

u64
Samples::total() const
{
    u64 sum = 0;
    for (const u64 v : values)
        sum += v;
    return sum;
}

obs::HistogramData
histogramOf(const Phase &phase, const std::string &name)
{
    const auto it = phase.delta.histograms.find(name);
    return it == phase.delta.histograms.end() ? obs::HistogramData{}
                                              : it->second;
}

void
addPercentiles(Metrics &out, const Spans &spans, const std::string &stem,
               const std::string &unit, bool with_p99)
{
    const double scale = unit == "us" ? 1e3 : 1.0;
    const auto it = spans.find(stem);
    const Samples empty;
    const Samples &samples = it == spans.end() ? empty : it->second;
    out.push_back({stem + ".p50_" + unit, samples.percentile(50) / scale,
                   unit});
    if (with_p99 && samples.size() >= 1000)
        out.push_back({stem + ".p99_" + unit,
                       samples.percentile(99) / scale, unit});
}

void
addMonitorLevels(Metrics &out, const hv::Monitor &mon, u64 tlb_entries)
{
    out.push_back({"hv.tlb.entries_end", double(tlb_entries), "count"});
    out.push_back({"hv.frames_used_end", double(mon.ptAlloc().usedFrames()),
                   "count"});
    out.push_back({"hv.epc_free_end", double(mon.epcm().freePages()),
                   "count"});
    out.push_back({"hv.live_enclaves_end", double(mon.liveEnclaves()),
                   "count"});
}

} // namespace hev::perfbench
