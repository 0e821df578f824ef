#include "hv/tlb.hh"

#include <algorithm>

#include "obs/stats.hh"
#include "obs/trace.hh"

namespace hev::hv
{

namespace
{

const obs::Counter statHits("hv.tlb.hits");
const obs::Counter statMisses("hv.tlb.misses");
const obs::Counter statInserts("hv.tlb.inserts");
const obs::Counter statFlushes("hv.tlb.flushes");
const obs::Gauge statEntries("hv.tlb.entries");

} // namespace

std::optional<TlbEntry>
Tlb::lookup(DomainId domain, u64 va) const
{
    auto it = entries.find(keyOf(domain, va));
    if (it == entries.end()) {
        ++missCount;
        statMisses.inc();
        obs::traceEvent(obs::EventType::TlbMiss, "tlb", domain, va);
        return std::nullopt;
    }
    ++hitCount;
    statHits.inc();
    obs::traceEvent(obs::EventType::TlbHit, "tlb", domain, va);
    return it->second;
}

void
Tlb::insert(DomainId domain, u64 va, TlbEntry entry)
{
    entries[keyOf(domain, va)] = entry;
    statInserts.inc();
    statEntries.set(i64(entries.size()));
}

void
Tlb::flushDomain(DomainId domain)
{
    ++flushCount;
    statFlushes.inc();
    std::erase_if(entries, [domain](const auto &kv) {
        return kv.first.domain == domain;
    });
    statEntries.set(i64(entries.size()));
}

void
Tlb::invalidatePage(DomainId domain, u64 va)
{
    if (entries.erase(keyOf(domain, va)) > 0) {
        ++flushCount;
        statFlushes.inc();
        statEntries.set(i64(entries.size()));
    }
}

u64
Tlb::countDomain(DomainId domain) const
{
    return u64(std::count_if(entries.begin(), entries.end(),
                             [domain](const auto &kv) {
                                 return kv.first.domain == domain;
                             }));
}

void
Tlb::forEach(
    const std::function<void(DomainId, u64, const TlbEntry &)> &visit) const
{
    for (const auto &[key, entry] : entries)
        visit(key.domain, key.vpn << pageShift, entry);
}

void
Tlb::flushAll()
{
    ++flushCount;
    statFlushes.inc();
    entries.clear();
    statEntries.set(0);
}

} // namespace hev::hv
