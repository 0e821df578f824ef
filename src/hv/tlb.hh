/**
 * @file
 * Combined-stage TLB model with per-domain tags.
 *
 * RustMonitor flushes the corresponding TLB entries on every enclave
 * entry/exit (paper Sec. 2.1); a stale combined GVA->HPA translation
 * surviving a world switch would be an isolation hole all by itself, so
 * the model keeps the TLB explicit and the tests exercise the flush
 * discipline.
 */

#ifndef HEV_HV_TLB_HH
#define HEV_HV_TLB_HH

#include <functional>
#include <optional>
#include <unordered_map>

#include "hv/pte.hh"
#include "support/types.hh"

namespace hev::hv
{

/**
 * Identifier of a translation domain: the normal VM is domain 0 and each
 * enclave uses its EnclaveId (>= 1).  Equivalent to a VPID/ASID tag.
 */
using DomainId = u32;

/** The normal VM's domain tag. */
constexpr DomainId normalVmDomain = 0;

/** One cached combined translation. */
struct TlbEntry
{
    u64 hpaPage = 0;        //!< translated host-physical page base
    bool writable = false;  //!< combined write permission
    bool operator==(const TlbEntry &) const = default;
};

/** Software model of a tagged, unbounded TLB. */
class Tlb
{
  public:
    /** Look up the cached translation of (domain, va's page). */
    std::optional<TlbEntry> lookup(DomainId domain, u64 va) const;

    /** Insert a combined translation for (domain, va's page). */
    void insert(DomainId domain, u64 va, TlbEntry entry);

    /** Drop all entries tagged with the domain. */
    void flushDomain(DomainId domain);

    /** Drop the single entry for (domain, va's page) — INVLPG. */
    void invalidatePage(DomainId domain, u64 va);

    /** Drop everything. */
    void flushAll();

    /** Number of live entries. */
    u64 size() const { return entries.size(); }

    /** Number of live entries tagged with the domain. */
    u64 countDomain(DomainId domain) const;

    /** Visit every live entry: f(domain, va_page_base, entry). */
    void forEach(const std::function<void(DomainId, u64, const TlbEntry &)>
                     &visit) const;

    u64 hits() const { return hitCount; }
    u64 misses() const { return missCount; }
    u64 flushes() const { return flushCount; }

  private:
    /** The full (domain, VPN) tag: no domain bit is dropped. */
    struct Key
    {
        DomainId domain = 0;
        u64 vpn = 0;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        size_t
        operator()(const Key &key) const
        {
            // VPNs of 48-bit VAs fit in 36 bits; the domain fills the
            // bits above (equality still compares both fields whole).
            return std::hash<u64>{}(key.vpn ^ (u64(key.domain) << 36));
        }
    };

    static Key
    keyOf(DomainId domain, u64 va)
    {
        return {domain, va >> pageShift};
    }

    std::unordered_map<Key, TlbEntry, KeyHash> entries;
    mutable u64 hitCount = 0;
    mutable u64 missCount = 0;
    u64 flushCount = 0;
};

} // namespace hev::hv

#endif // HEV_HV_TLB_HH
