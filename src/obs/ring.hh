/**
 * @file
 * The per-thread ring behind the event tracer and the flight recorder
 * (internal to hev_obs).
 *
 * Each thread appends to its own fixed-capacity ring with one slot
 * store plus one release store of the head: no locks, no allocation,
 * and wraparound overwrites the oldest items (the drop count is
 * kept).  Every ring registers with one process-wide registry per
 * instantiation.  Collection drains the rings under the registry
 * mutex and is exact once the writers are quiescent.  A thread's ring
 * is retired into the registry when the thread exits, so a campaign's
 * worker items survive the join.
 */

#ifndef HEV_OBS_RING_HH
#define HEV_OBS_RING_HH

#include <atomic>
#include <vector>

#include "support/thread_annotations.hh"
#include "support/types.hh"

namespace hev::obs::detail
{

/**
 * @tparam T        the recorded item
 * @tparam Capacity items per thread ring
 * @tparam Slice    one thread's drained ring: an aggregate
 *                  {u32 tid; u64 dropped; std::vector<T> items}
 */
template <typename T, u32 Capacity, typename Slice>
class PerThreadRing
{
  public:
    /** Append to the calling thread's ring. */
    static void
    push(const T &item)
    {
        PerThreadRing &ring = local();
        const u64 h = ring.head.load(std::memory_order_relaxed);
        ring.slots[h % Capacity] = item;
        ring.head.store(h + 1, std::memory_order_release);
    }

    /** Every nonempty ring, retired ones first, per thread in order. */
    static std::vector<Slice>
    collect()
    {
        Registry &reg = registry();
        MutexGuard lock(reg.mu);
        std::vector<Slice> out = reg.retired;
        for (const PerThreadRing *ring : reg.rings) {
            if (ring->head.load(std::memory_order_acquire) != 0)
                out.push_back(ring->drain());
        }
        return out;
    }

    /** Drop every item (live rings and retired ones). */
    static void
    clear()
    {
        Registry &reg = registry();
        MutexGuard lock(reg.mu);
        reg.retired.clear();
        for (PerThreadRing *ring : reg.rings)
            ring->head.store(0, std::memory_order_release);
    }

  private:
    struct Registry
    {
        Mutex mu;
        u32 nextTid HEV_GUARDED_BY(mu) = 1;
        std::vector<PerThreadRing *> rings HEV_GUARDED_BY(mu);
        std::vector<Slice> retired HEV_GUARDED_BY(mu);
    };

    static Registry &
    registry()
    {
        static Registry reg;
        return reg;
    }

    static PerThreadRing &
    local()
    {
        thread_local PerThreadRing ring;
        return ring;
    }

    PerThreadRing()
    {
        Registry &reg = registry();
        MutexGuard lock(reg.mu);
        tid = reg.nextTid++;
        reg.rings.push_back(this);
    }

    ~PerThreadRing()
    {
        Registry &reg = registry();
        MutexGuard lock(reg.mu);
        if (head.load(std::memory_order_acquire) != 0)
            reg.retired.push_back(drain());
        std::erase(reg.rings, this);
    }

    /** Copy the surviving items in emission order (quiescent). */
    Slice
    drain() const
    {
        const u64 h = head.load(std::memory_order_acquire);
        const u64 kept = h < Capacity ? h : Capacity;
        std::vector<T> items;
        items.reserve(kept);
        for (u64 i = h - kept; i < h; ++i)
            items.push_back(slots[i % Capacity]);
        return Slice{tid, h - kept, std::move(items)};
    }

    u32 tid = 0;
    std::atomic<u64> head{0}; //!< items ever written; only the owner writes
    std::vector<T> slots = std::vector<T>(Capacity);
};

} // namespace hev::obs::detail

#endif // HEV_OBS_RING_HH
