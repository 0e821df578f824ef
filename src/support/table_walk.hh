/**
 * @file
 * The one whole-tree page-table walk (DESIGN.md, "table_walk.hh").
 *
 * `pages(table)` answers a TablePage: escaped when the address is
 * outside the source's area, else the table's 512 words, or nullptr
 * when the table reads as all zero (it is still reached and left).
 * The walker decodes the entry bits and calls the visitor's hooks in
 * pre-order, entries in ascending index order, `leave` post-order.
 * A hook that returns false stops the whole walk at once; a void
 * hook never stops it.  The visitor decides what an escaped link
 * means.
 */

#ifndef HEV_SUPPORT_TABLE_WALK_HH
#define HEV_SUPPORT_TABLE_WALK_HH

#include <type_traits>

#include "support/types.hh"

namespace hev
{

constexpr u64 tableEntryPresent = 1ull << 0;
constexpr u64 tableEntryHuge = 1ull << 7;
/** Physical-address field of an entry: bits [51:12]. */
constexpr u64 tableEntryAddrMask = 0x000f'ffff'ffff'f000ull;

/** What a page source answers for one table address. */
struct TablePage
{
    bool escaped = false;       //!< outside the source's area
    const u64 *words = nullptr; //!< nullptr reads as all zero
};

/** Visitor base: every hook is a no-op. */
struct TableVisitor
{
    /** False: level-1 tables are reached and left but not read. */
    static constexpr bool readsLeafTables() { return true; }
    /** Table reached (pre-order). */
    void reach(u64 /*table*/, int /*level*/) {}
    /** Present entry; `leaf` = level 1 or huge, else the walk descends. */
    void entry(u64 /*va*/, u64 /*raw*/, int /*level*/, bool /*leaf*/) {}
    /** Link to a table outside the source's area (the root included). */
    void escape(u64 /*table*/, int /*level*/) {}
    /** Table left (post-order). */
    void leave(u64 /*table*/, int /*level*/) {}
};

/** Run one hook: a void hook keeps walking, a bool one says whether. */
template <typename Hook>
bool
keepWalking(Hook &&hook)
{
    if constexpr (std::is_void_v<decltype(hook())>) {
        hook();
        return true;
    } else {
        return hook();
    }
}

/**
 * Walk the `level`-level tree at `table` (covering `va` onwards).
 *
 * @return false iff a hook stopped the walk.
 */
template <typename Pages, typename Visitor>
bool
walkTables(const Pages &pages, u64 table, int level, Visitor &visitor,
           u64 va = 0)
{
    const TablePage page = pages(table);
    if (page.escaped)
        return keepWalking([&] { return visitor.escape(table, level); });
    if (!keepWalking([&] { return visitor.reach(table, level); }))
        return false;
    if (page.words && (level > 1 || Visitor::readsLeafTables())) {
        for (u64 index = 0; index < entriesPerTable; ++index) {
            const u64 raw = page.words[index];
            if (!(raw & tableEntryPresent))
                continue;
            const u64 at = va | (index << (pageShift + 9 * (level - 1)));
            const bool leaf = level == 1 || (raw & tableEntryHuge);
            if (!keepWalking(
                    [&] { return visitor.entry(at, raw, level, leaf); }) ||
                (!leaf && !walkTables(pages, raw & tableEntryAddrMask,
                                      level - 1, visitor, at)))
                return false;
        }
    }
    return keepWalking([&] { return visitor.leave(table, level); });
}

} // namespace hev

#endif // HEV_SUPPORT_TABLE_WALK_HH
