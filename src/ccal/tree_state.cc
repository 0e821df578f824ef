#include "ccal/tree_state.hh"

#include "support/logging.hh"

namespace hev::ccal
{

using spec::QueryResult;

TreePte
TreePte::makeTerminal(u64 addr, u64 flags)
{
    TreePte pte;
    pte.flags = flags & ~pteAddrMask;
    pte.addr = addr & pteAddrMask;
    // unused_inv: a constructed entry must be present.
    if (!(pte.flags & pteFlagP))
        panic("tree PTE constructed non-present (unused_inv violation)");
    return pte;
}

TreePte
TreePte::makeIntermediate(u64 flags, std::shared_ptr<TreeTable> child)
{
    TreePte pte;
    pte.flags = flags & ~pteAddrMask & ~pteFlagHuge;
    pte.child = std::move(child);
    if (!(pte.flags & pteFlagP))
        panic("tree PTE constructed non-present (unused_inv violation)");
    if (!pte.child)
        panic("intermediate tree PTE without a child table");
    return pte;
}

namespace
{

std::shared_ptr<TreeTable>
cloneTable(const TreeTable &table)
{
    auto copy = std::make_shared<TreeTable>();
    for (const auto &[index, entry] : table.entries) {
        TreePte dup = entry;
        if (entry.child)
            dup.child = cloneTable(*entry.child);
        copy->entries.emplace(index, std::move(dup));
    }
    return copy;
}

/** Lift and R read the flat tables through the frame area only. */
struct InAreaVisitor : TableVisitor
{
    [[noreturn]] void
    escape(u64 table, int)
    {
        panic("flat state read of invalid word %#llx",
              (unsigned long long)table);
    }
};

/** Builds the tree view of a flat table in walk order. */
struct Lift : InAreaVisitor
{
    TreeTable *tables[pagingLevels + 1] = {}; //!< current, per level

    void
    entry(u64 va, u64 raw, int level, bool leaf)
    {
        const u64 index = spec::specVaIndex(va, level);
        const u64 flags = spec::specPteFlags(raw);
        if (leaf) {
            tables[level]->entries.emplace(
                index, TreePte::makeTerminal(spec::specPteAddr(raw), flags));
            return;
        }
        auto child = std::make_shared<TreeTable>();
        tables[level - 1] = child.get(); // the walk descends into it next
        tables[level]->entries.emplace(
            index, TreePte::makeIntermediate(flags, std::move(child)));
    }
};

/**
 * R_pte along the walk: each present flat entry meets the tree table's
 * next unmet entry, at the same index, with the same flags,
 * terminal-ness and address (or a child that relates in turn); a table
 * left with unmet tree entries has entries the flat one lacks.  The
 * first mismatch stops the walk.
 */
struct Relate : InAreaVisitor
{
    const TreeTable *tables[pagingLevels + 1] = {}; //!< current, per level
    std::map<u64, TreePte>::const_iterator unmet[pagingLevels + 1];

    void
    reach(u64, int level)
    {
        unmet[level] = tables[level]->entries.begin();
    }

    bool
    entry(u64 va, u64 raw, int level, bool leaf)
    {
        auto &it = unmet[level];
        if (it == tables[level]->entries.end() ||
            it->first != spec::specVaIndex(va, level))
            return false;
        const TreePte &pte = (it++)->second;
        if (pte.flags != spec::specPteFlags(raw) || pte.terminal() != leaf)
            return false;
        tables[level - 1] = pte.child.get(); // for the descent, if any
        return !leaf || pte.addr == spec::specPteAddr(raw);
    }

    bool
    leave(u64, int level)
    {
        return unmet[level] == tables[level]->entries.end();
    }
};

bool
tablesEqual(const TreeTable &a, const TreeTable &b)
{
    if (a.entries.size() != b.entries.size())
        return false;
    for (const auto &[index, ea] : a.entries) {
        auto it = b.entries.find(index);
        if (it == b.entries.end())
            return false;
        const TreePte &eb = it->second;
        if (ea.flags != eb.flags || ea.terminal() != eb.terminal())
            return false;
        if (ea.terminal()) {
            if (ea.addr != eb.addr)
                return false;
        } else if (!tablesEqual(*ea.child, *eb.child)) {
            return false;
        }
    }
    return true;
}

} // namespace

TreeState
TreeState::clone() const
{
    TreeState copy;
    copy.root = cloneTable(*root);
    return copy;
}

TreeState
treeFromFlat(const FlatState &s, u64 root)
{
    TreeState tree;
    Lift lift;
    lift.tables[pagingLevels] = tree.root.get();
    walkTables(FlatTablePages{s}, root, pagingLevels, lift);
    return tree;
}

bool
refinesFlat(const TreeState &t, const FlatState &s, u64 root)
{
    Relate relate;
    relate.tables[pagingLevels] = t.root.get();
    return walkTables(FlatTablePages{s}, root, pagingLevels, relate);
}

QueryResult
treeQuery(const TreeState &t, u64 va)
{
    const TreeTable *table = t.root.get();
    for (i64 level = pagingLevels; level >= 1; --level) {
        const u64 index = spec::specVaIndex(va, level);
        auto it = table->entries.find(index);
        if (it == table->entries.end() || !it->second.present())
            return QueryResult::none();
        const TreePte &pte = it->second;
        if (pte.terminal()) {
            const u64 span = 1ull << (12 + 9 * (level - 1));
            return QueryResult::some(pte.addr + (va & (span - 1)),
                                     pte.flags);
        }
        table = pte.child.get();
    }
    return QueryResult::none(); // unreachable
}

i64
treeMap(TreeState &t, u64 va, u64 pa, u64 flags)
{
    if (va % pageSize != 0 || pa % pageSize != 0)
        return errNotAligned;
    if (!(flags & pteFlagP))
        return errInvalidParam;

    TreeTable *table = t.root.get();
    for (i64 level = pagingLevels; level > 1; --level) {
        const u64 index = spec::specVaIndex(va, level);
        auto it = table->entries.find(index);
        if (it == table->entries.end()) {
            auto child = std::make_shared<TreeTable>();
            TreeTable *raw_child = child.get();
            table->entries.emplace(
                index, TreePte::makeIntermediate(pteLinkFlags,
                                                 std::move(child)));
            table = raw_child;
            continue;
        }
        if (it->second.terminal())
            return errAlreadyMapped; // huge entry blocks the path
        table = it->second.child.get();
    }
    const u64 index = spec::specVaIndex(va, 1);
    if (table->entries.count(index))
        return errAlreadyMapped;
    table->entries.emplace(
        index, TreePte::makeTerminal(pa, flags & ~pteFlagHuge));
    return 0;
}

i64
treeUnmap(TreeState &t, u64 va)
{
    if (va % pageSize != 0)
        return errNotAligned;
    TreeTable *table = t.root.get();
    for (i64 level = pagingLevels; level > 1; --level) {
        const u64 index = spec::specVaIndex(va, level);
        auto it = table->entries.find(index);
        if (it == table->entries.end())
            return errNotMapped;
        if (it->second.terminal())
            return errAlreadyMapped; // huge entry where a table expected
        table = it->second.child.get();
    }
    const u64 index = spec::specVaIndex(va, 1);
    if (!table->entries.count(index))
        return errNotMapped;
    table->entries.erase(index);
    return 0;
}

i64
treeApplyBatch(TreeState &t, const std::vector<TreeBatchOp> &ops)
{
    TreeState scratch = t.clone();
    for (const TreeBatchOp &op : ops) {
        const i64 rc = op.isMap
                           ? treeMap(scratch, op.va, op.pa, op.flags)
                           : treeUnmap(scratch, op.va);
        if (rc != 0)
            return rc;
    }
    t = std::move(scratch);
    return 0;
}

bool
treesEqual(const TreeState &a, const TreeState &b)
{
    return tablesEqual(*a.root, *b.root);
}

bool
queryEquivalent(const TreeState &a, const TreeState &b,
                const std::vector<u64> &probe_vas)
{
    for (u64 va : probe_vas) {
        if (!(treeQuery(a, va) == treeQuery(b, va)))
            return false;
    }
    return true;
}

} // namespace hev::ccal
