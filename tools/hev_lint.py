#!/usr/bin/env python3
"""hev-lint: cross-layer parity and lock-discipline checker.

The repo keeps parallel structures across modules that no compiler
sees together, so they must not drift:

  spec-parity    every hcEnclaveXxx hypercall in src/hv/monitor.hh has a
                 matching specHcXxx in src/ccal/specs.hh (and vice
                 versa); Enter/Exit/Report are vCPU-local and have no
                 flat-spec counterpart by design.
  lock-dag       the HEV_ACQUIRED_AFTER declarations in
                 src/smp/smp_monitor.hh form an acyclic graph consistent
                 with the LockRank order (src/smp/lock_witness.hh), and
                 no acquisition site in src/smp/*.cc constructs a guard
                 of lower-or-equal rank inside a live higher one.

Fuzz-op and HvError parity are compile-time facts, not lint checks:
each list is declared once as an X-macro (HEV_FUZZ_OPS in
src/fuzz/trace.hh, HEV_HV_ERRORS in src/support/result.hh) that
generates the enum and its name table, and the hev_fuzz library builds
with -Werror=switch, so a dispatch switch missing a case fails to
compile.

Violations print as

    hev-lint: <check>: <file>: <message>

Exit status: 0 clean, 1 violations, 2 bad invocation.

A source line containing `hev-lint: allow lock-order` suppresses the
acquisition-site check until the end of the enclosing function (used by
the deliberate witness-death-test helper).
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def read(root, rel):
    """Return the file's text, or None if it does not exist."""
    path = os.path.join(root, rel)
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


def strip_comments(text):
    """Remove //, /* */ comments and string/char literals.

    Keeps newlines so line numbers survive; replaces literals with
    spaces so tokens cannot hide inside them.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c == '"' or (
            c == "'"
            and not (out and (out[-1].isalnum() or out[-1] == "_"))
        ):
            # An apostrophe after an identifier/digit character is a
            # C++14 digit separator (0x10'0000), not a char literal.
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Check 1: hypercall <-> spec parity
# --------------------------------------------------------------------------

# vCPU-local hypercalls with no flat-spec counterpart: the spec models
# the page-table/EPCM state machine, not occupancy or attestation.
SPEC_ALLOWLIST = {"Enter", "Exit", "Report"}


def check_spec_parity(root):
    violations = []
    monitor = read(root, "src/hv/monitor.hh")
    specs = read(root, "src/ccal/specs.hh")
    if monitor is None or specs is None:
        return violations, monitor is not None or specs is not None
    hcs = set(
        re.findall(r"\bhcEnclave(\w+)\s*\(", strip_comments(monitor))
    )
    spec_text = strip_comments(specs)
    spec_cc = read(root, "src/ccal/specs.cc")
    if spec_cc is not None:
        spec_text += strip_comments(spec_cc)
    spec_names = set(re.findall(r"\bspecHc(\w+)\s*\(", spec_text))
    for name in sorted(hcs - spec_names - SPEC_ALLOWLIST):
        violations.append(
            (
                "spec-parity",
                "src/hv/monitor.hh",
                "hypercall hcEnclave%s has no specHc%s in "
                "src/ccal/specs.hh (add the spec, or allowlist a "
                "vCPU-local call in tools/hev_lint.py)" % (name, name),
            )
        )
    for name in sorted(spec_names - hcs):
        violations.append(
            (
                "spec-parity",
                "src/ccal/specs.hh",
                "specHc%s has no hcEnclave%s hypercall in "
                "src/hv/monitor.hh (orphaned spec)" % (name, name),
            )
        )
    return violations, True


# --------------------------------------------------------------------------
# Check 2: lock-order DAG and acquisition sites
# --------------------------------------------------------------------------


def parse_lock_decls(text):
    """[(lock, [predecessors])] from HEV_ACQUIRED_AFTER declarations.

    Matches across line breaks: `mutable Mutex name\n    HEV_ACQUIRED_
    AFTER(a, b);` is one declaration.
    """
    clean = strip_comments(text)
    decls = []
    seen = set()
    for m in re.finditer(
        r"\b(?:Mutex|SharedMutex)\s+(\w+)(?:\s+HEV_ACQUIRED_AFTER\s*"
        r"\(([^)]*)\))?\s*;",
        clean,
    ):
        name = m.group(1)
        preds = (
            [p.strip() for p in m.group(2).split(",") if p.strip()]
            if m.group(2)
            else []
        )
        decls.append((name, preds))
        seen.add(name)
    return decls, seen


def find_cycle(edges):
    """Return one cycle as a list of nodes, or None if the graph is a DAG."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack = []

    def visit(node):
        color[node] = GRAY
        stack.append(node)
        for succ in edges.get(node, ()):
            state = color.get(succ, WHITE)
            if state == GRAY:
                return stack[stack.index(succ):] + [succ]
            if state == WHITE:
                cycle = visit(succ)
                if cycle:
                    return cycle
        stack.pop()
        color[node] = BLACK
        return None

    for node in list(edges):
        if color.get(node, WHITE) == WHITE:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def parse_rank_values(root):
    """{rank-name: numeric} from the LockRank enum, if present."""
    text = read(root, "src/smp/lock_witness.hh")
    if text is None:
        return None
    clean = strip_comments(text)
    m = re.search(r"enum\s+class\s+LockRank[^{]*\{(.*?)\}", clean, re.S)
    if not m:
        return None
    values = {}
    nxt = 0
    for entry in m.group(1).split(","):
        entry = entry.strip()
        if not entry:
            continue
        em = re.match(r"(\w+)\s*(?:=\s*(\d+))?", entry)
        if not em:
            continue
        if em.group(2) is not None:
            nxt = int(em.group(2))
        values[em.group(1)] = nxt
        nxt += 1
    return values


def parse_rank_names(root):
    """{lock-member-name: rank-name} from lockRankName()'s switch."""
    text = read(root, "src/smp/lock_witness.cc")
    if text is None:
        return None
    pairs = re.findall(
        r'case\s+LockRank::(\w+)\s*:\s*return\s+"(\w+)"', text
    )
    return {lock: rank for rank, lock in pairs}


def check_lock_dag(root):
    violations = []
    monitor = read(root, "src/smp/smp_monitor.hh")
    if monitor is None:
        return violations, False
    decls, lock_names = parse_lock_decls(monitor)

    edges = {}
    for lock, preds in decls:
        for pred in preds:
            if pred not in lock_names:
                violations.append(
                    (
                        "lock-dag",
                        "src/smp/smp_monitor.hh",
                        "%s declared HEV_ACQUIRED_AFTER(%s) but no such "
                        "lock member exists" % (lock, pred),
                    )
                )
            edges.setdefault(pred, []).append(lock)
            edges.setdefault(lock, [])

    cycle = find_cycle(edges)
    if cycle:
        violations.append(
            (
                "lock-dag",
                "src/smp/smp_monitor.hh",
                "HEV_ACQUIRED_AFTER declarations form a cycle: %s"
                % " -> ".join(cycle),
            )
        )

    # Rank consistency: every declared edge must go strictly uphill in
    # the witness's numbering, or the three enforcement layers disagree.
    ranks = parse_rank_values(root)
    names = parse_rank_names(root)
    if ranks is not None and names is not None and not cycle:
        def rank_of(lock):
            rank_name = names.get(lock)
            return ranks.get(rank_name) if rank_name else None

        for lock, preds in decls:
            for pred in preds:
                lr, pr = rank_of(lock), rank_of(pred)
                if lr is not None and pr is not None and lr <= pr:
                    violations.append(
                        (
                            "lock-dag",
                            "src/smp/lock_witness.hh",
                            "LockRank order contradicts the DAG: %s "
                            "(rank %d) is HEV_ACQUIRED_AFTER %s "
                            "(rank %d)" % (lock, lr, pred, pr),
                        )
                    )

        violations.extend(check_acquisition_sites(root, ranks))
    return violations, True


GUARD_RE = re.compile(
    r"\b(?:ExclusiveServicingGuard|SharedServicingGuard|"
    r"MutexServicingGuard|WitnessedGuard)\s+\w+\s*\("
)
RANK_RE = re.compile(r"LockRank::(\w+)")
SUPPRESS = "hev-lint: allow lock-order"


def check_acquisition_sites(root, ranks):
    """Scan src/smp/*.cc guard constructions for rank inversions.

    Brace-depth tracking keeps a stack of live guards per function; a
    new guard whose rank is <= a live one is an inversion.  Guard
    statements can span lines, so lines are joined until parens
    balance.
    """
    violations = []
    smp_dir = os.path.join(root, "src/smp")
    if not os.path.isdir(smp_dir):
        return violations
    for fname in sorted(os.listdir(smp_dir)):
        if not fname.endswith(".cc"):
            continue
        rel = "src/smp/" + fname
        text = strip_comments(read(root, rel))
        raw = read(root, rel)
        suppress_depths = set()
        depth = 0
        live = []  # (depth-at-construction, rank-name, line)
        pending = ""
        pending_line = 0
        for lineno, (line, raw_line) in enumerate(
            zip(text.splitlines(), raw.splitlines()), 1
        ):
            if SUPPRESS in raw_line:
                suppress_depths.add(depth)
            if pending:
                line = pending + " " + line.strip()
                lineno = pending_line
                pending = ""
            m = GUARD_RE.search(line)
            if m and line.count("(") > line.count(")"):
                pending = line
                pending_line = lineno
                # Still track braces on the raw line below.
                m = None
            if m:
                rm = RANK_RE.search(line, m.end() - 1)
                if rm and rm.group(1) in ranks:
                    rank = ranks[rm.group(1)]
                    if not any(d <= depth for d in suppress_depths):
                        for _, prior, prior_line in live:
                            if ranks[prior] >= rank:
                                violations.append(
                                    (
                                        "lock-dag",
                                        rel,
                                        "line %d acquires %s (rank %d) "
                                        "while a rank-%d guard from "
                                        "line %d is live"
                                        % (
                                            lineno,
                                            rm.group(1),
                                            rank,
                                            ranks[prior],
                                            prior_line,
                                        ),
                                    )
                                )
                    live.append((depth, rm.group(1), lineno))
            for c in line if not pending else "":
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    live = [g for g in live if g[0] <= depth]
                    suppress_depths = {
                        d for d in suppress_depths if d <= depth
                    }
            if depth <= 0:
                live = []
    return violations


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

CHECKS = (
    ("spec-parity", check_spec_parity),
    ("lock-dag", check_lock_dag),
)


def main(argv):
    ap = argparse.ArgumentParser(
        description="hev cross-layer parity and lock-discipline linter"
    )
    ap.add_argument(
        "--root",
        default=".",
        help="tree to lint (default: current directory)",
    )
    ap.add_argument(
        "--require-all",
        action="store_true",
        help="fail if any check's input files are missing "
        "(use on the real tree; fixtures carry partial trees)",
    )
    ap.add_argument(
        "-v", "--verbose", action="store_true", help="report clean checks"
    )
    args = ap.parse_args(argv)

    if not os.path.isdir(args.root):
        print("hev-lint: no such directory: %s" % args.root,
              file=sys.stderr)
        return 2

    total = 0
    for name, fn in CHECKS:
        violations, ran = fn(args.root)
        if not ran:
            if args.require_all:
                print(
                    "hev-lint: %s: input files missing under %s"
                    % (name, args.root)
                )
                total += 1
            continue
        for check, rel, message in violations:
            print("hev-lint: %s: %s: %s" % (check, rel, message))
        total += len(violations)
        if args.verbose and not violations:
            print("hev-lint: %s: clean" % name)

    if total:
        print("hev-lint: %d violation(s)" % total)
        return 1
    if args.verbose:
        print("hev-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
