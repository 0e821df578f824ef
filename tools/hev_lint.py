#!/usr/bin/env python3
"""hev-lint: cross-layer parity and lock-discipline checker.

The repo keeps parallel structures across modules that no compiler
sees together, so they must not drift:

  spec-parity    every hcEnclaveXxx hypercall in src/hv/monitor.hh has a
                 matching specHcXxx in src/ccal/specs.hh (and vice
                 versa); Enter/Exit/Report are vCPU-local and have no
                 flat-spec counterpart by design.
  lock-order     every guard construction in src/smp/*.cc names a lock
                 from HEV_SMP_LOCKS (src/smp/lock_witness.hh, the one
                 declaration of the lock order), and none acquires a
                 lock at or before one whose guard is still live.

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
# Check 2: lock order at acquisition sites
# --------------------------------------------------------------------------

# The body of `#define HEV_SMP_LOCKS(X)`, one X(Rank, memberName) entry
# per lock in acquisition order.
LOCKS_RE = re.compile(r"#define\s+HEV_SMP_LOCKS\(X\)((?:.*\\\n)*.*)")
ENTRY_RE = re.compile(r"\bX\(\s*\w+\s*,\s*(\w+)\s*\)")
GUARD_RE = re.compile(
    r"\b(?:(?:Shared)?ServicingGuard|WitnessedGuard)\s+\w+\s*\("
)
SUPPRESS = "hev-lint: allow lock-order"


def parse_lock_order(root):
    """Lock member names in HEV_SMP_LOCKS order; None without the file."""
    text = read(root, "src/smp/lock_witness.hh")
    if text is None:
        return None
    m = LOCKS_RE.search(strip_comments(text))
    return ENTRY_RE.findall(m.group(1)) if m else []


def check_lock_order(root):
    order = parse_lock_order(root)
    if order is None:
        return [], False
    if not order:
        return [
            (
                "lock-order",
                "src/smp/lock_witness.hh",
                "no HEV_SMP_LOCKS(X) list to rank guards against",
            )
        ], True
    return check_acquisition_sites(root, order), True


def check_acquisition_sites(root, order):
    """Scan src/smp/*.cc guard constructions against the lock order.

    A guard's rank is the position in HEV_SMP_LOCKS of the lock member
    its argument list names; a guard naming none is a violation.
    Brace-depth tracking keeps a stack of live guards per function; a
    new guard whose rank is <= a live one is an inversion.  Guard
    statements can span lines, so lines are joined until parens
    balance.
    """
    rank = {member: i for i, member in enumerate(order)}
    member_re = re.compile(r"\b(%s)\b" % "|".join(order))
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
        live = []  # (depth-at-construction, lock member, line)
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
                lm = member_re.search(line[m.end():].split(";")[0])
                if not lm:
                    violations.append(
                        (
                            "lock-order",
                            rel,
                            "line %d constructs a guard whose lock is no "
                            "HEV_SMP_LOCKS member" % lineno,
                        )
                    )
                else:
                    lock = lm.group(1)
                    if not any(d <= depth for d in suppress_depths):
                        for _, prior, prior_line in live:
                            if rank[prior] >= rank[lock]:
                                violations.append(
                                    (
                                        "lock-order",
                                        rel,
                                        "line %d acquires %s while %s "
                                        "from line %d is live"
                                        % (lineno, lock, prior, prior_line),
                                    )
                                )
                    live.append((depth, lock, lineno))
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
    ("lock-order", check_lock_order),
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
