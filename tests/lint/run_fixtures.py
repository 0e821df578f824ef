#!/usr/bin/env python3
"""Fixture harness for tools/hev_lint.py.

Each directory under tests/lint/fixtures/ is a partial source tree with
one planted cross-layer violation and an expect.txt holding a substring
the linter must print for it.  The harness runs the linter over every
fixture and asserts:

  - the linter exits nonzero (the violation is detected), and
  - the expected substring appears in its output (it is the *right*
    violation, not a parse error).

Every check the linter still runs (hev_lint.CHECKS) must be fired by
at least one fixture, so a check cannot lose its planted violation
unnoticed.  It also runs the linter over the real tree (--require-all)
and asserts a clean pass, so the planted fixtures cannot rot into
"everything fails" false positives.

Usage: run_fixtures.py <repo-root>
"""

import os
import re
import subprocess
import sys


def run_lint(lint, root, extra=()):
    return subprocess.run(
        [sys.executable, lint, "--root", root, *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def main():
    if len(sys.argv) != 2:
        print("usage: run_fixtures.py <repo-root>", file=sys.stderr)
        return 2
    repo = os.path.abspath(sys.argv[1])
    lint = os.path.join(repo, "tools", "hev_lint.py")
    fixtures = os.path.join(repo, "tests", "lint", "fixtures")

    sys.dont_write_bytecode = True  # no __pycache__ in the source tree
    sys.path.insert(0, os.path.dirname(lint))
    import hev_lint

    failures = 0
    fired = set()

    for name in sorted(os.listdir(fixtures)):
        fixture = os.path.join(fixtures, name)
        if not os.path.isdir(fixture):
            continue
        expect_path = os.path.join(fixture, "expect.txt")
        with open(expect_path, "r", encoding="utf-8") as f:
            expected = f.read().strip()
        result = run_lint(lint, fixture)
        fired.update(re.findall(r"^hev-lint: ([\w-]+): ", result.stdout, re.M))
        if result.returncode == 0:
            print("FAIL %s: planted violation not detected" % name)
            print(result.stdout)
            failures += 1
        elif expected not in result.stdout:
            print(
                'FAIL %s: expected "%s" in output, got:' % (name, expected)
            )
            print(result.stdout)
            failures += 1
        else:
            print("ok   %s" % name)

    for check, _ in hev_lint.CHECKS:
        if check not in fired:
            print("FAIL %s: no fixture plants a violation of it" % check)
            failures += 1

    clean = run_lint(lint, repo, ("--require-all",))
    if clean.returncode != 0:
        print("FAIL clean-tree: linter reports violations on the repo:")
        print(clean.stdout)
        failures += 1
    else:
        print("ok   clean-tree")

    if failures:
        print("%d fixture check(s) failed" % failures)
        return 1
    print("all fixtures detected, clean tree passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
