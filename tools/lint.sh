#!/usr/bin/env bash
# Run every static check the environment supports:
#
#   1. tools/hev_lint.py      — hypercall/spec parity + acquisition
#                               sites against HEV_SMP_LOCKS (always;
#                               pure python3).
#   2. clang-tidy             — .clang-tidy profile over src/, if a
#                               compile database and clang-tidy exist.
#   3. clang -Wthread-safety  — the HEV_ANALYZE build, if clang exists.
#
# Steps whose toolchain is missing are SKIPPED loudly, not failed: the
# container bakes in GCC only, and the cross-layer checks are the
# portable floor every environment must pass.
#
# Usage: tools/lint.sh [build-dir]
#   build-dir: an existing CMake build tree to take the compile
#              database from (default: ./build; regenerated with
#              CMAKE_EXPORT_COMPILE_COMMANDS=ON when absent).

set -u

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
failed=0

say() { printf '%s\n' "$*"; }

# ---- 1. cross-layer parity (portable floor) -------------------------------
say "== hev-lint (hypercall/spec parity, lock order) =="
if python3 "$repo/tools/hev_lint.py" --root "$repo" --require-all; then
    say "hev-lint: OK"
else
    failed=1
fi

# ---- 2. clang-tidy --------------------------------------------------------
say "== clang-tidy (.clang-tidy profile) =="
if ! command -v clang-tidy >/dev/null 2>&1; then
    say "clang-tidy: SKIPPED (not installed; GCC-only container)"
else
    db="$build/compile_commands.json"
    if [ ! -f "$db" ]; then
        say "clang-tidy: generating compile database in $build"
        cmake -B "$build" -S "$repo" \
            -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null || failed=1
    fi
    if [ -f "$db" ]; then
        # Lint the layers the lock-discipline work covers; expand as
        # other layers are brought under the profile.
        find "$repo/src/hv" "$repo/src/smp" "$repo/src/obs" \
            "$repo/src/support" -name '*.cc' -print0 |
            xargs -0 clang-tidy -p "$build" --quiet || failed=1
    else
        say "clang-tidy: SKIPPED (no compile database)"
    fi
fi

# ---- 3. thread-safety analysis -------------------------------------------
say "== clang thread-safety analysis (HEV_ANALYZE) =="
if ! command -v clang++ >/dev/null 2>&1; then
    say "thread-safety: SKIPPED (clang++ not installed; annotations are"
    say "  invisible to GCC — see docs/ANALYSIS.md)"
else
    tsa="$repo/build-analyze"
    cmake -B "$tsa" -S "$repo" -DHEV_ANALYZE=ON \
        -DCMAKE_CXX_COMPILER=clang++ >/dev/null || failed=1
    cmake --build "$tsa" -j "$(nproc)" || failed=1
fi

if [ "$failed" -ne 0 ]; then
    say "lint.sh: FAILURES above"
    exit 1
fi
say "lint.sh: all available checks passed"
