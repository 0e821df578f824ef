#!/usr/bin/env bash
# ThreadSanitizer smoke for the SMP subsystem: build the test suite
# with TSan and run every smp-, campaign-, paging-, batch-, migrate-
# and obs-labeled test.
# The threaded tests (tests/smp/test_smp_threads.cc) drive real
# std::threads through the hypercall, shootdown, frame-cache and
# evict/reload paging paths, and the obs tests retire per-thread stat
# shards and trace rings across thread exit, so a data race in the
# locking protocol (or a use-after-free TSan notices) fails this job.
# The wall-clock bench gates (label bench) are left to the plain
# build: TSan's slowdown puts every throughput band out of reach.
# Intended as a CI job: ./tools/smp_tsan.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-smp-tsan}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

echo "== configuring ${BUILD_DIR} with HEV_SANITIZE=thread"
cmake -B "${BUILD_DIR}" -S "${SRC_DIR}" \
    -DHEV_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null

echo "== building the test suite"
cmake --build "${BUILD_DIR}" -j > /dev/null

echo "== running smp + campaign + paging + batch + migrate + obs tests under TSan"
# halt_on_error makes any race report fatal -> non-zero exit.
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "${BUILD_DIR}" -L 'smp|campaign|paging|batch|migrate|obs' \
    -LE bench --output-on-failure

echo "== smp tsan smoke passed (no race, no failure)"
