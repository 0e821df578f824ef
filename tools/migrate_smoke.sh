#!/usr/bin/env bash
# Sanitizer smoke for the snapshot/restore + live-migration subsystem
# and the monitor underneath it: build with ASan+UBSan and run every
# migrate-labeled test — the snapshot/restore unit tests,
# dirty-tracking, the spec lockstep and quiesced-fold equivalence
# suites, the migration campaign, the SMP migration storms, and the
# image secrecy oracle — plus the paging, batch and hv suites (the
# monitor's page steps, page tables and EPCM) and the walk suites (the
# one table walker and the spec-side walks that read raw FrameWords
# frames through it), then the migrate bench once as a correctness
# pass (its 2x downtime gate and internal FAILURE checks run under the
# sanitizers; the timing figures are ignored).  Fails (non-zero) on any test failure, sanitizer report,
# or build error — the sanitizer builds use -fno-sanitize-recover, so
# a UBSan finding aborts the run instead of printing a warning and
# passing.  Intended as a CI job: ./tools/migrate_smoke.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build-migrate-asan}"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

echo "== configuring ${BUILD_DIR} with HEV_SANITIZE=address,undefined"
cmake -B "${BUILD_DIR}" -S "${SRC_DIR}" \
    -DHEV_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null

echo "== building the test suite"
cmake --build "${BUILD_DIR}" -j > /dev/null

# halt_on_error makes any sanitizer report fatal -> non-zero exit.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:abort_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

echo "== running migrate/paging/batch/hv/walk-labeled tests under ASan+UBSan"
ctest --test-dir "${BUILD_DIR}" -L 'migrate|paging|batch|hv|walk' \
    --output-on-failure -E '^bench_'

echo "== running bench_migrate once under ASan+UBSan (gates only)"
(cd "${BUILD_DIR}/bench" && ./bench_migrate > /dev/null)

echo "== migrate smoke passed (no failure, no sanitizer report)"
