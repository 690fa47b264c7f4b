#!/usr/bin/env bash
# Builds the tree under AddressSanitizer + UndefinedBehaviorSanitizer and
# runs the ctest suite with both set to stop at the first report and with
# leak detection on. Any heap or stack overflow, use-after-free, leak or
# undefined behaviour in the library, the server, the CLI, the benches'
# smoke runs or the tests themselves fails this job.
#
# Skipped tests — only ones that assert a wall-time ratio, which the
# instrumentation distorts and no sanitizer checks:
#   check_obs_overhead  tracing on vs off within 3% of each other
#                       (tools/check_obs_overhead.sh)
#
# Usage: tools/check_sanitizers.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
SKIP='^check_obs_overhead$'

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDBREPAIR_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$(nproc)"
ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "$BUILD_DIR" -E "$SKIP" --output-on-failure \
    -j "$(nproc)"
