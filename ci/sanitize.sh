#!/usr/bin/env bash
# Sanitizer lanes, selected by SANITIZER:
#
#   SANITIZER=asan (default)  Debug build with AddressSanitizer + UBSan over
#                             the full tier-1 ctest suite. Catches the memory
#                             and UB bugs an optimized build hides
#                             (use-after-free in the event engine, OOB in the
#                             codec, signed overflow in timing arithmetic).
#
#   SANITIZER=tsan            Debug build with ThreadSanitizer over the
#                             concurrency-bearing suites (support executor /
#                             defer queue, parallel sim engine, pipeline
#                             verdict cache, shared intern store, obs
#                             journal + metrics), run
#                             with ICC_THREADS=8 so every guarded test
#                             actually exercises the worker pool. TSan and
#                             ASan cannot be combined in one binary, hence
#                             the separate lane.
set -euo pipefail

SANITIZER="${SANITIZER:-asan}"
BUILD_DIR="${BUILD_DIR:-build-sanitize-$SANITIZER}"
SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

case "$SANITIZER" in
  asan)
    FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
    ;;
  tsan)
    FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
    ;;
  *)
    echo "unknown SANITIZER '$SANITIZER' (expected asan or tsan)" >&2
    exit 2
    ;;
esac

cmake -S "$SOURCE_DIR" -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$FLAGS"

cmake --build "$BUILD_DIR" -j "$JOBS"

if [ "$SANITIZER" = "tsan" ]; then
  # halt_on_error: the first race fails the lane. second_deadlock_stack helps
  # untangle lock-order reports from the sharded verifier cache.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
  # Force the worker pool on for every test that honors the env default, and
  # run the suite binaries directly, one at a time: TSan's shadow memory is
  # heavy, and the interesting interleavings come from the pool's threads,
  # not from parallel test jobs. (ctest -R matches test names, not binaries,
  # and exits 0 on an empty match — direct invocation fails loudly instead.)
  export ICC_THREADS=8
  for suite in support_test sim_test pipeline_test intern_test obs_test journal_test causal_test; do
    echo "== $suite (TSan, ICC_THREADS=8) =="
    "$BUILD_DIR/tests/$suite"
  done
else
  # halt_on_error: any UBSan finding fails the lane instead of scrolling past.
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
fi
