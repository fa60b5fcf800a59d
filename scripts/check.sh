#!/usr/bin/env bash
# Tier-1 verify plus the hot-path micro benchmark and the determinism
# gates.
#
# Configures with DP_WERROR=ON so any -Wall -Wextra warning in src/core is
# a build failure, runs the full test suite through ctest, runs
# bench_micro --quick (which also sanity-checks flat-vs-map agreement and
# refreshes BENCH_micro.json), then bench_runtime (which gates bitwise
# 1/2/8-thread stability and refreshes BENCH_runtime.json with the
# time-vs-m rows), bench_substrate
# (which gates the SolverResult bitwise identical across the in-memory /
# streaming / MapReduce access substrates and refreshes
# BENCH_substrate.json), and bench_faults (which gates clean ==
# fault-injected == killed+resumed bitwise across substrates and 1/2/8
# threads and refreshes BENCH_faults.json with the recovery accounting
# and checkpoint-overhead columns), then bench_serve --quick
# (which gates the serving layer's certified-or-typed response invariant
# plus the deadline -> warm-resume bitwise round-trip, and refreshes
# BENCH_serve.json with the latency percentile / shed-rate columns), and
# finally bench_dynamic --quick (which gates the warm re-solve's value and
# certified ratio bitwise-equal to from-scratch after a k-edge delta with
# >= 5x fewer MW rounds and substrate passes, and refreshes
# BENCH_dynamic.json with the rounds/pass-ratio and saved-work columns),
# and bench_outofcore --quick (which gates the file-backed solve bitwise
# identical to in-memory under a resident-edge budget smaller than the
# file plus MapReduce round compression executing fewer simulator rounds,
# and refreshes BENCH_outofcore.json with the bytes-per-edge and
# simulator-round-ratio columns).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# DP_VEC_REPORT leaves the compiler's loop-vectorization report in
# $BUILD_DIR/vec-report.txt (CI archives it as the autovectorization
# audit trail; the hand-tuned exp kernel must show up as vectorized).
cmake -B "$BUILD_DIR" -S . -DDP_WERROR=ON -DDP_VEC_REPORT=ON
cmake --build "$BUILD_DIR" -j"$JOBS"
(cd "$BUILD_DIR" && ctest --output-on-failure -j"$JOBS")
"./$BUILD_DIR/bench_micro" --quick
"./$BUILD_DIR/bench_runtime"
"./$BUILD_DIR/bench_substrate"
"./$BUILD_DIR/bench_faults"
"./$BUILD_DIR/bench_serve" --quick
"./$BUILD_DIR/bench_dynamic" --quick
"./$BUILD_DIR/bench_outofcore" --quick
echo "check.sh: OK"
