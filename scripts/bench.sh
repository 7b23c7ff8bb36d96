#!/usr/bin/env bash
# Release-mode bench runner. Bench numbers are only meaningful from a
# build with asserts compiled out — bench_common.h refuses to run a
# debug build (see RequireReleaseBuild) — so this script owns the
# configure-build-run loop for a dedicated Release tree and keeps the
# recorded BENCH_*.json provenance honest ("serd_build_type": "release"
# in the google-benchmark context; the "library_build_type" key next to
# it describes the distro's benchmark library, not the code under test).
#
#   scripts/bench.sh                # build every bench target (build-bench/)
#   scripts/bench.sh generate       # bench_micro --generate -> BENCH_generate.json
#   scripts/bench.sh kernels        # bench_micro --kernels  -> BENCH_kernels.json
#   scripts/bench.sh micro          # full bench_micro       -> BENCH_micro.json
#   scripts/bench.sh serve          # bench_serve            -> BENCH_serve.json
#   scripts/bench.sh <bench_target> # any other bench binary (e.g. bench_blocking)
#
# JSON outputs land in the repository root (the benches write to their
# working directory), where the checked-in BENCH_*.json snapshots live.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD=build-bench

echo "==> configure + build (Release bench tree: $BUILD/)"
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
case "${1:-all}" in
  all)      cmake --build "$BUILD" -j "$JOBS" ;;
  generate) cmake --build "$BUILD" -j "$JOBS" --target bench_micro ;;
  kernels)  cmake --build "$BUILD" -j "$JOBS" --target bench_micro ;;
  micro)    cmake --build "$BUILD" -j "$JOBS" --target bench_micro ;;
  serve)    cmake --build "$BUILD" -j "$JOBS" --target bench_serve ;;
  *)        cmake --build "$BUILD" -j "$JOBS" --target "$1" ;;
esac

case "${1:-all}" in
  all)
    echo "==> built all bench targets; rerun with a bench name to run one"
    ;;
  generate)
    echo "==> bench_micro --generate (decode rows)"
    "$BUILD/bench/bench_micro" --generate
    ;;
  kernels)
    echo "==> bench_micro --kernels (kernel-layer rows)"
    "$BUILD/bench/bench_micro" --kernels
    ;;
  micro)
    echo "==> bench_micro (full micro suite)"
    "$BUILD/bench/bench_micro"
    ;;
  serve)
    echo "==> bench_serve"
    "$BUILD/bench/bench_serve"
    ;;
  *)
    echo "==> $1"
    "$BUILD/bench/$1"
    ;;
esac
