#!/usr/bin/env bash
# Liveness guard: every translation unit in a src/ library must be
# linked into at least one shipped program.
#
# Builds the non-test targets (the recperf CLI, every bench/ binary and
# every example) plus every src/ library in a Debug tree compiled with
# -ffunction-sections -fdata-sections and linked with -Wl,--gc-sections,
# so a function that no program calls is dropped at link time. An object
# file in a src/ library is live when at least one of its global
# function symbols survives in one of those binaries. The script lists
# every dead object and exits 1 if any is found; only tests reaching a
# module does not keep it alive.
#
# Usage: scripts/check_liveness.sh [build-dir]   (default: build-liveness)
#        JOBS=N scripts/check_liveness.sh         (parallel build jobs)
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-$ROOT/build-liveness}
JOBS=${JOBS:-$(nproc)}

# Objects allowed to be dead in this build, with the reason.
declare -A EXEMPT=(
    [ops/reference.cc]="naive test oracle; its only non-test user is perfbench, which this build does not include"
)

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null

libs=$(sed -n 's/^add_library(\([a-z0-9_]*\).*/\1/p' "$ROOT"/src/*/CMakeLists.txt)
benches=$(sed -n 's/^recperf_bench(\([a-z0-9_]*\)).*/\1/p' "$ROOT/bench/CMakeLists.txt")
examples=$(sed -n 's/^recperf_example(\([a-z0-9_]*\)).*/\1/p' "$ROOT/examples/CMakeLists.txt")

# shellcheck disable=SC2086
if ! cmake --build "$BUILD" -j "$JOBS" --target recperf $libs $benches \
    $examples > "$BUILD/liveness-build.log" 2>&1; then
    tail -n 40 "$BUILD/liveness-build.log"
    echo "build failed; full log in $BUILD/liveness-build.log" >&2
    exit 2
fi

binaries=("$BUILD/tools/recperf")
for b in $benches; do binaries+=("$BUILD/bench/$b"); done
for e in $examples; do binaries+=("$BUILD/examples/$e"); done

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# Every symbol defined in a shipped binary.
for bin in "${binaries[@]}"; do
    nm --defined-only "$bin" | awk '{print $NF}'
done | sort -u > "$scratch/linked"

dead=0
checked=0
for lib in "$BUILD"/src/*/lib*.a; do
    dir=$(basename "$(dirname "$lib")")
    # "member symbol" for each global (strong) text symbol. Such a
    # symbol is defined exactly once in the program, so finding it in a
    # binary means this object's copy was linked and kept.
    nm -A --defined-only "$lib" |
        awk '$2 == "T" {n = split($1, p, ":"); print p[n - 1], $3}' \
        > "$scratch/lib"
    for obj in $(ar t "$lib"); do
        tu="$dir/${obj%.o}"
        checked=$((checked + 1))
        awk -v o="$obj" '$1 == o {print $2}' "$scratch/lib" | sort -u \
            > "$scratch/tu"
        total=$(wc -l < "$scratch/tu")
        live=$(comm -12 "$scratch/tu" "$scratch/linked" | wc -l)
        if [[ $live -gt 0 ]]; then
            continue
        fi
        if [[ -n ${EXEMPT[$tu]:-} ]]; then
            echo "exempt: src/$tu ($total functions; ${EXEMPT[$tu]})"
        else
            echo "DEAD:   src/$tu (0 of $total functions reach a shipped binary)"
            dead=$((dead + 1))
        fi
    done
done

echo "checked $checked objects against ${#binaries[@]} binaries: $dead dead"
[[ $dead -eq 0 ]]
