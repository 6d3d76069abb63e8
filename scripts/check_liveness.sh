#!/usr/bin/env bash
# Liveness guard: every translation unit and every out-of-line function
# in a src/ library must be linked into at least one shipped program.
#
# Builds the shipped programs (the recperf CLI, every bench/ binary,
# every example, and perfbench's recperf_bench from its own unchanged
# CMake project) plus every src/ library in Debug trees compiled with
# -ffunction-sections -fdata-sections and linked with -Wl,--gc-sections,
# so a function that no program calls is dropped at link time. Then:
#
#  - a global (strong) text symbol of a src/ library is live when it
#    survives in at least one shipped binary; every other one is dead;
#  - an object file is dead when none of its functions is live.
#
# The script lists each dead function and object and exits 1 if any is
# found outside the EXEMPT table below; only tests reaching a function
# does not keep it alive. Inline, template and virtual functions are
# not covered: the first two are weak symbols, and a live vtable keeps
# every virtual it names.
#
# Usage: scripts/check_liveness.sh [build-dir]   (default: build-liveness)
#        JOBS=N scripts/check_liveness.sh         (parallel build jobs)
set -euo pipefail
export LC_ALL=C

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-$ROOT/build-liveness}
JOBS=${JOBS:-$(nproc)}

# Functions allowed to reach no shipped binary (demangled name), each
# with the reason. Keep this list short: a test oracle belongs here, a
# function that merely has no caller yet does not.
declare -A EXEMPT=(
    ["recperf::CacheHierarchy::checkInclusionInvariant() const"]="test oracle: the simcache tests assert the inclusive-LLC invariant after access streams"
    ["recperf::Cache::residentLines() const"]="test oracle: the inclusion check and the reference-cache test compare a level's contents through it"
    ["recperf::EmbeddingVectorCache::contains(unsigned long) const"]="test oracle: probes residency without touching LRU state, so the LRU tests can assert eviction order"
    ["recperf::IntegrityShield::scanCorrupted() const"]="test oracle: full-table checksum sweep the integrity tests assert clean/dirty rows with"
    ["recperf::obs::TimeSeriesSampler::samples() const"]="test oracle: structured view of the ring whose JSONL export (toJsonl) is the shipped form"
)

FLAGS=(-DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections")

build() {  # build <tree> <log> <targets...>
    local tree=$1 log=$2
    shift 2
    if ! cmake --build "$tree" -j "$JOBS" --target "$@" > "$log" 2>&1; then
        tail -n 40 "$log"
        echo "build failed; full log in $log" >&2
        exit 2
    fi
}

cmake -B "$BUILD" -S "$ROOT" "${FLAGS[@]}" > /dev/null
cmake -B "$BUILD/perfbench" -S "$ROOT/perfbench" "${FLAGS[@]}" > /dev/null

libs=$(sed -n 's/^add_library(\([a-z0-9_]*\).*/\1/p' "$ROOT"/src/*/CMakeLists.txt)
benches=$(sed -n 's/^recperf_bench(\([a-z0-9_]*\)).*/\1/p' "$ROOT/bench/CMakeLists.txt")
examples=$(sed -n 's/^recperf_example(\([a-z0-9_]*\)).*/\1/p' "$ROOT/examples/CMakeLists.txt")

# shellcheck disable=SC2086
build "$BUILD" "$BUILD/liveness-build.log" recperf $libs $benches $examples
build "$BUILD/perfbench" "$BUILD/liveness-perfbench.log" recperf_bench

binaries=("$BUILD/tools/recperf" "$BUILD/perfbench/recperf_bench")
for b in $benches; do binaries+=("$BUILD/bench/$b"); done
for e in $examples; do binaries+=("$BUILD/examples/$e"); done

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# Every symbol defined in a shipped binary.
for bin in "${binaries[@]}"; do
    nm --defined-only "$bin" | awk '{print $NF}'
done | sort -u > "$scratch/linked"

# "dir/object symbol" for each global (strong) text symbol. Such a
# symbol is defined exactly once in a program, so finding it in a
# binary means this object's copy was linked and kept.
for lib in "$BUILD"/src/*/lib*.a; do
    dir=$(basename "$(dirname "$lib")")
    nm -A --defined-only "$lib" |
        awk -v d="$dir" '$2 == "T" {n = split($1, p, ":");
                                    print d "/" p[n - 1], $3}'
done | sort -k2,2 > "$scratch/defined"
awk '{print $2}' "$scratch/defined" | sort -u > "$scratch/symbols"
comm -23 "$scratch/symbols" "$scratch/linked" > "$scratch/unlinked"

dead=0
exempt=0
# One "object<TAB>demangled" line per function no shipped binary keeps.
join -1 2 -2 1 -o 1.1,1.2 "$scratch/defined" "$scratch/unlinked" |
    while read -r obj sym; do
        printf '%s\t%s\n' "$obj" "$(c++filt "$sym")"
    done | sort -u > "$scratch/dead"

while IFS=$'\t' read -r obj fn; do
    if [[ -n ${EXEMPT[$fn]:-} ]]; then
        echo "exempt: $fn (src/${obj%.o}; ${EXEMPT[$fn]})"
        exempt=$((exempt + 1))
    else
        echo "DEAD:   $fn (src/${obj%.o})"
        dead=$((dead + 1))
    fi
done < "$scratch/dead"

# Whole objects none of whose functions survive (the exemptions above
# do not keep an object alive).
objects=$(awk '{print $1}' "$scratch/defined" | sort -u)
live_objects=$(join -1 2 -2 1 -o 1.1 "$scratch/defined" "$scratch/linked" |
    sort -u)
dead_objects=$(comm -23 <(echo "$objects") <(echo "$live_objects"))
for obj in $dead_objects; do
    echo "DEAD:   src/${obj%.o} (no function reaches a shipped binary)"
    dead=$((dead + 1))
done

echo "checked $(echo "$objects" | wc -l) objects and" \
    "$(wc -l < "$scratch/symbols") functions against ${#binaries[@]}" \
    "binaries: $dead dead, $exempt exempt"
[[ $dead -eq 0 ]]
