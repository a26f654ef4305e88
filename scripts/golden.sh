#!/usr/bin/env bash
# Byte-identity proof for refactors: runs the twenty-four quick,
# deterministic binaries that touch the DHT, the static rings, the worm
# scenarios, the bare overlay nodes (churn, Legacy maintenance, transitive
# mode, model checker, chaos search) or the trace pipeline and compares the
# SHA-256 of each one's stdout with results/golden_quick.sha256. A
# behaviour-preserving change leaves every hash equal; a change that means
# to alter protocol output regenerates the file with
# `scripts/golden.sh --update` and says so in its description.
#
# `scripts/golden.sh --against DIR [-- ARGS...]` compares with another
# checkout instead (say, a `git clone` of the parent commit): it builds the
# same bins there, runs each bin of both builds with ARGS, and exits 1
# naming the bins whose stdout or exit status differs.
# Run from anywhere; takes about 70 s after the release build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
golden="$root/results/golden_quick.sha256"
bins=(fig6_dht_latency fig7_dht_bandwidth extG_churn_resilience extI_durability
      extK_adversary extL_load durability_check workload_check adversary_check
      fig8_worm_propagation ablation_finger_shift extC_type_imbalance extD_guardians
      extE_unstructured extF_sybil extH_detection_latency
      fig5_lookup_latency extA_lookup_failure extB_maintenance_bw extM_ring_safety
      ring_check chaos_check extO_chaos trace_schema_check)

against=""
if [[ "${1:-}" == "--against" ]]; then
    if [[ ! -d "${2:-}" ]]; then
        echo "usage: scripts/golden.sh [--update | --against DIR [-- ARGS...]]" >&2
        exit 2
    fi
    against="$(cd "$2" && pwd)"
    shift 2
    [[ "${1:-}" == "--" ]] && shift
fi

cd "$root"
cargo build --release --offline --quiet -p verme-bench \
    $(printf -- '--bin %s ' "${bins[@]}")
target="${CARGO_TARGET_DIR:-$root/target}"

# extO_chaos writes its repro files under $VERME_BENCH_DIR and prints the
# path of each one, so the side directory is a fixed name relative to the
# root, not a mktemp one.
side="target/golden-side"
rm -rf "$side"
mkdir -p "$side"
trap 'rm -rf "$side"' EXIT
export VERME_BENCH_DIR="$side"

if [[ -n "$against" ]]; then
    cargo build --release --offline --quiet --manifest-path "$against/Cargo.toml" \
        --target-dir "$against/target" -p verme-bench $(printf -- '--bin %s ' "${bins[@]}")
    mkdir -p "$side/base" "$side/head"
    differ=()
    for bin in "${bins[@]}"; do
        for build in base head; do
            dir="$target"
            [[ "$build" == base ]] && dir="$against/target"
            # Both builds write their side files under the same directory
            # name (extO_chaos prints the paths), emptied before each run.
            find "$side" -maxdepth 1 -type f -delete
            status=0
            "$dir/release/$bin" "$@" >"$side/$build/$bin.out" 2>/dev/null || status=$?
            echo "exit status $status" >>"$side/$build/$bin.out"
        done
        cmp -s "$side/base/$bin.out" "$side/head/$bin.out" || differ+=("$bin")
    done
    if ((${#differ[@]})); then
        for bin in "${differ[@]}"; do
            diff -u "$side/base/$bin.out" "$side/head/$bin.out" | head -n 40 >&2 || true
        done
        echo "golden: stdout differs from $against for: ${differ[*]}" >&2
        exit 1
    fi
    echo "golden: all ${#bins[@]} outputs equal to $against's${*:+ with $*}"
    exit 0
fi

actual="$side/actual.sha256"
for bin in "${bins[@]}"; do
    # stderr carries only wall-clock chatter on success; a bin that exits
    # non-zero (a *_check gate, a panic) gets both streams shown.
    if ! "$target/release/$bin" >"$side/$bin.out" 2>"$side/$bin.err"; then
        cat "$side/$bin.out" "$side/$bin.err" >&2
        echo "golden: $bin exited non-zero (output above)" >&2
        exit 1
    fi
    echo "$(sha256sum <"$side/$bin.out" | cut -d' ' -f1)  $bin" >>"$actual"
done

if [[ "${1:-}" == "--update" ]]; then
    cp "$actual" "$golden"
    echo "golden: wrote $golden"
elif diff -u "$golden" "$actual"; then
    echo "golden: all ${#bins[@]} outputs byte-identical"
else
    echo "golden: stdout drifted from $golden (see diff above)" >&2
    exit 1
fi
