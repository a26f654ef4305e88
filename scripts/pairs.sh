#!/usr/bin/env bash
# The ten-pair rule for a claimed gain: runs one benchmark workload in
# pairs, this checkout (the change) against another checkout (the base,
# say a `git archive` of the parent commit), and says whether the change
# wins on enough pairs by more than the base's own spread.
#
#   scripts/pairs.sh --against DIR --workload W [--seed S] [--pairs N] [--metric M]
#
# It builds perf/ in both checkouts, then makes N pairs of timed runs
# (`--seconds 12 --trace 0`, as the benchmark does), alternating which side
# runs first. It prints one row per pair, then each side's median and
# quartiles, the change's wins, the ratio of the medians (change / base)
# and whether the rule holds: the change wins at least 9 pairs in 10, and
# its median beats the base's by more than the base's interquartile range.
# M is one of the timed pass's metrics (run_s, setup_s, peak_rss_mb; all
# lower is better; default run_s), S defaults to 42 and N to 10.
#
# Exits 1 if the two sides' simulation fingerprints differ or a run is not
# correct, 2 on a usage error, 0 otherwise, whatever the rule says. Writes
# nothing tracked: the builds go to each checkout's ignored perf/target and
# the run outputs to a temporary directory. Run from anywhere.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage="usage: scripts/pairs.sh --against DIR --workload W [--seed S] [--pairs N] [--metric M]"

against="" workload="" seed=42 pairs=10 metric=run_s
while (($#)); do
    case "$1" in
        --against) against="${2:-}" ;;
        --workload) workload="${2:-}" ;;
        --seed) seed="${2:-}" ;;
        --pairs) pairs="${2:-}" ;;
        --metric) metric="${2:-}" ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
    shift 2 || { echo "$usage" >&2; exit 2; }
done
if [[ ! -d "$against" || -z "$workload" ]] || ! [[ "$seed" =~ ^[0-9]+$ && "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "$usage" >&2
    exit 2
fi
case "$metric" in
    run_s | setup_s | peak_rss_mb) ;;
    *) echo "pairs: --metric must be run_s, setup_s or peak_rss_mb" >&2; exit 2 ;;
esac
base="$(cd "$against" && pwd)"

for side in "$base" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$side/perf/Cargo.toml" \
        --target-dir "$side/perf/target"
done

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# One timed run of `side` (base or change) for pair `i`; the metric's
# value and the fingerprint land in $out/<side>.<i>.
run() {
    local side="$1" i="$2" dir="$root"
    [[ "$side" == base ]] && dir="$base"
    (cd "$dir" && "$dir/perf/target/release/verme-perf" --workload "$workload" \
        --seed "$seed" --seconds 12 --trace 0) >"$out/$side.$i"
}

# Reads metric or fingerprint `key` from a run's output.
field() { awk -v w="$workload" -v k="$2" '$1 == w && $2 == k { print $3 }' "$out/$1"; }

status=0
printf '%-5s %-7s %14s %14s %8s\n' pair first base change ratio
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(base change); else order=(change base); fi
    for side in "${order[@]}"; do run "$side" "$i"; done
    b="$(field "base.$i" "$metric")" c="$(field "change.$i" "$metric")"
    for side in base change; do
        if ! tail -n 1 "$out/$side.$i" | grep -q '"correct":true'; then
            echo "pairs: pair $i, the $side run is not correct" >&2
            status=1
        fi
    done
    if [[ "$(field "base.$i" sim_fingerprint)" != "$(field "change.$i" sim_fingerprint)" ]]; then
        echo "pairs: pair $i, fingerprints differ:" \
            "$(field "base.$i" sim_fingerprint) $(field "change.$i" sim_fingerprint)" >&2
        status=1
    fi
    awk -v i="$i" -v f="${order[0]}" -v b="$b" -v c="$c" \
        'BEGIN { printf "%-5d %-7s %14.6g %14.6g %8.4f%s\n", i, f, b, c, c / b, (c < b ? "  win" : "") }'
    echo "$b $c" >>"$out/values"
done

# Medians and quartiles by linear interpolation between order statistics.
awk -v metric="$metric" '
    BEGIN { n = 0; wins = 0 }
    function q(v, n, p,   h, lo) { h = (n - 1) * p; lo = int(h); return v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
    function sort(v, n,   i, j, t) { for (i = 1; i < n; i++) for (j = i; j > 0 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t } }
    { b[n] = $1; c[n] = $2; if ($2 < $1) wins++; n++ }
    END {
        sort(b, n); sort(c, n)
        bq1 = q(b, n, 0.25); bm = q(b, n, 0.5); bq3 = q(b, n, 0.75)
        cq1 = q(c, n, 0.25); cm = q(c, n, 0.5); cq3 = q(c, n, 0.75)
        printf "base    %s median %.6g  quartiles %.6g .. %.6g\n", metric, bm, bq1, bq3
        printf "change  %s median %.6g  quartiles %.6g .. %.6g\n", metric, cm, cq1, cq3
        printf "wins %d of %d; ratio %.4f (change / base medians)\n", wins, n, cm / bm
        holds = (wins * 10 >= 9 * n) && (bm - cm > bq3 - bq1)
        printf "rule %s: >= 9/10 wins and a median gain (%.6g) larger than the base IQR (%.6g)\n",
            holds ? "holds" : "does not hold", bm - cm, bq3 - bq1
    }' "$out/values"
exit "$status"
