#!/usr/bin/env bash
# Writes the simulator's observable outputs for a fixed set of runs, so two
# builds can be diffed byte for byte:
#
#   scripts/sim_outputs.sh <ppm-sim> <outdir>
#
# For every case it writes <case>.out (scenario report plus --trace),
# <case>.metrics, <case>.spans, <case>.spans.chrome.json and <case>.digest
# (the last line of the `--digest` run). Cases: the six shipped scenarios; the generated
# chain at 24, 64, 256 and 512 hosts; chaos.ppm and congestion.ppm under
# each topology preset; and chaos.ppm under crash_heal.fault at seeds 3 and
# 5, flat and on the fat-tree. Scenario files are read from this script's
# checkout, so both builds see the same inputs.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <ppm-sim> <outdir>" >&2
    exit 1
fi
sim=$(realpath "$1")
out=$2
dir=$(cd "$(dirname "$0")/../scenarios" && pwd)
mkdir -p "$out"

# run <case> <ppm-sim args...>; a failing run (congestion.ppm is meant for
# the fat-tree and times out on the flat wire) records its exit status and
# stderr instead of stopping the script.
run() {
    local name=$1
    shift
    "$sim" --trace --metrics "$out/$name.metrics" --spans "$out/$name.spans" "$@" \
        > "$out/$name.out" 2>&1 || echo "exit $?" >> "$out/$name.out"
    { "$sim" --digest "$@" 2>&1 || echo "exit $?"; } | tail -n 1 > "$out/$name.digest"
}

for s in demo nameserver chaos chaos_dual congestion congestion_noagg; do
    run "$s" "$dir/$s.ppm"
done
for n in 24 64 256 512; do
    run "chain$n" --hosts "$n"
done
for preset in full-mesh fat-tree wan-hub last-mile; do
    for s in chaos congestion; do
        run "$s-$preset" --topology "$preset" "$dir/$s.ppm"
    done
done
for seed in 3 5; do
    run "crash_heal-seed$seed" --seed "$seed" --faults "$dir/crash_heal.fault" "$dir/chaos.ppm"
    run "crash_heal-seed$seed-fat-tree" --seed "$seed" --topology fat-tree \
        --faults "$dir/crash_heal.fault" "$dir/chaos.ppm"
done
