#!/usr/bin/env bash
# Stability check: runs one workload twice on the same seed and asserts
# that the values which are a pure function of the seed — search and
# flow effort counters re-recorded on a fixed scenario set, and the
# quality metrics — repeat exactly. Run from the repository root:
#
#   bash perfbench/stability.sh plan_mixed 7 [seconds]
#
# Exit 0 when both runs print the same `# deterministic` line.
set -euo pipefail
workload="${1:?usage: stability.sh <workload> <seed> [seconds]}"
seed="${2:?usage: stability.sh <workload> <seed> [seconds]}"
seconds="${3:-5}"
run() {
    bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        grep '^# deterministic ' || true
}
first="$(run)"
second="$(run)"
if [[ -z "$first" ]]; then
    echo "stability: no deterministic line from $workload" >&2
    exit 1
fi
if [[ "$first" != "$second" ]]; then
    echo "stability: $workload seed $seed differs between runs" >&2
    echo "  first:  $first" >&2
    echo "  second: $second" >&2
    exit 1
fi
echo "stability: $workload seed $seed repeats exactly: ${first#\# deterministic }"
