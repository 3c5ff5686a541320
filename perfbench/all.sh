#!/usr/bin/env bash
# Runs every workload once, untraced, and prints every end-to-end metric
# by name with its unit (the report lines of each run). Run from the
# repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
#
# Exits non-zero if any run's answer check fails.
set -u
seed="${1:-1}"
seconds="${2:-30}"
status=0
for workload in plan_mixed flow_congested serve_mixed; do
    report="$(bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)" ||
        status=1
    printf '%s\n' "$report" | grep '^#'
done
exit "$status"
