#!/usr/bin/env bash
# Run every workload once and print its metrics.
#   bash perfbench/run_all.sh [seed] [seconds] [trace]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in dev-wide share-numeric share-closed jump-probes; do
  python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
    --seconds "${2:-10}" --trace "${3:-0}"
done
