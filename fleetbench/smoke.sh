#!/usr/bin/env bash
# Short end-to-end check of every workload: 2 s each, untraced, with the
# p99 sample-size rule relaxed.  Runs the command BENCHMARK.json records.
set -euo pipefail
cd "$(dirname "$0")/.."
mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
for w in hot_cached cold_mixed split_large; do
  "${cmd[@]}" --workload "$w" --seed 1 --seconds 2 --trace 0 --smoke | tail -n 1
done
