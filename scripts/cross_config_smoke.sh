#!/usr/bin/env bash
# Cross-configuration determinism smoke.
#
# Runs one fixed-seed uniform + DEM catalog under the scalar and AVX2
# kernels (sweep relax and the score-and-pack epilogue), with one worker and
# with --jobs 2 --workers 4. Only the fields naming the configuration
# (workers, job_concurrency, workers_per_job) may differ; every other byte
# of the JSONL and the summary must match. Exits nonzero on any difference.
#
# Usage: scripts/cross_config_smoke.sh [path/to/essns_cli]
#        (default: build/examples/essns_cli)
set -euo pipefail

cli=$(realpath "${1:-build/examples/essns_cli}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

run() {
  tag=$1
  shift
  "$cli" campaign terrains=plains,hills sizes=24 steps=3 \
    generations=3 population=8 offspring=8 timings=zero \
    jsonl=cfg.jsonl summary=cfg_summary.json "$@" > /dev/null
  sed -E 's/"(workers|job_concurrency|workers_per_job)":[0-9]+//g' \
    cfg.jsonl > "$tag.jsonl.canon"
  sed -E 's/"(workers|job_concurrency|workers_per_job)":[0-9]+//g' \
    cfg_summary.json > "$tag.summary.canon"
}

run ref --simd scalar --workers 1
run a --simd avx2 --workers 1
run b --simd scalar --jobs 2 --workers 4
run c --simd avx2 --jobs 2 --workers 4
for cfg in a b c; do
  cmp ref.jsonl.canon "$cfg.jsonl.canon"
  cmp ref.summary.canon "$cfg.summary.canon"
done
echo "reports identical across --simd scalar/avx2 x workers 1/4"
