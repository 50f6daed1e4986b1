#!/usr/bin/env bash
# Sharded campaign determinism smoke.
#
# Runs one fixed-seed catalog in-process through a single shard worker
# (--shards 1) and fanned out over two worker processes (--shards 2), with
# timings rendered as zero (the canonical form). The merged JSONL, summary
# and CSV must be byte-identical — cmp, not diff, so any divergence in the
# worker-config and job-record frames, the round-robin partition or the
# merge order fails. Exits nonzero on any difference.
#
# Usage: scripts/shard_smoke.sh [path/to/essns_cli]
#        (default: build/examples/essns_cli)
set -euo pipefail

cli=$(realpath "${1:-build/examples/essns_cli}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

for shards in 1 2; do
  "$cli" campaign sizes=16 steps=3 generations=3 population=8 offspring=8 \
    --jobs 2 --workers 2 --shards "$shards" timings=zero \
    jsonl="shard$shards.jsonl" summary="shard$shards.json" \
    csv="shard$shards.csv" > /dev/null
done
cmp shard1.jsonl shard2.jsonl
cmp shard1.json shard2.json
cmp shard1.csv shard2.csv
echo "merged reports byte-identical across --shards 1/2"
