#!/usr/bin/env bash
# Daemon crash-recovery smoke at the binary level: record the synthetic
# workload as a request log, replay it uninterrupted, replay it again with
# a mid-stream snapshot, restore the snapshot into a fresh process, and
# require the concatenated decision logs to be byte-identical to the
# uninterrupted run's. The cycle runs under MIP and under MIP-24h, whose
# daily replans keep the model's shape from one replan to the next.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/vbserve" ./cmd/vbserve

for policy in MIP MIP-24h; do
  args=(-seed 42 -days 3 -policy "$policy")
  "$dir/vbserve" "${args[@]}" -genlog -out "$dir/requests.jsonl"
  "$dir/vbserve" "${args[@]}" -replay "$dir/requests.jsonl" -decisions "$dir/full.jsonl"
  "$dir/vbserve" "${args[@]}" -replay "$dir/requests.jsonl" -decisions "$dir/part1.jsonl" \
    -snapshot "$dir/snap.bin" -snapshot-after 6
  "$dir/vbserve" "${args[@]}" -replay "$dir/requests.jsonl" -decisions "$dir/part2.jsonl" \
    -restore "$dir/snap.bin"

  cat "$dir/part1.jsonl" "$dir/part2.jsonl" | cmp - "$dir/full.jsonl"
  rm -f "$dir"/*.jsonl "$dir/snap.bin"
  echo "vbserve smoke OK ($policy): decision logs byte-identical across snapshot/restore"
done
