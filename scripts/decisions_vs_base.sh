#!/usr/bin/env bash
# Decision identity against a base checkout. Builds vbserve from the base
# and from this checkout, records a 10-day request log per policy with the
# base binary, replays it on both binaries and compares the decision logs
# byte for byte. Then, in both directions, one binary replays 17 steps and
# snapshots, the other restores the snapshot and finishes the log, and the
# concatenated decision log must equal the base's uninterrupted one.
#
# Prints one line per check and exits 1 if any check differs or fails to
# run. A change that alters decisions on purpose differs everywhere, so CI
# runs this as a report, not a gate.
#
# Usage: bash scripts/decisions_vs_base.sh <base checkout>
set -euo pipefail
if [ $# -ne 1 ] || [ ! -d "$1/cmd/vbserve" ]; then
  echo "usage: $0 <base checkout>" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
(cd "$base" && go build -o "$dir/vbserve.base" ./cmd/vbserve)
go build -o "$dir/vbserve.head" ./cmd/vbserve

status=0
# report <check> <file> <want>: one line saying whether file equals want.
report() {
  if cmp -s "$2" "$3"; then
    echo "identical: $1"
  else
    echo "DIFFERENT: $1"
    status=1
  fi
}

for policy in Greedy MIP MIP-24h MIP-peak; do
  args=(-seed 42 -days 10 -policy "$policy")
  d="$dir/$policy"
  mkdir -p "$d"
  "$dir/vbserve.base" "${args[@]}" -genlog -out "$d/requests.jsonl"
  for side in base head; do
    "$dir/vbserve.$side" "${args[@]}" -replay "$d/requests.jsonl" -decisions "$d/$side.jsonl"
  done
  report "$policy 10-day decision log, base vs head" "$d/head.jsonl" "$d/base.jsonl"

  for from in base head; do
    to=head
    [ "$from" = head ] && to=base
    check="$policy 17-step snapshot from $from restored into $to"
    rm -f "$d/snap.bin" "$d/part1.jsonl" "$d/part2.jsonl"
    if "$dir/vbserve.$from" "${args[@]}" -replay "$d/requests.jsonl" -decisions "$d/part1.jsonl" \
        -snapshot "$d/snap.bin" -snapshot-after 17 &&
      "$dir/vbserve.$to" "${args[@]}" -replay "$d/requests.jsonl" -decisions "$d/part2.jsonl" \
        -restore "$d/snap.bin"; then
      cat "$d/part1.jsonl" "$d/part2.jsonl" >"$d/resumed.jsonl"
      report "$check" "$d/resumed.jsonl" "$d/base.jsonl"
    else
      echo "FAILED: $check"
      status=1
    fi
  done
done
exit "$status"
