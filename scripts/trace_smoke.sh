#!/usr/bin/env bash
# Trace v2 smoke at the binary level: generate a cohort application trace
# from the bundled bursty spec, record it through both CLIs, replay it, and
# require (a) the two recordings to be byte-identical, (b) the replayed
# per-SLO-class table to be byte-identical to the generated run's, and
# (c) the replay to be invariant under -parallel, the generation worker
# count.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/vbsim" ./cmd/vbsim
go build -o "$dir/vbtrace" ./cmd/vbtrace

spec=examples/cohorts/bursty.json

# The spec alone determines the trace: vbtrace's emitter and vbsim's
# -record path must produce byte-identical v2 JSONL.
"$dir/vbtrace" -workload "$spec" > "$dir/trace_a.jsonl"
"$dir/vbsim" -days 3 -workload "$spec" -record "$dir/trace_b.jsonl" > "$dir/live.out"
cmp "$dir/trace_a.jsonl" "$dir/trace_b.jsonl"

# Replaying the recording reproduces the generated run's table bit for bit
# (the replay prints one extra header line naming the trace).
"$dir/vbsim" -days 3 -replay "$dir/trace_a.jsonl" > "$dir/replay.out"
tail -n +2 "$dir/replay.out" | cmp - "$dir/live.out"

# ...at any parallelism: worker count must not leak into the results.
"$dir/vbsim" -days 3 -parallel 1 -replay "$dir/trace_a.jsonl" > "$dir/replay_p1.out"
"$dir/vbsim" -days 3 -parallel 4 -replay "$dir/trace_a.jsonl" > "$dir/replay_p4.out"
cmp "$dir/replay_p1.out" "$dir/replay.out"
cmp "$dir/replay_p4.out" "$dir/replay.out"

echo "trace smoke OK: record/replay tables byte-identical across worker counts"
