#!/usr/bin/env bash
# Observability smoke at the binary level: every command run that offers
# -trace, -metrics or -listen must write the manifest it was asked for,
# naming its seed, and a trace that vbobs reads with exit 0. The modes
# that are not observed (vbsim -all, -workload and -replay, vbtrace
# -workload) must refuse those flags with a nonzero exit and leave no file.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

for cmd in vbsim vbsched vbplan vbtrace vbfleet vbobs; do
  go build -o "$dir/bin/$cmd" "./cmd/$cmd"
done
bin=$dir/bin
spec=$PWD/examples/cohorts/bursty.json
seed=7

# observed NAME CMD ARGS...: runs the command with -metrics NAME.json (and
# -trace NAME.jsonl when the command offers it, which TRACE=1 says), then
# checks both outputs.
observed() {
  local name=$1
  shift
  local args=(-seed "$seed" -metrics "$dir/$name.json")
  if [[ ${TRACE:-0} == 1 ]]; then
    args+=(-trace "$dir/$name.jsonl")
  fi
  "$@" "${args[@]}" > "$dir/$name.out"
  grep -q "\"seed\": $seed," "$dir/$name.json" || {
    echo "$name: manifest does not name seed $seed" >&2
    exit 1
  }
  if [[ ${TRACE:-0} == 1 ]]; then
    "$bin/vbobs" "$dir/$name.jsonl" > /dev/null
  fi
  echo "observed: $name"
}

TRACE=1 observed fig4 "$bin/vbsim" -days 2
TRACE=1 observed faults "$bin/vbsim" -days 1 -faults 'blackout:1@0-2'
TRACE=1 observed sched "$bin/vbsched" -days 2 -policy MIP
"$bin/vbtrace" -days 7 -step 6h > "$dir/power.csv"
cat > "$dir/apps.csv" <<'EOF'
id,arrival,cores,stable_cores,mem_gb_per_core
1,2020-01-01T03:00:00Z,4000,2800,4
2,2020-01-02T00:00:00Z,6000,4200,4
EOF
TRACE=1 observed plan "$bin/vbplan" -power "$dir/power.csv" -apps "$dir/apps.csv"
observed trace "$bin/vbtrace" -days 2
observed fleet "$bin/vbfleet" -days 2 -k 3

"$bin/vbsim" -days 1 -listen 127.0.0.1:0 > /dev/null
echo "observed: vbsim -listen"

# refused ARGS...: the command must exit nonzero and leave no file behind.
"$bin/vbtrace" -workload "$spec" > "$dir/recorded.jsonl"
refused() {
  local run
  run=$(mktemp -d "$dir/run.XXXXXX")
  if (cd "$run" && "$@" > /dev/null 2>&1); then
    echo "not refused: $*" >&2
    exit 1
  fi
  if [[ -n $(ls -A "$run") ]]; then
    echo "refused run left files: $*: $(ls -A "$run")" >&2
    exit 1
  fi
  echo "refused: $*"
}
for mode in -all "-workload=$spec" "-replay=$dir/recorded.jsonl"; do
  for flag in -trace=t.jsonl -metrics=m.json -listen=127.0.0.1:0; do
    refused "$bin/vbsim" "$mode" "$flag"
  done
done
refused "$bin/vbsim" -workload "$spec" -record r.jsonl -trace t.jsonl
refused "$bin/vbtrace" -workload "$spec" -metrics m.json

echo "cli smoke OK: observed runs write their manifests and traces; unobserved modes refuse the flags"
