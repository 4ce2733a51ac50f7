#!/usr/bin/env bash
# docs-smoke.sh — prove the documentation by executing it.
#
# CI's docs job runs this script from the repository root. It executes
# every example program and every command the README and docs/ present
# as copy-pasteable, then checks that no relative link in the
# documentation is broken. A doc change that documents a command this
# script does not run should add it here.
set -euo pipefail

run() {
  echo "+ $*" >&2
  "$@" > /dev/null
}

# --- every examples/* main is runnable -------------------------------
for d in examples/*/; do
  run go run "./${d%/}"
done

# --- README quickstart -----------------------------------------------
run go run ./cmd/cqla table4
run go run ./cmd/cqla floorplan
run go run ./cmd/cqla fig2
run go run ./cmd/qcirc gen -kind adder -n 8
go run ./cmd/qcirc gen -kind qft -n 8 | run go run ./cmd/qcirc sched -blocks 4

# --- README workloads section + docs/workload-format.md --------------
# gen | fmt is the identity on canonical text, and parse accepts it.
gen=$(go run ./cmd/qcirc gen -kind qft -n 8)
fmted=$(echo "$gen" | go run ./cmd/qcirc fmt)
if [ "$gen" != "$fmted" ]; then
  echo "qcirc gen | qcirc fmt is not the identity" >&2
  exit 1
fi
echo "$fmted" | run go run ./cmd/qcirc parse
run go run ./cmd/qcirc parse < internal/circuit/testdata/bell.qc
run go run ./cmd/cqla sweep -circuit internal/circuit/testdata/bell.qc
run go run ./cmd/cqla sweep workloads -format json -seed 1

# --- README sweeps section: the montecarlo estimator axis ------------
run go run ./cmd/cqla sweep montecarlo -estimator bitsliced -seed 7
run go run ./cmd/cqla sweep montecarlo -estimator rare -format json -seed 7

# --- README performance section: cqla bench and its gate -------------
# A small budget keeps this fast; the gate run exercises the same
# -baseline/-gate path as the CI bench job.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
run go run ./cmd/cqla bench -list
run go run ./cmd/cqla bench -filter 'MonteCarlo(XSeededSerial|BitSliced)' -benchtime 10ms -out /dev/null
run go run ./cmd/cqla bench -filter '^(PublicDecode|SyndromeDecodeSteane)$' -benchtime 10ms -out /dev/null
run go run ./cmd/cqla bench -filter 'MonteCarlo|BuildDAG' -benchtime 10ms -out "$tmp/a.json"
run go run ./cmd/cqla bench -filter 'MonteCarlo|BuildDAG' -benchtime 10ms -baseline "$tmp/a.json" -gate 1000 -out /dev/null

# --- no broken relative links in the docs ----------------------------
go run ./scripts/linkcheck README.md docs

echo "docs smoke: OK" >&2
