#!/usr/bin/env bash
# Round 2: SMT experiments with scaled epochs (the round-1 SMT runs used
# unscaled step-RR and are superseded), plus larger prefetch runs.
#
# Usage: run_round2.sh [--jobs N] [--trace-dir DIR] [--ledger DIR] [--monitor ADDR]
#
# --monitor ADDR (or MONITOR=ADDR) serves live /metrics, /status and
# /events from each experiment — see run_all_experiments.sh.
#
# --jobs N (or JOBS=N) fans each sweep out over N worker threads; reports
# are bit-identical at any worker count (see mab-runner).
#
# --trace-dir DIR (or TRACE_DIR=DIR) records/replays workload streams in a
# shared cache; point it at the same directory as round 1 to reuse the
# traces already recorded there. Replay is byte-identical to generation.
#
# Outputs land in results/round2/ so they never clobber the round-1 files:
# each round's artifacts are addressed by directory, not by which script
# happened to run last. Ledger records go to the shared results/ledger by
# default (LEDGER=DIR overrides, LEDGER= disables): rounds are
# distinguished by config digest, so one history spans both.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-}"
TRACE_DIR="${TRACE_DIR:-}"
LEDGER="${LEDGER-results/ledger}"
MONITOR="${MONITOR:-}"
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs|-j)
      JOBS="$2"; shift 2 ;;
    --trace-dir)
      TRACE_DIR="$2"; shift 2 ;;
    --ledger)
      LEDGER="$2"; shift 2 ;;
    --monitor)
      MONITOR="$2"; shift 2 ;;
    *)
      echo "usage: $0 [--jobs N] [--trace-dir DIR] [--ledger DIR] [--monitor ADDR]" >&2; exit 2 ;;
  esac
done

OUT=results/round2
mkdir -p "$OUT"

run() {
  local name="$1"; shift
  echo "=== running $name $* ==="
  cargo run --release -q -p mab-experiments --features telemetry --bin "$name" -- "$@" \
    ${JOBS:+--jobs "$JOBS"} \
    ${TRACE_DIR:+--trace-dir "$TRACE_DIR"} \
    ${LEDGER:+--ledger "$LEDGER"} \
    ${MONITOR:+--monitor "$MONITOR"} \
    --telemetry "$OUT/$name.jsonl" --trace "$OUT/$name.trace.json" \
    >"$OUT/$name.txt" 2>"$OUT/$name.log"
  echo "--- wrote $OUT/$name.txt"
}

run tab09_tuneset_smt --instructions 100000 --mixes 30
run fig15_rename      --instructions 80000 --mixes 40
run fig05_pg_space    --instructions 80000 --mixes 8
run fig13_smt_scurve  --instructions 80000 --mixes 150
run fig07_exploration --instructions 2500000
run fig14_fourcore    --instructions 300000
run fig12_multilevel  --instructions 1000000
run fig08_singlecore  --instructions 1500000
echo "round 2 done"
