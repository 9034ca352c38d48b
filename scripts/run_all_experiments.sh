#!/usr/bin/env bash
# Regenerates every table and figure, teeing outputs into results/.
# Runs each of the 16 experiment binaries once, at the size its heading in
# EXPERIMENTS.md names: the recorded runs behind that file's numbers
# (scaled down from the paper's 1B-instruction traces to laptop scale;
# pass larger --instructions for higher fidelity).
#
# Usage: run_all_experiments.sh [--jobs N] [--trace-dir DIR] [--ledger DIR]
#                               [--monitor ADDR]
#
# --jobs N (or JOBS=N in the environment) fans each sweep out over N worker
# threads via mab-runner. Reports are bit-identical at any worker count, so
# pick whatever the machine has; the default lets each binary use all cores.
#
# --trace-dir DIR (or TRACE_DIR=DIR in the environment) records every
# workload stream to DIR on first use and replays it afterwards — across
# experiments and across reruns of this script. Replay is byte-identical to
# generator mode (see tests/replay.rs), so results are unchanged; reruns
# just skip regenerating the inputs.
#
# Every run is built with --features telemetry and writes, alongside the
# table in results/$name.txt:
#   results/$name.jsonl       telemetry export (counters, histograms, events)
#   results/$name.trace.json  Perfetto decision timeline (ui.perfetto.dev)
# Analyse them with `cargo run -p mab-inspect -- report results/$name.jsonl`.
#
# Each run also appends one record (config digest, wall time, key stats,
# artifact pointers) to the run ledger — LEDGER=DIR overrides the default
# results/ledger, LEDGER= (empty) disables recording. Query it with
# `cargo run -p mab-inspect -- history | trend | regress`.
#
# --monitor ADDR (or MONITOR=ADDR in the environment) serves live /metrics,
# /status and /events from each experiment while it runs — follow the batch
# with `cargo run -p mab-inspect -- watch ADDR`. Experiments run one at a
# time, so a single fixed port carries the whole script.
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

mkdir -p results

run() {
  local name="$1"; shift
  echo "=== running $name $* ==="
  cargo run --release -q -p mab-experiments --features telemetry --bin "$name" -- "$@" \
    ${JOBS:+--jobs "$JOBS"} \
    ${TRACE_DIR:+--trace-dir "$TRACE_DIR"} \
    ${LEDGER:+--ledger "$LEDGER"} \
    ${MONITOR:+--monitor "$MONITOR"} \
    --telemetry "results/$name.jsonl" --trace "results/$name.trace.json" \
    >"results/$name.txt" 2>"results/$name.log"
  echo "--- wrote results/$name.txt"
}

run tab_storage
run fig02_homogeneity --instructions 1500000
run fig07_exploration --instructions 2500000
run fig08_singlecore  --instructions 1500000
run fig09_accuracy    --instructions 600000
run fig10_bandwidth   --instructions 500000
run fig11_altcache    --instructions 700000
run fig12_multilevel  --instructions 1000000
run fig14_fourcore    --instructions 300000
run tab08_tuneset_prefetch --instructions 500000
run fig05_pg_space    --instructions 80000 --mixes 8
run tab09_tuneset_smt --instructions 100000 --mixes 30
run fig13_smt_scurve  --instructions 80000 --mixes 150
run fig15_rename      --instructions 80000 --mixes 40
run smt_fairness      --instructions 80000 --mixes 6
run ablations         --instructions 600000
echo "all experiments done"
