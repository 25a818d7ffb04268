#!/usr/bin/env bash
# Bench regression gate.
#
# Compares the current `results/BENCH_*.json` suites against the
# checked-in baselines in `scripts/bench_baselines/` and fails when any
# metric's median regresses beyond the tolerance. The benches measure
# real (host) time, so the tolerance is deliberately loose — it exists
# to catch order-of-magnitude algorithmic regressions (a COW fault that
# went O(n), a clone path that lost its batching), not scheduler noise.
#
#   usage: scripts/bench_gate.sh [results-dir]
#
#   NEPHELE_BENCH_TOL   regression tolerance as a ratio of the baseline
#                       median (default 8.0). A metric fails the gate
#                       when current_median > TOL * baseline_median.
#   NEPHELE_BENCH_SINCE path of a marker file; when set, every gated
#                       suite result must be newer than it (scripts/verify.sh
#                       touches one at start, so a suite it did not re-run
#                       fails instead of passing on stale committed JSON).
#
# Exit status: 0 when every metric is within tolerance, 1 on any
# regression, on a suite or metric present in the baselines but missing
# from the results, on a suite older than NEPHELE_BENCH_SINCE, or on a
# malformed suite file.
set -euo pipefail
cd "$(dirname "$0")/.."

TOL="${NEPHELE_BENCH_TOL:-8.0}"
RESULTS_DIR="${1:-results}"
BASELINE_DIR="scripts/bench_baselines"
SINCE="${NEPHELE_BENCH_SINCE:-}"
if [[ -n "$SINCE" && ! -f "$SINCE" ]]; then
  echo "bench_gate: NEPHELE_BENCH_SINCE marker $SINCE does not exist"
  exit 1
fi

# Emits "group/name median_ns" per record. The suite files put one
# record per line exactly so that this kind of tooling never needs a
# JSON parser (see testkit's bench export).
extract() {
  sed -n 's/.*"group": "\([^"]*\)", "name": "\([^"]*\)".*"median_ns": \([0-9.eE+-]*\),.*/\1\/\2 \3/p' "$1"
}

status=0
for base in "$BASELINE_DIR"/BENCH_*.json; do
  suite="$(basename "$base")"
  cur="$RESULTS_DIR/$suite"
  if [[ ! -f "$cur" ]]; then
    echo "bench_gate: $suite: MISSING from $RESULTS_DIR (baseline exists)"
    status=1
    continue
  fi
  if [[ -n "$SINCE" && ! "$cur" -nt "$SINCE" ]]; then
    echo "bench_gate: $suite: STALE: $cur predates this run (re-run its bench)"
    status=1
    continue
  fi
  if ! report=$(awk -v tol="$TOL" -v suite="$suite" '
    NR == FNR { b[$1] = $2; next }
    {
      if (!($1 in b)) {
        printf "bench_gate: %s: NEW       %-40s median %s ns (no baseline; re-seed scripts/bench_baselines)\n", suite, $1, $2
        next
      }
      ratio = $2 / b[$1]
      if (ratio > tol) {
        printf "bench_gate: %s: REGRESSED %-40s %.3f -> %.3f ns (%.1fx > %.1fx tolerance)\n", suite, $1, b[$1], $2, ratio, tol
        bad = 1
      } else {
        printf "bench_gate: %s: ok        %-40s %.3f -> %.3f ns (%.2fx)\n", suite, $1, b[$1], $2, ratio
      }
      delete b[$1]
    }
    END {
      n = 0
      for (k in b) {
        printf "bench_gate: %s: MISSING   %-40s dropped from current results\n", suite, k
        bad = 1
      }
      exit bad
    }' <(extract "$base") <(extract "$cur")); then
    status=1
  fi
  echo "$report"
  if [[ -z "$(extract "$cur")" ]]; then
    echo "bench_gate: $suite: no parseable records in $cur"
    status=1
  fi
done

if [[ "$status" -ne 0 ]]; then
  echo "bench_gate: FAILED (tolerance ${TOL}x; override with NEPHELE_BENCH_TOL)"
else
  echo "bench_gate: all metrics within ${TOL}x of baseline"
fi
exit "$status"
