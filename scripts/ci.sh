#!/bin/sh
# CI entry point: build everything, run the full test suite, then the
# parallel determinism sweep (jobs 1/2/4 must agree bit-for-bit).
#
# Usage: scripts/ci.sh [--with-bench]
#   --with-bench  also run the gated bench modes (parallel, obs, chaos,
#                 cost, conformance), leaving their BENCH_<mode>.json files in
#                 the repository root (slow: several minutes).
set -eu

cd "$(dirname "$0")/.."

echo "== source lint"
scripts/lint.sh

echo "== line counts (.ml + .mli)"
for d in lib bin bench; do
  echo "$d $(find "$d" \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l)"
done

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== query-analysis goldens"
scripts/lint_queries.sh

echo "== daemon smoke (acqd boot, cache hit, graceful SIGTERM)"
scripts/smoke_server.sh

echo "== chaos soak (wire faults, kill -9 recovery, deadline shed)"
scripts/smoke_server.sh --chaos

echo "== live mutation smoke (insert/delete, exactly-once, journal recovery)"
scripts/smoke_server.sh --live

echo "== fleet smoke (2 workers + router, worker loss degrades, restart heals)"
scripts/smoke_server.sh --fleet

echo "== perfbench smoke (each workload for 1 s: exits 0, answers correct, none failed)"
for w in estimate_cold serve_hot live_rw fleet_scatter; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 \
    > _build/perfbench_smoke.out
  tail -n 1 _build/perfbench_smoke.out | python3 -c '
import json, sys
r = json.load(sys.stdin)
if r["correct"] is not True or r["failed"] > 0:
    sys.exit("perfbench %s: correct %s, %d failed" % (sys.argv[1], r["correct"], r["failed"]))
print("perfbench %s: correct, %d operations" % (sys.argv[1], r["attempted"]))
' "$w"
done

if [ "${1:-}" = "--with-bench" ]; then
  # each mode writes BENCH_<mode>.json and exits 1 if one of its gates fails
  for mode in parallel obs chaos cost conformance; do
    echo "== bench --$mode (BENCH_$mode.json)"
    dune exec bench/main.exe -- --$mode
  done
fi

echo "== CI green"
