#!/bin/sh
# Source lint: repository-wide invariants that the compiler cannot check.
# Run from anywhere; exits non-zero with one line per violation.
#
#   1. Entropy discipline — all seeding goes through Ac_runtime.Entropy:
#      no Random.self_init or Random.State.make_self_init anywhere (a
#      self-initialised state hides its seed; estimators take an explicit
#      stream or engine), no bare Random.<fn> (anything but Random.State)
#      in lib/ outside lib/runtime/entropy.ml. A stray global-RNG call
#      would silently break replayability.
#   2. Library purity — lib/ never writes to stdout (Printf.printf,
#      print_endline, print_string) and never calls exit: rendering and
#      process control belong to bin/.
#   3. Interface discipline — every lib/**/*.ml has a matching .mli.
#   4. Budget discipline — hot-loop files (lib/core, lib/dlm,
#      lib/automata, lib/join, lib/hom) that contain a while loop must
#      reference Budget.tick/Budget.check, or a runaway loop would be
#      invisible to the cooperative-cancellation governor.
#   5. Batch discipline — the vectorized join path must stay vectorized:
#      no tuple-at-a-time Relation.iter/fold/to_list in the hot-loop
#      modules (lib/join/*, lib/kernels/*). Indexes are built from
#      sealed columns via Relation.projection.
#   6. Domain safety — shared-memory primitives (Atomic, Mutex, Domain,
#      Condition) appear only in the allowlisted modules that were
#      designed (and reviewed) for multi-domain use. A Mutex creeping
#      into, say, the planner would mean planner state escaped into
#      shared memory — pure layers must stay pure so the engine's
#      determinism argument (per-trial streams, index-order reduce)
#      keeps holding. The analysis layer's one shared structure is
#      Report's memo of the query-only analysis: its values are pure
#      functions of the query key, so a hit equals a recomputation.
#   7. One count path — a COUNT reaches the estimators only through
#      Planner.run_rung: Fpras.approx_count, Fptras.approx_count
#      and Exact.by_join_projection never appear in lib/core/api.ml,
#      lib/server/ or bin/.
#   8. Kernel access — the join kernels (lib/kernels/*.ml,
#      lib/join/*.ml) read column elements through the Bigarray
#      primitive, never through Column.get/unsafe_get. dune's dev profile
#      compiles every library -opaque, so a call into Column is never
#      inlined across the library boundary: each element read in an inner
#      loop would be an out-of-line call, while Bigarray.Array1.unsafe_get
#      on the known element kind compiles to a load in every profile.
#      Column.lower_bound/upper_bound stay allowed: each search is one
#      call, and its loop reads through the primitive inside Column.
set -u

cd "$(dirname "$0")/.."

fail=0
complain() {
  echo "lint: $1" >&2
  fail=1
}

# --- 1. entropy discipline -------------------------------------------------
if grep -rn "Random\.\(State\.make_\)\?self_init" --include="*.ml" lib bin test examples bench 2>/dev/null; then
  complain "Random.self_init and Random.State.make_self_init are forbidden: draw seeds from Ac_runtime.Entropy"
fi
bare_random=$(grep -rn "Random\." --include="*.ml" lib 2>/dev/null \
  | grep -v "Random\.State" \
  | grep -v "^lib/runtime/entropy\.ml:" || true)
if [ -n "$bare_random" ]; then
  echo "$bare_random" >&2
  complain "bare Random.* in lib/ (only Random.State and lib/runtime/entropy.ml may touch the global RNG)"
fi

# --- 2. library purity -----------------------------------------------------
stdout_writes=$(grep -rnw "Printf\.printf\|print_endline\|print_string\|print_newline" \
  --include="*.ml" lib 2>/dev/null || true)
if [ -n "$stdout_writes" ]; then
  echo "$stdout_writes" >&2
  complain "stdout writes in lib/ (render through Format/fmt; printing belongs to bin/)"
fi
exits=$(grep -rn "[^_a-zA-Z.]exit [0-9(]" --include="*.ml" lib 2>/dev/null || true)
if [ -n "$exits" ]; then
  echo "$exits" >&2
  complain "exit in lib/ (raise a typed Ac_runtime.Error instead; exiting belongs to bin/)"
fi

# --- 3. interface discipline -----------------------------------------------
for f in $(find lib -name "*.ml" | sort); do
  if [ ! -f "${f%.ml}.mli" ]; then
    complain "$f has no interface: add ${f%.ml}.mli"
  fi
done

# --- 4. budget discipline --------------------------------------------------
for f in $(grep -rl "while " --include="*.ml" \
    lib/core lib/dlm lib/automata lib/join lib/hom 2>/dev/null | sort); do
  if ! grep -q "Budget\.tick\|Budget\.check" "$f"; then
    complain "$f has a while loop but never polls Budget.tick/Budget.check"
  fi
done

# --- 5. batch discipline ---------------------------------------------------
tuple_at_a_time=$(grep -rn "Relation\.iter\|Relation\.fold\|Relation\.to_list" \
  lib/join lib/kernels 2>/dev/null || true)
if [ -n "$tuple_at_a_time" ]; then
  echo "$tuple_at_a_time" >&2
  complain "tuple-at-a-time Relation.iter/fold/to_list in a vectorized hot-loop module (read sealed columns via Relation.projection / Ac_kernels instead)"
fi

# --- 6. domain safety --------------------------------------------------------
# Allowlist of lib/ modules that may touch shared-memory primitives.
# Extending it is a review decision: add the file here in the same PR
# that introduces the primitive, with the reasoning in the commit.
domain_allowlist="
lib/analysis/report.ml
lib/automata/ltree.ml
lib/core/colour_oracle.ml
lib/exec/engine.ml
lib/exec/pool.ml
lib/hom/hom.ml
lib/join/generic_join.ml
lib/live/live.ml
lib/obs/metrics.ml
lib/obs/trace.ml
lib/relational/relation.ml
lib/runtime/chaos.ml
lib/server/cache.ml
lib/server/catalog.ml
lib/server/inflight.ml
lib/server/router.ml
lib/server/scheduler.ml
lib/server/server.ml
"
domain_users=$(grep -rlE '\b(Atomic\.|Mutex\.|Domain\.|Condition\.)' \
  --include="*.ml" lib 2>/dev/null | sort || true)
for f in $domain_users; do
  if ! echo "$domain_allowlist" | grep -qx "$f"; then
    complain "$f uses Atomic/Mutex/Domain/Condition but is not on the domain-safety allowlist (scripts/lint.sh)"
  fi
done

# --- 7. one count path --------------------------------------------------------
direct_estimators=$(grep -rn \
  "Fpras\.approx_count\|Fptras\.approx_count\|Exact\.by_join_projection" \
  --include="*.ml" lib/core/api.ml lib/server bin 2>/dev/null || true)
if [ -n "$direct_estimators" ]; then
  echo "$direct_estimators" >&2
  complain "estimator called outside Planner.run_rung on the request path (dispatch through the planner)"
fi

# --- 8. kernel access ---------------------------------------------------------
column_calls=$(grep -nE \
  "Column\.(get|unsafe_get)\b" \
  lib/kernels/*.ml lib/join/*.ml 2>/dev/null || true)
if [ -n "$column_calls" ]; then
  echo "$column_calls" >&2
  complain "Column element read in a join kernel (read through Bigarray.Array1.unsafe_get: Column's accessors are opaque calls in the dev profile)"
fi

if [ "$fail" -ne 0 ]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: clean"
