(* Social-network analytics with extended conjunctive queries.

   A random friendship network (the workload motivating the paper's
   equation (1)) is queried with a CQ, a DCQ and an ECQ:

   - popular(x)      = ∃y z.  F(x,y) ∧ F(x,z) ∧ y ≠ z     (≥ 2 friends)
   - triad-open(x,y) = ∃z.    F(x,z) ∧ F(z,y) ∧ ¬F(x,y) ∧ x ≠ y
                       ("friend of a friend but not a friend")
   - reach3(x, y)    = ∃a b.  F(x,a) ∧ F(a,b) ∧ F(b,y)     (3-step reach)

   Each is counted exactly and with the Theorem 5 FPTRAS, and the answer
   sets are sampled with the §6 JVV sampler.

   Run with: dune exec examples/social_network.exe *)

module Ecq = Ac_query.Ecq
module Dbgen = Ac_workload.Dbgen

let run_query ?engine exec name q db =
  let exact = Approxcount.Exact.by_join_projection q db in
  let t0 = Unix.gettimeofday () in
  let r = Approxcount.Fptras.approx_count ?engine ~exec ~eps:0.25 ~delta:0.1 q db in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "%-12s exact=%6d  fptras=%8.1f  (%s, %d oracle / %d hom calls, %.2fs)@."
    name exact r.Approxcount.Fptras.estimate
    (if r.exact then "exact path" else Printf.sprintf "level %d" r.level)
    r.oracle_calls r.hom_calls dt

let () =
  let rng = Random.State.make [| 2026 |] in
  let n = 150 in
  let db = Dbgen.friends_database ~rng ~n ~avg_degree:6.0 in
  Format.printf "social network: %d people, %d friendship facts@." n
    (Ac_relational.Relation.cardinality (Ac_relational.Structure.relation db "F"));

  let popular = Ecq.parse "ans(x) :- F(x, y), F(x, z), y != z" in
  let triad =
    Ecq.parse "ans(x, y) :- F(x, z), F(z, y), !F(x, y), x != y"
  in
  let reach3 = Ecq.parse "ans(x, y) :- F(x, a), F(a, b), F(b, y)" in

  let exec = Ac_exec.Engine.sequential ~seed:2026 in
  run_query exec "popular" popular db;
  run_query exec "triad-open" triad db;
  (* reach3 is a pure CQ: use the generic-join engine (Theorem 13's),
     which is much faster per oracle call on long joins *)
  run_query ~engine:Approxcount.Colour_oracle.Generic exec "reach3" reach3 db;

  (* §6: sample a few answers of the triad query approximately uniformly *)
  Format.printf "@.sampled open triads:@.";
  for _ = 1 to 5 do
    match Approxcount.Sampling.sample ~rng ~eps:0.4 ~delta:0.2 triad db with
    | Some [| x; y |] -> Format.printf "  %d -?- %d (friend of a friend)@." x y
    | _ -> Format.printf "  (no sample)@."
  done;

  (* §6: union of queries — people who are popular OR lonely-adjacent *)
  let q1 = Ecq.parse "ans(x) :- F(x, y), F(x, z), y != z" in
  let q2 = Ecq.parse "ans(x) :- F(x, y)" in
  let union_exact = Approxcount.Sampling.union_count_exact [ q1; q2 ] db in
  let union_kl =
    Approxcount.Sampling.union_count_karp_luby ~rng ~rounds:3000 [ q1; q2 ] db
  in
  Format.printf "@.|Ans(popular) ∪ Ans(has-friend)| exact=%d karp-luby=%.1f@."
    union_exact union_kl
