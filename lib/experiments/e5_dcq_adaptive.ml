(* E5 — Theorem 13: FPTRAS for DCQs of bounded adaptive width with
   unbounded arity.

   The wide-path family has k atoms of arity a chaining on shared
   variables plus one disequality per atom: every bag of the natural
   decomposition is covered by a single atom, so fhw = 1 ≥ aw while the
   arity (and hence the treewidth, = a - 1) grows without bound. The
   generic-join engine (our Theorem 36 stand-in) handles every arity at
   the same polynomial cost; accuracy is checked against exact counts. *)

module QF = Ac_workload.Query_families
module Dbgen = Ac_workload.Dbgen
module Fptras = Approxcount.Fptras
module Exact = Approxcount.Exact
module Colour_oracle = Approxcount.Colour_oracle

let run fmt =
  let rng = Common.rng "e5" in
  let rows = ref [] in
  List.iter
    (fun arity ->
      let q = QF.wide_path ~num_free:2 ~k:3 ~arity () in
      let h = Ac_query.Ecq.hypergraph q in
      let fhw =
        if Ac_hypergraph.Hypergraph.num_vertices h <= 18 then
          fst (Ac_hypergraph.Widths.fhw_exact h)
        else Ac_hypergraph.Widths.fhw_upper h
      in
      let db =
        Dbgen.high_arity_database ~rng ~universe_size:20 ~arity ~count:600
      in
      let exact, t_exact = Common.time (fun () -> Exact.by_join_projection q db) in
      let r, t =
        Common.time (fun () ->
            Fptras.approx_count ~exec:(Common.engine rng)
              ~engine:Colour_oracle.Generic ~eps:0.3 ~delta:0.1 q db)
      in
      let err =
        Common.rel_err ~estimate:r.Fptras.estimate ~truth:(float_of_int exact)
      in
      rows :=
        [
          string_of_int arity;
          string_of_int (Ac_query.Ecq.num_vars q);
          Common.f1 fhw;
          string_of_int (arity - 1);
          string_of_int exact;
          Common.f1 r.Fptras.estimate;
          Common.f3 err;
          string_of_int r.hom_calls;
          Common.f3 t_exact;
          Common.f3 t;
        ]
        :: !rows)
    [ 3; 4; 5; 6; 8 ];
  Common.table fmt
    ~title:
      "E5  Theorem 13: DCQ FPTRAS under bounded adaptive width, unbounded arity (fhw=1)"
    ~header:
      [
        "arity"; "vars"; "fhw"; "tw"; "exact"; "estimate"; "rel.err"; "hom";
        "t_exact(s)"; "t_fptras(s)";
      ]
    (List.rev !rows)

let experiment =
  {
    Common.id = "E5";
    claim = "Theorem 13: FPTRAS for bounded-adaptive-width DCQs of unbounded arity";
    queries =
      [ ("wide-path-3x4", QF.wide_path ~num_free:2 ~k:3 ~arity:4 ()) ];
    run;
  }
