(* E2 — Corollary 6: FPTRAS for counting locally injective homomorphisms
   from bounded-treewidth patterns.

   Patterns (path, star, binary tree — all treewidth 1) are mapped into
   random host graphs of growing size; we compare the Corollary 6 FPTRAS
   against the exact count through the query encoding, which is itself
   cross-checked against direct graph brute force on the smallest host. *)

module G = Ac_workload.Graph
module Lihom = Approxcount.Lihom

let patterns =
  [
    ("path-4", G.path 4);
    ("star-3", G.star 3);
    ("bintree-d2", G.binary_tree ~depth:2);
  ]

let run fmt =
  let rng = Common.rng "e2" in
  let rows = ref [] in
  List.iter
    (fun hn ->
      let host = G.random_gnp ~rng hn 0.3 in
      List.iter
        (fun (name, pattern) ->
          let exact, t_exact =
            Common.time (fun () -> Lihom.exact_count ~pattern ~host)
          in
          (* cross-check with graph-level brute force on small hosts *)
          if hn <= 8 then
            assert (exact = Lihom.exact_count_brute ~pattern ~host);
          let r, t =
            Common.time (fun () ->
                Lihom.approx_count ~exec:(Common.engine rng) ~eps:0.3
                  ~delta:0.1 ~pattern host)
          in
          let err =
            Common.rel_err ~estimate:r.Approxcount.Fptras.estimate
              ~truth:(float_of_int exact)
          in
          rows :=
            [
              name;
              string_of_int hn;
              string_of_int exact;
              Common.f1 r.Approxcount.Fptras.estimate;
              Common.f3 err;
              (if r.exact then "exact" else Printf.sprintf "lvl %d" r.level);
              string_of_int r.hom_calls;
              Common.f3 t_exact;
              Common.f3 t;
            ]
            :: !rows)
        patterns)
    [ 8; 16; 24 ];
  Common.table fmt
    ~title:"E2  Corollary 6: #LIHom FPTRAS (frequency-assignment workload)"
    ~header:
      [
        "pattern"; "|host|"; "exact"; "estimate"; "rel.err"; "mode"; "hom";
        "t_exact(s)"; "t_fptras(s)";
      ]
    (List.rev !rows)

let experiment =
  {
    Common.id = "E2";
    claim = "Corollary 6: FPTRAS for locally injective homomorphisms";
    queries =
      List.map
        (fun (name, pattern) ->
          ("lihom-" ^ name, Ac_workload.Query_families.lihom pattern))
        patterns;
    run;
  }
