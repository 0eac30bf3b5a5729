(* A tour of the planner: for each query, read off the paper's Figure 1
   classification, dispatch to the right scheme, and compare against the
   exact count. Also demonstrates the UCQ extension (§6) and the
   Structure_io text format the `acq` CLI uses.

   Run with: dune exec examples/planner_tour.exe *)

module Ecq = Ac_query.Ecq
module Structure_io = Ac_relational.Structure_io
module Planner = Approxcount.Planner
module Report = Ac_analysis.Report
module Classification = Ac_analysis.Classification
module Ucq = Approxcount.Ucq

let database_text =
  {|# a small social network (text format of Structure_io / the acq CLI)
universe 20
relation F 2
relation E 2
F 0 1
F 1 0
F 0 2
F 2 0
F 1 2
F 2 1
F 3 4
F 4 3
F 4 5
F 5 4
F 6 0
F 0 6
E 0 1
E 1 2
E 2 3
E 3 0
E 2 0
E 4 5
|}

let queries =
  [
    "ans(x, y) :- E(x, z), E(z, y)";                    (* CQ  → FPRAS *)
    "ans(x) :- F(x, y), F(x, z), y != z";               (* DCQ → FPTRAS *)
    "ans(x, y) :- F(x, z), F(z, y), !F(x, y), x != y";  (* ECQ → FPTRAS *)
  ]

let () =
  let db = Structure_io.of_string database_text in
  List.iter
    (fun text ->
      let q = Ecq.parse text in
      let exact = Approxcount.Exact.by_join_projection q db in
      Format.printf "@.%s@." text;
      let report = Report.analyze ~db q in
      let c = Report.classification_exn report in
      let exec = Ac_exec.Engine.make ~jobs:1 ~seed:2022 () in
      match
        Planner.count_governed ~exec ~strict:true ~classification:c
          ~cost:(Option.get report.Report.cost) ~eps:0.2 ~delta:0.1 q db
      with
      | Error e ->
          Format.printf "  failed:   %s@." (Ac_runtime.Error.message e)
      | Ok { Planner.estimate; _ } ->
          Format.printf "  plan:     %s@." (Classification.describe c);
          Format.printf "  widths:   tw %d, fhw %.2f%s@." c.Classification.treewidth
            c.Classification.fhw
            (if c.Classification.exact_widths then "" else " (bounds)");
          Format.printf "  exact:    %d@." exact;
          Format.printf "  estimate: %.1f@." estimate)
    queries;

  (* §6: a union of two queries, counted with the fully approximate
     Karp–Luby pipeline *)
  let u =
    Ucq.parse "ans(x) :- F(x, y), F(x, z), y != z; ans(x) :- E(x, y)"
  in
  Format.printf "@.union: %a@." Ucq.pp u;
  Format.printf "  exact:    %d@." (Ucq.exact_count u db);
  let est =
    Ucq.approx_count
      ~exec:(Ac_exec.Engine.sequential ~seed:2022)
      ~kl_rounds:120 ~eps:0.25 ~delta:0.1 u db
  in
  Format.printf "  karp-luby (FPTRAS + JVV): %.1f@." est
