module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Planner = Approxcount.Planner
module Fpras = Approxcount.Fpras
module Acjr = Ac_automata.Acjr
module Exact = Approxcount.Exact
module Rung = Ac_analysis.Rung
module Engine = Ac_exec.Engine
module Budget = Ac_runtime.Budget

type case = {
  name : string;
  query : string;
  rung : Rung.t;
  db : Structure.t Lazy.t;
}

let gnp_14 =
  lazy
    Ac_workload.Graph.(
      to_structure (random_gnp ~rng:(Random.State.make [| 5 |]) 14 0.3))

let dbgen_20 =
  lazy
    (Ac_workload.Dbgen.random_structure ~rng:(Random.State.make [| 1401 |])
       ~universe_size:20 [ ("E", 2, 60) ])

let path2 = "ans(x, y) :- E(x, z), E(z, y)"
let path4 = "ans(x, y, w) :- E(x, z), E(z, y), E(y, v), E(v, w)"

let fpras_cases =
  List.map
    (fun (name, query, db) -> { name; query; rung = Rung.Fpras; db })
    [
      ("path2", path2, gnp_14);
      ("path3", "ans(x, y) :- E(x, z), E(z, w), E(w, y)", gnp_14);
      ("path4", path4, gnp_14);
      ("star3", "ans(x, y, z) :- E(c, x), E(c, y), E(c, z)", gnp_14);
      ("dbgen-path2", path2, dbgen_20);
    ]

let fptras_cases =
  List.map
    (fun (name, query, rung, db) -> { name; query; rung; db })
    [
      ("tree-dp/path4", path4, Rung.Tree_dp, gnp_14);
      ("tree-dp/unguarded", "ans(x, y) :- E(x, z), y != z", Rung.Tree_dp, dbgen_20);
      ( "generic/star3-diseq",
        "ans(x, y, z) :- E(c, x), E(c, y), E(c, z), x != y",
        Rung.Generic_join,
        gnp_14 );
    ]

type row = {
  case : case;
  eps : float;
  delta : float;
  kappa : int option;
  trials : int;
  violations : int;
  cp_lower : float;
  mean_err : float;
  max_err : float;
  sampled : int;
}

(* P(X >= x) for X ~ Binomial(trials, p), 0 < p < 1: one minus the sum
   of the terms below x, each from the last by the ratio of binomial
   coefficients. *)
let upper_tail ~trials x p =
  let below = ref 0.0 and term = ref (Float.pow (1.0 -. p) (float_of_int trials)) in
  for i = 0 to x - 1 do
    below := !below +. !term;
    term :=
      !term *. float_of_int (trials - i) /. float_of_int (i + 1) *. p /. (1.0 -. p)
  done;
  1.0 -. !below

(* The p at which observing x or more becomes as unlikely as
   1 - confidence; the tail grows with p, so bisection finds it. *)
let cp_lower ?(confidence = 0.95) ~trials x =
  if x <= 0 then 0.0
  else begin
    let alpha = 1.0 -. confidence in
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if upper_tail ~trials x mid < alpha then lo := mid else hi := mid
    done;
    !lo
  end

let run ?kappa ~eps ~delta ~trials case =
  let q = Ecq.parse case.query and db = Lazy.force case.db in
  let exact = float_of_int (Exact.by_join_projection q db) in
  let estimate seed =
    let exec = Engine.make ~jobs:1 ~seed () in
    match (kappa, case.rung) with
    | Some k, Rung.Fpras ->
        let config =
          {
            Ac_automata.Acjr.sketch_size = k;
            union_rounds = k;
            rng = Engine.state exec ~stream:0;
            budget = Budget.none;
          }
        in
        ( Fpras.approx_count ~config ~exec
            ~repetitions:(Acjr.repetitions_for ~delta) ~eps q db,
          false )
    | _ ->
        Planner.run_rung ~budget:Budget.none ~exec ~eps ~delta case.rung q db
  in
  let runs = List.init trials (fun i -> estimate (i + 1)) in
  let errs =
    List.map (fun (est, _) -> Common.rel_err ~estimate:est ~truth:exact) runs
  in
  let violations = List.length (List.filter (fun e -> e > eps) errs) in
  {
    case;
    eps;
    delta;
    kappa =
      (match case.rung with
      | Rung.Fpras ->
          Some (Option.value kappa ~default:(Acjr.sketch_size_for ~eps))
      | _ -> None);
    trials;
    violations;
    cp_lower = cp_lower ~trials violations;
    mean_err = List.fold_left ( +. ) 0.0 errs /. float_of_int trials;
    max_err = List.fold_left Float.max 0.0 errs;
    sampled = List.length (List.filter (fun (_, settled) -> not settled) runs);
  }

let holds row = row.cp_lower <= row.delta
