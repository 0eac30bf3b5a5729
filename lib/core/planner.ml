module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Chaos = Ac_runtime.Chaos
module Classification = Ac_analysis.Classification
module Classify = Ac_analysis.Classify
module Cost = Ac_analysis.Cost
module Ladder = Ac_analysis.Ladder
module Engine = Ac_exec.Engine
module Trace = Ac_obs.Trace
module Metrics = Ac_obs.Metrics

type algorithm =
  | Use_fpras
  | Use_fptras of Colour_oracle.engine
  | Use_exact

type query_class = Cq | Dcq | Ecq_full

type decision = {
  algorithm : algorithm;
  query_class : query_class;
  treewidth : int;
  fhw : float;
  exact_widths : bool;
  reason : string;
  classification : Classification.t;
}

(* The decision is a pure function of the classification: the regime
   picks the algorithm, the reason is pretty-printed from the record.
   Nothing is re-derived here, so plan output, [acq explain] and
   [acq lint] can never disagree. *)
let decision_of_classification (c : Classification.t) =
  let query_class =
    match c.Classification.query_class with
    | Classification.Cq -> Cq
    | Classification.Dcq -> Dcq
    | Classification.Ecq_full -> Ecq_full
  in
  let algorithm =
    match c.Classification.regime with
    | Classification.Exact_empty -> Use_exact
    | Classification.Fpras_ta -> Use_fpras
    | Classification.Fptras_tree_dp -> Use_fptras Colour_oracle.Tree_dp
    | Classification.Fptras_generic_join -> Use_fptras Colour_oracle.Generic
  in
  {
    algorithm;
    query_class;
    treewidth = c.Classification.treewidth;
    fhw = c.Classification.fhw;
    exact_widths = c.Classification.exact_widths;
    reason = Classification.describe c;
    classification = c;
  }

let plan q = decision_of_classification (Classify.classify q)

let plan_result q = Error.guard (fun () -> plan q)

let mismatch_message q db =
  let bad =
    List.filter_map
      (fun (name, arity) ->
        if not (Structure.mem_symbol db name) then
          Some (Printf.sprintf "%s/%d missing from the database" name arity)
        else
          let a = Structure.arity_of db name in
          if a <> arity then
            Some
              (Printf.sprintf "%s has arity %d in the query but %d in the database"
                 name arity a)
          else None)
      (Ecq.signature q)
  in
  "query signature not contained in the database signature: "
  ^ String.concat "; " bad

(* The one estimator dispatch on the request path: the governed rungs
   and [Api.run]'s forced methods both count through here. All
   randomness comes from [exec]'s seed: the Fpras pipeline runs a median
   batch of sketch repetitions, their number set by [delta] and each
   sketch's size by [eps]; the Fptras pipelines hand per-trial streams
   to the edge-count layer. *)
let run_algorithm ~budget ~exec ~eps ~delta algorithm q db =
  match algorithm with
  | Use_fpras ->
      ( Fpras.approx_count ~budget ~exec ~eps
          ~repetitions:(Fpras.repetitions_for ~delta) q db,
        false )
  | Use_fptras engine ->
      let r = Fptras.approx_count ~budget ~exec ~engine ~eps ~delta q db in
      (r.Fptras.estimate, r.Fptras.exact)
  | Use_exact -> (float_of_int (Exact.by_join_projection ~budget q db), true)

(* Governed execution *)

type rung = Fpras_rung | Exact_rung | Tree_dp_rung | Generic_rung | Partial_rung

let rung_name = function
  | Fpras_rung -> "fpras"
  | Exact_rung -> "exact"
  | Tree_dp_rung -> "tree-dp"
  | Generic_rung -> "generic-join"
  | Partial_rung -> "partial"

type attempt = { rung : rung; error : Error.t }

type governed = {
  estimate : float;
  rung : rung;
  guarantee : bool;
  degraded : bool;
  eps_used : float;
  attempts : attempt list;
  decision : decision;
}

let rung_of_cost = function
  | Cost.Fpras -> Fpras_rung
  | Cost.Exact -> Exact_rung
  | Cost.Tree_dp -> Tree_dp_rung
  | Cost.Generic_join -> Generic_rung
  | Cost.Partial -> Partial_rung

let planned_rung d =
  match d.algorithm with
  | Use_fpras -> Fpras_rung
  | Use_fptras Colour_oracle.Tree_dp -> Tree_dp_rung
  | Use_fptras (Colour_oracle.Generic | Colour_oracle.Direct) -> Generic_rung
  | Use_exact -> Exact_rung

(* Stable per-rung ordinal, used to derive an independent engine seed
   for each rung: a degraded retry must not replay the failed rung's
   random choices. *)
let rung_ordinal = function
  | Fpras_rung -> 0
  | Exact_rung -> 1
  | Tree_dp_rung -> 2
  | Generic_rung -> 3
  | Partial_rung -> 4

(* Returns (estimate, guarantee-held). Only [Partial_rung] can complete
   without the guarantee; every other rung either meets (ε, δ) — or
   better, exactness — or raises. *)
let run_rung ~budget ~exec ~eps ~delta rung q db =
  let exec = Engine.split exec (rung_ordinal rung) in
  let counted algorithm =
    (fst (run_algorithm ~budget ~exec ~eps ~delta algorithm q db), true)
  in
  match rung with
  | Fpras_rung -> counted Use_fpras
  | Exact_rung -> counted Use_exact
  | Tree_dp_rung -> counted (Use_fptras Colour_oracle.Tree_dp)
  | Generic_rung -> counted (Use_fptras Colour_oracle.Generic)
  | Partial_rung ->
      let n, completed = Exact.partial_count ~budget q db in
      (float_of_int n, completed)

(* Governed-execution metrics. Counters are get-or-created per attempt —
   a mutex-guarded table lookup, negligible next to running a rung. *)
let observe_attempt rung outcome =
  Metrics.incr
    (Metrics.counter Metrics.global "acq_rung_attempts_total"
       ~help:"Planner rung attempts by outcome"
       ~labels:[ ("rung", rung_name rung); ("outcome", outcome) ])

let observe_trip = function
  | Error.Budget trip ->
      Metrics.incr
        (Metrics.counter Metrics.global "acq_budget_trips_total"
           ~help:"Budget trips observed during governed execution"
           ~labels:[ ("limit", Budget.limit_name trip.Budget.limit) ])
  | _ -> ()

let observe_degradation () =
  Metrics.incr
    (Metrics.counter Metrics.global "acq_degradations_total"
       ~help:"Governed runs that completed on a fallback rung")

let count_governed ?budget ~exec ?(verbose = false) ?(strict = false) ?chaos
    ?decision ?cost ~eps ~delta q db =
  let budget = match budget with Some b -> b | None -> Budget.none in
  if not (Ecq.compatible_with q db) then
    Error (Error.Signature_mismatch (mismatch_message q db))
  else
    match
      match decision with Some d -> Ok d | None -> plan_result q
    with
    | Error err -> Error err
    | Ok d ->
        if verbose then Printf.eprintf "planner: %s\n%!" d.reason;
        let guard_rung r =
          match chaos with
          | Some c -> Chaos.guard c ("rung:" ^ rung_name r)
          | None -> ()
        in
        (* Per-rung tracing span, carrying the rung's tick delta on its
           budget slice: the per-rung attribution ("which rung burned
           the budget") surfaced in [telemetry.trace]. The engine is
           re-spanned so trials nest under the rung. One branch when the
           run is untraced. *)
        let parent = Engine.span exec in
        let run_traced ~sub ~eps rung () =
          guard_rung rung;
          match parent with
          | None -> run_rung ~budget:sub ~exec ~eps ~delta rung q db
          | Some _ ->
              let sp = Trace.child parent ("rung:" ^ rung_name rung) in
              let ticks0 = Budget.ticks sub in
              let exec = Engine.with_span exec sp in
              Fun.protect
                ~finally:(fun () ->
                  Trace.stop ~ticks:(Budget.ticks sub - ticks0) sp)
                (fun () -> run_rung ~budget:sub ~exec ~eps ~delta rung q db)
        in
        let finish ~rung ~guarantee ~eps_used ~attempts estimate =
          if not (Float.is_finite estimate) then
            Error
              (Error.Numeric_overflow
                 (Printf.sprintf "rung %s produced %h" (rung_name rung)
                    estimate))
          else begin
            let attempts = List.rev attempts in
            if attempts <> [] then observe_degradation ();
            if verbose && attempts <> [] then
              Printf.eprintf "planner: degraded to rung %s after %d failure(s)\n%!"
                (rung_name rung) (List.length attempts);
            Ok
              {
                estimate;
                rung;
                guarantee;
                degraded = attempts <> [];
                eps_used;
                attempts;
                decision = d;
              }
          end
        in
        let planned = planned_rung d in
        if strict then
          (* Strict mode: the planned algorithm under the whole budget,
             first failure propagated — no degradation, no cost-driven
             reordering (the caller asked for the Figure-1 plan). *)
          match Error.guard (run_traced ~sub:budget ~eps planned) with
          | Error err as e ->
              observe_attempt planned "error";
              observe_trip err;
              e
          | Ok (v, guarantee) ->
              observe_attempt planned "ok";
              finish ~rung:planned ~guarantee ~eps_used:eps ~attempts:[] v
        else begin
          (* With a cost analysis at hand the chain is the ε-degradation
             ladder: guaranteed rungs cheapest-first, then the cheapest
             sampling rung at relaxed ε, then partial. Without one it is
             the static Figure-1 fallback order, all steps at the
             requested ε. *)
          let chain =
            match cost with
            | Some cost ->
                List.map
                  (fun (s : Ladder.step) ->
                    (rung_of_cost s.Ladder.rung, s.Ladder.eps))
                  (Ladder.build ~eps ~delta cost)
            | None ->
                List.map
                  (fun r -> (r, eps))
                  ((planned
                   :: List.filter
                        (fun r -> r <> planned)
                        [ Exact_rung; Tree_dp_rung; Generic_rung ])
                  @ [ Partial_rung ])
          in
          if verbose && cost <> None then
            Printf.eprintf "planner: costed chain: %s\n%!"
              (String.concat " -> "
                 (List.map
                    (fun (r, e) ->
                      if e > eps then
                        Printf.sprintf "%s@eps=%g" (rung_name r) e
                      else rung_name r)
                    chain));
          let rec go attempts = function
            | [] -> (
                (* Even the partial rung failed (e.g. an injected fault):
                   surface the most recent error. *)
                match attempts with
                | { error; _ } :: _ -> Error error
                | [] -> Error (Error.Internal "empty fallback chain"))
            | (rung, step_eps) :: rest ->
                (* Non-final rungs get half the remaining budget so a
                   runaway attempt cannot starve the fallbacks; the final
                   partial sweep gets everything left. If the parent has
                   already tripped, the slice trips immediately and the
                   rung falls through in O(1). *)
                let fraction = if rest = [] then 1.0 else 0.5 in
                let sub = Budget.slice ~fraction ~label:(rung_name rung) budget in
                let outcome = Error.guard (run_traced ~sub ~eps:step_eps rung) in
                if sub != budget then Budget.absorb budget sub;
                (match outcome with
                | Ok (v, guarantee) when Float.is_finite v ->
                    observe_attempt rung "ok";
                    finish ~rung ~guarantee ~eps_used:step_eps ~attempts v
                | Ok (v, _) ->
                    observe_attempt rung "error";
                    let error =
                      Error.Numeric_overflow
                        (Printf.sprintf "rung %s produced %h" (rung_name rung) v)
                    in
                    if verbose then
                      Printf.eprintf "planner: rung %s failed: %s\n%!"
                        (rung_name rung) (Error.message error);
                    go ({ rung; error } :: attempts) rest
                | Error error ->
                    observe_attempt rung "error";
                    observe_trip error;
                    if verbose then
                      Printf.eprintf "planner: rung %s failed: %s\n%!"
                        (rung_name rung) (Error.message error);
                    go ({ rung; error } :: attempts) rest)
          in
          go [] chain
        end
