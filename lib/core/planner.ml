module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Chaos = Ac_runtime.Chaos
module Classification = Ac_analysis.Classification
module Ladder = Ac_analysis.Ladder
module Rung = Ac_analysis.Rung
module Engine = Ac_exec.Engine
module Trace = Ac_obs.Trace
module Metrics = Ac_obs.Metrics

type rung = Rung.t

let rung_name = Rung.name

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
let run_rung ~budget ~exec ?engine ~eps ~delta rung q db =
  match (rung : rung) with
  | Fpras ->
      ( Fpras.approx_count ~budget ~exec ~eps
          ~repetitions:(Ac_automata.Acjr.repetitions_for ~delta) q db,
        false )
  | Tree_dp | Generic_join ->
      let engine =
        match (engine, rung) with
        | Some e, _ -> e
        | None, Tree_dp -> Colour_oracle.Tree_dp
        | None, _ -> Colour_oracle.Generic
      in
      let r = Fptras.approx_count ~budget ~exec ~engine ~eps ~delta q db in
      (r.Fptras.estimate, r.Fptras.exact)
  | Exact -> (float_of_int (Exact.by_join_projection ~budget q db), true)
  | Partial ->
      let n, completed = Exact.partial_count ~budget q db in
      (float_of_int n, completed)

(* Governed execution *)

type attempt = { rung : rung; error : Error.t }

type governed = {
  estimate : float;
  rung : rung;
  guarantee : bool;
  degraded : bool;
  eps_used : float;
  attempts : attempt list;
}

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

let count_governed ?(budget = Budget.none) ~exec ?(verbose = false)
    ?(strict = false) ?chaos ~classification ~cost ~eps ~delta q db =
  if not (Ecq.compatible_with q db) then
    Error (Error.Signature_mismatch (mismatch_message q db))
  else begin
    if verbose then
      Printf.eprintf "planner: %s\n%!" (Classification.describe classification);
    (* Strict mode runs the Figure-1 rung alone, under the whole budget:
       the caller asked for exactly that plan. Otherwise the chain is the
       ε-degradation ladder: guaranteed rungs cheapest-first, then the
       cheapest sampling rung at relaxed ε, then partial. *)
    let chain =
      if strict then [ (classification.Classification.regime, eps) ]
      else
        List.map
          (fun (s : Ladder.step) -> (s.Ladder.rung, s.Ladder.eps))
          (Ladder.build ~eps ~delta cost)
    in
    if verbose && not strict then
      Printf.eprintf "planner: costed chain: %s\n%!"
        (String.concat " -> "
           (List.map
              (fun (r, e) ->
                if e > eps then Printf.sprintf "%s@eps=%g" (rung_name r) e
                else rung_name r)
              chain));
    (* Per-rung tracing span, carrying the rung's tick delta on its
       budget slice: the per-rung attribution ("which rung burned the
       budget") surfaced in [telemetry.trace]. The engine is re-spanned
       so trials nest under the rung, and split by the rung's ordinal so
       a degraded retry does not replay the failed rung's random
       choices. One branch when the run is untraced. *)
    let parent = Engine.span exec in
    let run_traced ~sub ~eps rung () =
      (match chaos with
      | Some c -> Chaos.guard c ("rung:" ^ rung_name rung)
      | None -> ());
      let exec = Engine.split exec (Rung.ordinal rung) in
      match parent with
      | None -> run_rung ~budget:sub ~exec ~eps ~delta rung q db
      | Some _ ->
          let sp = Trace.child parent ("rung:" ^ rung_name rung) in
          let ticks0 = Budget.ticks sub in
          Fun.protect
            ~finally:(fun () -> Trace.stop ~ticks:(Budget.ticks sub - ticks0) sp)
            (fun () ->
              run_rung ~budget:sub ~exec:(Engine.with_span exec sp) ~eps ~delta
                rung q db)
    in
    let rec go attempts = function
      | [] -> (
          (* Even the last step failed (e.g. an injected fault): surface
             the most recent error. *)
          match attempts with
          | { error; _ } :: _ -> Error error
          | [] -> Error (Error.Internal "empty fallback chain"))
      | (rung, step_eps) :: rest -> (
          (* Non-final rungs get half the remaining budget so a runaway
             attempt cannot starve the fallbacks; the final partial sweep
             gets everything left. If the parent has already tripped, the
             slice trips immediately and the rung falls through in O(1). *)
          let sub =
            if strict then budget
            else
              Budget.slice
                ~fraction:(if rest = [] then 1.0 else 0.5)
                ~label:(rung_name rung) budget
          in
          let outcome = Error.guard (run_traced ~sub ~eps:step_eps rung) in
          if sub != budget then Budget.absorb budget sub;
          match outcome with
          | Ok (v, exact) when Float.is_finite v ->
              observe_attempt rung "ok";
              let attempts = List.rev attempts in
              if attempts <> [] then begin
                observe_degradation ();
                if verbose then
                  Printf.eprintf
                    "planner: degraded to rung %s after %d failure(s)\n%!"
                    (rung_name rung) (List.length attempts)
              end;
              Ok
                {
                  estimate = v;
                  rung;
                  (* only the partial sweep can complete without the
                     guarantee: cut off, its count is a lower bound *)
                  guarantee = exact || rung <> Rung.Partial;
                  degraded = attempts <> [];
                  eps_used = step_eps;
                  attempts;
                }
          | outcome ->
              let error =
                match outcome with
                | Error error -> error
                | Ok (v, _) ->
                    Error.Numeric_overflow
                      (Printf.sprintf "rung %s produced %h" (rung_name rung) v)
              in
              observe_attempt rung "error";
              observe_trip error;
              if verbose then
                Printf.eprintf "planner: rung %s failed: %s\n%!"
                  (rung_name rung) (Error.message error);
              go ({ rung; error } :: attempts) rest)
    in
    go [] chain
  end
