module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Chaos = Ac_runtime.Chaos
module Entropy = Ac_runtime.Entropy
module Engine = Ac_exec.Engine
module Report = Ac_analysis.Report
module Rung = Ac_analysis.Rung
module Trace = Ac_obs.Trace

type method_ =
  | Auto
  | Fpras
  | Fptras of Colour_oracle.engine
  | Exact
  | Brute

let method_to_string = function
  | Auto -> "auto"
  | Fpras -> "fpras"
  | Fptras Colour_oracle.Tree_dp -> "fptras/tree-dp"
  | Fptras Colour_oracle.Generic -> "fptras/generic"
  | Fptras Colour_oracle.Direct -> "fptras/direct"
  | Exact -> "exact"
  | Brute -> "brute"

let method_name = method_to_string

(* The single method codec: [bin/acq], the wire protocol and the bench
   harness all parse through here, so the accepted spellings cannot
   drift apart. Every [method_to_string] output round-trips. *)
let method_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" -> Some Auto
  | "fpras" -> Some Fpras
  | "fptras" | "fptras/tree-dp" | "tree-dp" | "tree_dp" ->
      Some (Fptras Colour_oracle.Tree_dp)
  | "fptras/generic" | "generic" | "generic-join" ->
      Some (Fptras Colour_oracle.Generic)
  | "fptras/direct" | "direct" -> Some (Fptras Colour_oracle.Direct)
  | "exact" -> Some Exact
  | "brute" -> Some Brute
  | _ -> None

let check_accuracy which v =
  match which with
  | `Eps when Float.is_finite v && v > 0.0 -> Ok v
  | `Delta when Float.is_finite v && v > 0.0 && v < 1.0 -> Ok v
  | `Eps -> Error (Printf.sprintf "eps must be finite and > 0 (got %g)" v)
  | `Delta -> Error (Printf.sprintf "delta must be in (0, 1) (got %g)" v)

type request = {
  query : Ecq.t;
  db : Structure.t;
  eps : float;
  delta : float;
  method_ : method_;
  seed : int option;
  jobs : int option;
  budget : Budget.t option;
  strict : bool;
  verbose : bool;
  chaos : Chaos.t option;
  trace : Trace.t option;
}

(* The builder: [Request.make] carries the documented defaults and the
   [with_*] setters replace one field each, so call sites name exactly
   the knobs they turn and pipe the rest through unchanged. *)
module Request = struct
  let make query db =
    {
      query;
      db;
      eps = 0.25;
      delta = 0.1;
      method_ = Auto;
      seed = None;
      jobs = None;
      budget = None;
      strict = false;
      verbose = false;
      chaos = None;
      trace = None;
    }

  let with_eps eps r = { r with eps }
  let with_delta delta r = { r with delta }
  let with_method method_ r = { r with method_ }
  let with_seed seed r = { r with seed }
  let with_jobs jobs r = { r with jobs }
  let with_budget budget r = { r with budget }
  let with_strict strict r = { r with strict }
  let with_verbose verbose r = { r with verbose }
  let with_trace trace r = { r with trace }
end

type telemetry = {
  seed : int;
  jobs : int;
  ticks : int;
  elapsed_ms : float;
  trace : Trace.summary option;
}

type response = {
  estimate : float;
  exact : bool;
  rung : Planner.rung option;
  guarantee : bool;
  degraded : bool;
  eps_used : float;
  attempts : Planner.attempt list;
  report : Report.t;
  telemetry : telemetry;
}

(* Seed resolution happens — and is logged — before any computation, so
   a run that later stalls or degrades can still be replayed. *)
let resolve_seed (r : request) =
  match r.seed with
  | Some s -> s
  | None ->
      let s = Entropy.fresh_seed () in
      if r.verbose then
        Printf.eprintf
          "api: method %s, self-init seed = %d (pass it back to replay)\n%!"
          (method_name r.method_) s;
      s

let fpras_requires_cq =
  "the FPRAS (Theorem 16) requires a CQ: remove disequalities and negations, \
   or use the fptras method"

let mismatch = Error.Signature_mismatch "query signature is not contained in the database's"

(* Root span of a traced request: the whole call, tagged with the
   resolved execution envelope. [None] (the default) keeps the entire
   observability layer to a single branch per layer. *)
let open_root (r : request) ~seed ~jobs name =
  match r.trace with
  | None -> None
  | Some tr ->
      Some
        (Trace.root tr name
           ~tags:
             [
               ("method", method_to_string r.method_);
               ("seed", string_of_int seed);
               ("jobs", string_of_int jobs);
             ])

(* The static analysis as its own child span — planning cost is part of
   the attribution story. *)
let analyze_traced root (r : request) =
  match root with
  | None -> Report.analyze ~db:r.db r.query
  | Some _ ->
      let sp = Trace.child root "analyze" in
      Fun.protect
        ~finally:(fun () -> Trace.stop sp)
        (fun () -> Report.analyze ~db:r.db r.query)

(* Closing the root span with the final tick count before summarising
   gives the root the whole run's tick attribution. *)
let make_telemetry (r : request) ~seed ~jobs ~budget ~root () =
  Trace.stop ~ticks:(Budget.ticks budget) root;
  {
    seed;
    jobs;
    ticks = Budget.ticks budget;
    elapsed_ms = Budget.elapsed_ms budget;
    trace = Option.map Trace.summary r.trace;
  }

(* The prelude [run] and [sample] share: seed, jobs, root span, engine,
   budget and telemetry, then the signature check. [k] runs only when
   the query's signature fits the database. *)
let with_request (r : request) span k =
  let seed = resolve_seed r in
  let jobs = Engine.resolve_jobs r.jobs in
  if r.verbose && r.seed <> None then
    Printf.eprintf "api: method %s, seed = %d, jobs = %d\n%!"
      (method_name r.method_) seed jobs;
  let root = open_root r ~seed ~jobs span in
  let exec = Engine.with_span (Engine.make ~jobs ~seed ()) root in
  (* telemetry needs a tick counter even when the caller set no limit *)
  let budget =
    match r.budget with Some b -> b | None -> Budget.create ~label:"api" ()
  in
  let telemetry = make_telemetry r ~seed ~jobs ~budget ~root in
  if not (Ecq.compatible_with r.query r.db) then Error mismatch
  else k ~root ~exec ~budget ~telemetry

let run ?report r =
  with_request r "api:count" (fun ~root ~exec ~budget ~telemetry ->
      (* The static analysis runs once, up front; the Auto path hands
         its classification to the planner (no re-derivation) and every
         response carries the full report. A caller that has already
         analysed this (query, db) pair — e.g. the server's plan cache —
         passes it in. *)
      let report =
        match report with
        | Some ({ Report.cost = Some _; _ } as rep) -> rep
        | Some _ | None -> analyze_traced root r
      in
      let finish ?rung ?(guarantee = true) ?(degraded = false)
          ?(eps_used = r.eps) ?(attempts = []) ~exact estimate =
        if not (Float.is_finite estimate) then
          Error
            (Error.Numeric_overflow
               (Printf.sprintf "estimate is %h (method %s)" estimate
                  (method_name r.method_)))
        else
          Ok
            {
              estimate;
              exact;
              rung;
              guarantee;
              degraded;
              eps_used;
              attempts;
              report;
              telemetry = telemetry ();
            }
      in
      match r.method_ with
      | Auto -> (
          match
            Planner.count_governed ~budget ~exec ~verbose:r.verbose
              ~strict:r.strict ?chaos:r.chaos
              ~classification:(Report.classification_exn report)
              ~cost:(Option.get report.Report.cost) ~eps:r.eps ~delta:r.delta
              r.query r.db
          with
          | Error e -> Error e
          | Ok g ->
              finish ~rung:g.Planner.rung ~guarantee:g.Planner.guarantee
                ~degraded:g.Planner.degraded ~eps_used:g.Planner.eps_used
                ~attempts:g.Planner.attempts
                ~exact:(g.Planner.rung = Rung.Exact)
                g.Planner.estimate)
      | Fpras when not (Ecq.is_cq r.query) ->
          Error (Error.Signature_mismatch fpras_requires_cq)
      | Fpras | Fptras _ | Exact ->
          let rung, engine =
            match r.method_ with
            | Fpras -> (Rung.Fpras, None)
            | Fptras Colour_oracle.Tree_dp -> (Rung.Tree_dp, None)
            | Fptras Colour_oracle.Generic -> (Rung.Generic_join, None)
            | Fptras Colour_oracle.Direct ->
                (Rung.Generic_join, Some Colour_oracle.Direct)
            | Auto | Exact | Brute -> (Rung.Exact, None)
          in
          (* the request's own engine, not a rung's split of it *)
          Result.bind
            (Error.guard (fun () ->
                 Planner.run_rung ~budget ~exec ?engine ~eps:r.eps
                   ~delta:r.delta rung r.query r.db))
            (fun (estimate, exact) -> finish ~exact estimate)
      | Brute ->
          Result.bind
            (Error.guard (fun () -> Exact.brute_force ~budget r.query r.db))
            (fun n -> finish ~exact:true (float_of_int n)))

type sample_response = {
  draws : int array option array;
  degraded : bool;
  report : Report.t;
  telemetry : telemetry;
}

let sample ?report ?(draws = 1) r =
  with_request r "api:sample" (fun ~root ~exec ~budget ~telemetry ->
      let engine =
        match r.method_ with Fptras engine -> engine | _ -> Colour_oracle.Tree_dp
      in
      let report =
        match report with Some rep -> rep | None -> analyze_traced root r
      in
      Result.map
        (fun samples ->
          {
            draws = samples;
            degraded = Array.exists Option.is_none samples;
            report;
            telemetry = telemetry ();
          })
        (Error.guard (fun () ->
             Sampling.sample_many ~budget ~engine ~exec ~draws ~eps:r.eps
               ~delta:r.delta r.query r.db)))
