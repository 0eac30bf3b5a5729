(* Quickstart: the paper's running example, equation (1).

     φ(x) = ∃y ∃z. F(x,y) ∧ F(x,z) ∧ y ≠ z

   counts the people with at least two friends. We build a small database,
   parse the query from text, count exactly, and run the Theorem 5 FPTRAS.

   Run with: dune exec examples/quickstart.exe *)

module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure

let () =
  (* A database over people 0..5; F is the (symmetric) friendship relation. *)
  let db = Structure.create ~universe_size:6 in
  let befriend a b =
    Structure.add_fact db "F" [| a; b |];
    Structure.add_fact db "F" [| b; a |]
  in
  befriend 0 1;
  befriend 0 2;
  befriend 1 2;
  befriend 3 4;
  (* person 5 is lonely *)

  (* The query, in the textual syntax of Ecq.parse. *)
  let q = Ecq.parse "ans(x) :- F(x, y), F(x, z), y != z" in
  Format.printf "query: %a@." Ecq.pp q;
  Format.printf "‖φ‖ = %d, free = %d, existential = %d@." (Ecq.size q)
    (Ecq.num_free q) (Ecq.num_existential q);

  (* Exact counting (three interchangeable baselines). *)
  let exact = Approxcount.Exact.by_join_projection q db in
  Format.printf "exact |Ans(φ, D)| = %d@." exact;

  (* The FPTRAS of Theorem 5: colour-coded Hom oracles + the DLM
     edge-count layer. On an instance this small it returns the exact
     count. *)
  let exec = Ac_exec.Engine.sequential ~seed:42 in
  let r = Approxcount.Fptras.approx_count ~exec ~eps:0.1 ~delta:0.05 q db in
  Format.printf "FPTRAS estimate = %.1f (exact path: %b, oracle calls %d, hom calls %d)@."
    r.Approxcount.Fptras.estimate r.exact r.oracle_calls r.hom_calls;

  (* The same count through the unified Api facade: result-typed,
     seeded (replayable) and parallelisable with ~jobs. *)
  let request =
    Approxcount.Api.Request.(make q db |> with_eps 0.1 |> with_delta 0.05 |> with_seed (Some 42))
  in
  (match Approxcount.Api.run request with
  | Ok resp ->
      Format.printf "Api estimate   = %.1f (seed %d, jobs %d, %d ticks)@."
        resp.Approxcount.Api.estimate resp.telemetry.seed resp.telemetry.jobs
        resp.telemetry.ticks
  | Error e -> Format.printf "Api failed: %s@." (Ac_runtime.Error.message e));

  (* The same request, traced: the span summary says where the time
     (and the budget's work ticks) went — plan, rungs, trials. *)
  let tracer = Ac_obs.Trace.create () in
  (match
     Approxcount.Api.(
       run (Request.with_trace (Some tracer) request))
   with
  | Ok resp -> (
      match resp.Approxcount.Api.telemetry.Approxcount.Api.trace with
      | Some s ->
          Format.printf "trace: %d spans in %.1f ms@." s.Ac_obs.Trace.spans
            s.Ac_obs.Trace.wall_ms;
          List.iter
            (fun a ->
              Format.printf "  %-16s x%-3d %6.1f ms %6d ticks@."
                a.Ac_obs.Trace.agg_name a.Ac_obs.Trace.count
                a.Ac_obs.Trace.total_ms a.Ac_obs.Trace.agg_ticks)
            (Ac_obs.Trace.summary_aggs s)
      | None -> ())
  | Error e -> Format.printf "traced Api failed: %s@." (Ac_runtime.Error.message e));

  (* Draw approximately-uniform answers: Api.sample returns a response
     record like Api.run — draws plus the same telemetry envelope. *)
  (match Approxcount.Api.(sample ~draws:3 Request.(make q db |> with_seed (Some 42))) with
  | Ok s ->
      Array.iter
        (function
          | Some tau -> Format.printf "sampled answer: x = %d@." tau.(0)
          | None -> Format.printf "sampled answer: (walk failed)@.")
        s.Approxcount.Api.draws
  | Error e -> Format.printf "sample failed: %s@." (Ac_runtime.Error.message e));

  (* Who are they? Enumerate the answers. *)
  let answers = Approxcount.Exact.answers q db |> List.map (fun t -> t.(0)) in
  Format.printf "people with ≥ 2 friends: %s@."
    (String.concat ", " (List.map string_of_int (List.sort compare answers)))
