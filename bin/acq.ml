(* acq — approximate conjunctive-query counting from the command line.

     acq count  --db facts.txt --query "ans(x) :- F(x,y), F(x,z), y != z"
     acq count  --db facts.txt --query "..." --method fpras
     acq count  --db facts.txt --query "..." --timeout-ms 500 --max-heap-mb 512
     acq count  --db - --query "..."             # database from stdin
     acq count  --connect /run/acqd.sock --use people --query "..."
     acq sample --db facts.txt --query "..." --draws 5
     acq widths --query "..."
     acq generate --kind friends --size 100 --out facts.txt
     acq ping   --connect /run/acqd.sock
     acq stats  --connect /run/acqd.sock

   Databases use the plain-text format of Ac_relational.Structure_io;
   [--db -] reads the same format from stdin. With [--connect ADDR]
   (unix:PATH, tcp:HOST:PORT or a bare socket path) count/sample are
   executed by a resident acqd daemon over the wire protocol of
   docs/server.md — same estimates, same exit codes.

   Exit codes (see docs/robustness.md): 0 success; 3 answered but
   degraded (a budget tripped and a fallback rung produced the value);
   10-17 typed error classes (Ac_runtime.Error.exit_code); 124/125 are
   cmdliner's. *)

open Cmdliner

module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Structure_io = Ac_relational.Structure_io
module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Api = Approxcount.Api
module Wire = Ac_server.Wire
module Client = Ac_server.Client
module Retry_policy = Ac_server.Retry_policy
module Trace = Ac_obs.Trace

let exit_degraded = 3

let report err =
  Printf.eprintf "acq: error [%s]: %s\n%!" (Error.class_name err)
    (Error.message err);
  Error.exit_code err

(* All-or-nothing: [Error.guard]ed body, typed-error exit code on failure. *)
let guarded f = match Error.guard f with Ok code -> code | Error e -> report e

let make_budget ~timeout_ms ~max_heap_mb =
  match (timeout_ms, max_heap_mb) with
  | None, None -> None
  | _ ->
      Some
        (Budget.create ~label:"cli"
           ?deadline_ms:(Option.map float_of_int timeout_ms)
           ?max_heap_mb ())

let query_term =
  let doc = "The query, e.g. \"ans(x) :- E(x, y), !R(y, y), x != y\"." in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let epsilon_term =
  Arg.(
    value & opt float 0.25
    & info [ "eps"; "epsilon" ] ~docv:"EPS" ~doc:"Accuracy target.")

let delta_term =
  Arg.(value & opt float 0.1 & info [ "delta" ] ~docv:"DELTA" ~doc:"Failure probability.")

(* the wire's range rule: out-of-range ε/δ is a parse error (exit 10)
   before any work is done *)
let check_accuracy ~eps ~delta =
  match (Api.check_accuracy `Eps eps, Api.check_accuracy `Delta delta) with
  | Ok _, Ok _ -> Ok ()
  | Error msg, _ -> Error (Error.Parse { source = "--eps"; msg })
  | _, Error msg -> Error (Error.Parse { source = "--delta"; msg })

let seed_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"RNG seed; omitted, a fresh seed is drawn (logged with --verbose).")

let timeout_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"MS"
        ~doc:"Wall-clock budget in milliseconds (cooperative: loops poll it).")

let max_heap_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-heap-mb" ] ~docv:"MB"
        ~doc:"Live-heap watermark in megabytes (checked via Gc.quick_stat).")

let max_db_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-db-mb" ] ~docv:"MB"
        ~doc:"Refuse database files larger than this (checked before reading).")

let strict_term =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Fail fast with a typed error instead of degrading along the \
              fallback chain when a budget trips (--method auto).")

let verbose_term =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Chatty stderr diagnostics.")

let jobs_term =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for independent trials; 0 (default) picks \
           one per available core, 1 is fully sequential. Estimates \
           are bit-identical for any value — jobs only changes \
           throughput.")

let engine_term =
  (* note: must not be named [conv] — Arg.( ) would shadow it *)
  let engine_conv =
    Arg.enum
      [
        ("tree-dp", Approxcount.Colour_oracle.Tree_dp);
        ("generic", Approxcount.Colour_oracle.Generic);
        ("direct", Approxcount.Colour_oracle.Direct);
      ]
  in
  Arg.(
    value
    & opt engine_conv Approxcount.Colour_oracle.Tree_dp
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Hom engine for the FPTRAS: tree-dp (Theorem 5), generic (Theorem 13) or direct (ablation).")

let method_term =
  (* parses through the shared [Api.method_of_string] codec, so the
     CLI, the wire protocol and the bench harness accept exactly the
     same spellings *)
  let method_conv =
    let parse s =
      match Api.method_of_string s with
      | Some m -> Ok m
      | None -> Error (`Msg (Printf.sprintf "unknown method %S" s))
    in
    let print ppf m = Format.pp_print_string ppf (Api.method_to_string m) in
    Arg.conv ~docv:"METHOD" (parse, print)
  in
  Arg.(
    value & opt method_conv Api.Auto
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:"auto (planner + governed fallback), exact (join+project), fptras (Theorems 5/13; --engine picks the hom engine), fpras (Theorem 16, CQs only), brute.")

(* [--method fptras] (or tree-dp, the default engine) still combines
   with [--engine]: the explicit engine spellings generic/direct win
   over the flag only because they already name one. *)
let resolve_engine method_ engine =
  match method_ with
  | Api.Fptras Approxcount.Colour_oracle.Tree_dp -> Api.Fptras engine
  | m -> m

(* [--db -] is the standard input; everything else is a file path. *)
let load_db ?max_db_mb db_path =
  let max_bytes = Option.map (fun mb -> mb * 1024 * 1024) max_db_mb in
  if db_path = "-" then
    Result.map
      (fun (l : Structure_io.loaded) -> l.Structure_io.db)
      (Structure_io.of_channel_result ?max_bytes stdin)
  else Structure_io.load_result ?max_bytes db_path

let with_input ?max_db_mb query_text db_path f =
  match Ecq.parse_result query_text with
  | Error e -> report e
  | Ok query -> (
      match load_db ?max_db_mb db_path with
      | Error e -> report e
      | Ok db ->
          if not (Ecq.compatible_with query db) then
            report
              (Error.Signature_mismatch
                 "query signature is not contained in the database's")
          else f query db)

(* ---------- tracing (--trace) ---------- *)

let trace_term =
  let doc =
    "Record a span trace of the run (plan, rungs, trials, oracle \
     calls) and write it to $(docv) ($(b,-) for stdout). With \
     --connect the daemon traces the request and the per-span-name \
     summary is written instead of the full span list."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_term =
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:
          "Trace file format: jsonl (one span object per line) or \
           chrome (trace_event JSON for chrome://tracing / Perfetto). \
           Local runs only.")

let write_out ~path text =
  if path = "-" then print_string text
  else
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc text)

let write_trace ~path ~fmt tr =
  write_out ~path
    (match fmt with `Jsonl -> Trace.to_jsonl tr | `Chrome -> Trace.to_chrome tr)

(* ---------- the daemon client (--connect) ---------- *)

let connect_term =
  let doc =
    "Run the request on a resident acqd daemon at $(docv) (unix:PATH, \
     tcp:HOST:PORT, or a bare socket path) instead of in-process."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR" ~doc)

let use_term =
  let doc =
    "With --connect: name a database of the daemon's catalog instead of \
     shipping one with --db."
  in
  Arg.(value & opt (some string) None & info [ "use" ] ~docv:"NAME" ~doc)

(* Resolve how a remote request names its database: a catalog name
   beats an inline copy of the (file or stdin) database text. *)
let remote_db_ref ~use_name ~db_path =
  match (use_name, db_path) with
  | Some name, _ -> Ok (Wire.Named name)
  | None, Some "-" -> (
      match In_channel.input_all stdin with
      | text -> Ok (Wire.Inline text)
      | exception Sys_error msg -> Error (Error.Io { file = "<stdin>"; msg }))
  | None, Some path -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | text -> Ok (Wire.Inline text)
      | exception Sys_error msg -> Error (Error.Io { file = path; msg }))
  | None, None ->
      Error
        (Error.Io
           { file = "<db>"; msg = "--connect needs --use NAME or --db FILE" })

let with_connection addr f =
  match Client.address_of_string addr with
  | Error msg -> report (Error.Io { file = addr; msg })
  | Ok address -> (
      match Client.connect address with
      | Error e -> report e
      | Ok conn ->
          Fun.protect ~finally:(fun () -> Client.close conn) (fun () -> f conn))

let retries_term =
  let doc =
    "With --connect: transport-fault retries (reconnect + resend under \
     capped jittered backoff). Only idempotent requests — service verbs \
     and seeded COUNT/SAMPLE — are ever retried; 0 disables."
  in
  Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N" ~doc)

let deadline_term =
  let doc =
    "With --connect: end-to-end deadline in milliseconds. Carried on the \
     wire so the daemon sheds the request (exit 18) once it cannot be \
     answered in time; also bounds the retry loop."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let tenant_term =
  let doc =
    "With --connect: accounting identity carried on the wire; the daemon \
     bounds each tenant's in-flight requests under --tenant-quota \
     (excess is refused with the typed `overloaded' status)."
  in
  Arg.(value & opt (some string) None & info [ "tenant" ] ~docv:"NAME" ~doc)

(* Remote requests go through the one client surface under a retrying
   policy: reconnects and retries are safe exactly when the request is
   idempotent, which the client enforces. [--retries 0] degenerates to
   the plain single-attempt client. *)
let with_retrying addr ~retries ~deadline_ms f =
  match Client.address_of_string addr with
  | Error msg -> report (Error.Io { file = addr; msg })
  | Ok address ->
      let policy =
        if retries <= 0 then { Retry_policy.none with deadline_ms }
        else
          { Retry_policy.default with attempts = retries + 1; deadline_ms }
      in
      let client = Client.create ~policy address in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () -> f client)

let report_refused ~error_class ~message code =
  Printf.eprintf "acq: error [%s]: %s\n%!" error_class message;
  code

let print_remote_telemetry ~verbose (o : Wire.outcome) =
  if verbose then
    Printf.eprintf
      "acq: seed %d, jobs %d, %d ticks, %.1f ms, cache plan=%s result=%s \
       (replay with --seed %d)\n\
       %!"
      o.Wire.seed o.Wire.jobs o.Wire.ticks o.Wire.elapsed_ms o.Wire.plan_cache
      o.Wire.result_cache o.Wire.seed

(* A finished COUNT, local or remote: the estimate on stdout, then
   [details] (what only one side knows), then — for a degraded answer —
   the rung trail on stderr. Returns the exit code. *)
let print_count ~hex ~details (o : Wire.outcome) =
  if hex then Printf.printf "%h\n" o.Wire.estimate
  else if o.Wire.exact then Printf.printf "%.0f\n" o.Wire.estimate
  else Printf.printf "%.1f\n" o.Wire.estimate;
  details ();
  if o.Wire.degraded then begin
    let failed =
      o.Wire.attempts
      |> List.map (fun (a : Wire.attempt) ->
             Printf.sprintf "%s (%s)" a.Wire.rung a.Wire.error_message)
      |> String.concat "; "
    in
    Printf.eprintf
      "acq: degraded answer from rung %s — %s; failed rungs: %s\n%!"
      (Option.value o.Wire.rung ~default:"?")
      (if o.Wire.guarantee then "(eps,delta) guarantee holds"
       else "lower bound only, no guarantee")
      failed;
    exit_degraded
  end
  else 0

let remote_count client ~verbose ~hex ?trace_file params =
  match Client.call client (Wire.Count params) with
  | Error e -> report e
  | Ok (Wire.Refused { code; error_class; message }) ->
      report_refused ~error_class ~message code
  | Ok (Wire.Counted o) ->
      print_count ~hex o ~details:(fun () ->
          (match (trace_file, o.Wire.trace) with
          | Some path, Some s ->
              write_out ~path
                (Ac_analysis.Json.to_string_pretty (Wire.trace_summary_json s)
                ^ "\n")
          | Some _, None ->
              (* e.g. a result-cache replay: no work, no spans *)
              Printf.eprintf "acq: no trace in the response\n%!"
          | None, _ -> ());
          print_remote_telemetry ~verbose o)
  | Ok _ -> report (Error.Internal "unexpected response to COUNT")

let remote_sample client ~verbose params ~draws =
  match Client.call client (Wire.Sample { params; draws }) with
  | Error e -> report e
  | Ok (Wire.Refused { code; error_class; message }) ->
      report_refused ~error_class ~message code
  | Ok (Wire.Sampled { samples; seed; jobs; ticks; elapsed_ms; trace = _ }) ->
      Array.iter
        (function
          | None -> print_endline "(no sample)"
          | Some tau ->
              print_endline
                (String.concat " "
                   (Array.to_list (Array.map string_of_int tau))))
        samples;
      if verbose then
        Printf.eprintf "acq: seed %d, jobs %d, %d ticks, %.1f ms\n%!" seed jobs
          ticks elapsed_ms;
      0
  | Ok _ -> report (Error.Internal "unexpected response to SAMPLE")

(* count/sample: [--db] is only required without [--connect --use], so
   the remotable variants take it as an option and check at run time. *)
let db_remotable_term =
  let doc = "Database file (Structure_io format), or - for stdin." in
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc)

let require_db = function
  | Some path -> Ok path
  | None -> Error (Error.Io { file = "<db>"; msg = "--db is required" })

let hex_term =
  let doc =
    "Print the estimate bit-exactly (hexadecimal floating point, OCaml \
     %h) — for comparing replays across processes and restarts."
  in
  Arg.(value & flag & info [ "hex" ] ~doc)

let count_cmd =
  let local query_text db_path ~method_ ~eps ~delta ~seed ~jobs ~timeout_ms
      ~max_heap_mb ~max_db_mb ~strict ~verbose ~hex ~trace_file ~trace_fmt =
    with_input ?max_db_mb query_text db_path (fun query db ->
        let budget = make_budget ~timeout_ms ~max_heap_mb in
        let tracer = Option.map (fun _ -> Trace.create ()) trace_file in
        let r =
          Api.Request.make query db
          |> Api.Request.with_eps eps
          |> Api.Request.with_delta delta
          |> Api.Request.with_method method_
          |> Api.Request.with_seed seed
          |> Api.Request.with_jobs jobs
          |> Api.Request.with_budget budget
          |> Api.Request.with_strict strict
          |> Api.Request.with_verbose verbose
          |> Api.Request.with_trace tracer
        in
        let outcome = Api.run r in
        (* the trace is written even when the run failed — the spans up
           to the failure are exactly what one wants to look at then *)
        (match (trace_file, tracer) with
        | Some path, Some tr -> write_trace ~path ~fmt:trace_fmt tr
        | _ -> ());
        match outcome with
        | Error e -> report e
        | Ok resp ->
            let o =
              Wire.outcome_of_response ~plan_cache:"bypass"
                ~result_cache:"bypass" resp
            in
            let code =
              print_count ~hex o ~details:(fun () ->
                  if resp.Api.rung <> None then
                    Printf.eprintf "plan: %s\n%!"
                      (Ac_analysis.Classification.describe
                         (Ac_analysis.Report.classification_exn resp.Api.report));
                  if verbose then
                    Printf.eprintf
                      "acq: seed %d, jobs %d, %d ticks, %.1f ms (replay with --seed %d --jobs %d)\n%!"
                      o.Wire.seed o.Wire.jobs o.Wire.ticks o.Wire.elapsed_ms
                      o.Wire.seed o.Wire.jobs)
            in
            (match (code, verbose, o.Wire.rung) with
            | 0, true, Some rung ->
                Printf.eprintf "acq: rung %s, guarantee %b\n%!" rung
                  o.Wire.guarantee
            | _ -> ());
            code)
  in
  let run query_text db_path connect use_name method_ engine eps delta seed
      jobs timeout_ms deadline_ms retries tenant max_heap_mb max_db_mb strict
      verbose hex trace_file trace_fmt =
    let method_ = resolve_engine method_ engine in
    let jobs = if jobs <= 0 then None else Some jobs in
    match check_accuracy ~eps ~delta with
    | Error e -> report e
    | Ok () -> (
    match connect with
    | Some addr -> (
        match remote_db_ref ~use_name ~db_path with
        | Error e -> report e
        | Ok db ->
            let params =
              Wire.params ~eps ~delta ~method_ ?seed ?jobs ?timeout_ms
                ?deadline_ms ?max_heap_mb ?tenant ~strict
                ~trace:(trace_file <> None) ~db query_text
            in
            with_retrying addr ~retries ~deadline_ms (fun client ->
                remote_count client ~verbose ~hex ?trace_file params))
    | None -> (
        match require_db db_path with
        | Error e -> report e
        | Ok db_path ->
            local query_text db_path ~method_ ~eps ~delta ~seed ~jobs
              ~timeout_ms ~max_heap_mb ~max_db_mb ~strict ~verbose ~hex
              ~trace_file ~trace_fmt))
  in
  let doc = "Count the answers of a query in a database." in
  Cmd.v (Cmd.info "count" ~doc)
    Term.(
      const run $ query_term $ db_remotable_term $ connect_term $ use_term
      $ method_term $ engine_term $ epsilon_term $ delta_term $ seed_term
      $ jobs_term $ timeout_term $ deadline_term $ retries_term $ tenant_term
      $ max_heap_term $ max_db_term $ strict_term $ verbose_term $ hex_term
      $ trace_term $ trace_format_term)

let sample_cmd =
  let draws_term =
    Arg.(value & opt int 1 & info [ "draws" ] ~docv:"N" ~doc:"Number of samples.")
  in
  let local query_text db_path ~engine ~eps ~delta ~seed ~jobs ~draws
      ~timeout_ms ~max_heap_mb ~max_db_mb ~verbose =
    with_input ?max_db_mb query_text db_path (fun query db ->
        let budget = make_budget ~timeout_ms ~max_heap_mb in
        let r =
          Api.Request.make query db
          |> Api.Request.with_eps eps
          |> Api.Request.with_delta delta
          |> Api.Request.with_method (Api.Fptras engine)
          |> Api.Request.with_seed seed
          |> Api.Request.with_jobs jobs
          |> Api.Request.with_budget budget
          |> Api.Request.with_verbose verbose
        in
        match Api.sample ~draws r with
        | Error e -> report e
        | Ok s ->
            Array.iter
              (function
                | None -> print_endline "(no sample)"
                | Some tau ->
                    print_endline
                      (String.concat " "
                         (Array.to_list (Array.map string_of_int tau))))
              s.Api.draws;
            let t = s.Api.telemetry in
            if verbose then
              Printf.eprintf
                "acq: seed %d, jobs %d, %d ticks, %.1f ms (replay with --seed %d --jobs %d)\n%!"
                t.Api.seed t.Api.jobs t.Api.ticks t.Api.elapsed_ms t.Api.seed
                t.Api.jobs;
            if s.Api.degraded then begin
              Printf.eprintf
                "acq: some draws failed (the JVV walk could not pin an answer)\n%!";
              exit_degraded
            end
            else 0)
  in
  let run query_text db_path connect use_name engine eps delta seed jobs draws
      timeout_ms deadline_ms retries tenant max_heap_mb max_db_mb verbose =
    let jobs = if jobs <= 0 then None else Some jobs in
    match check_accuracy ~eps ~delta with
    | Error e -> report e
    | Ok () -> (
    match connect with
    | Some addr -> (
        match remote_db_ref ~use_name ~db_path with
        | Error e -> report e
        | Ok db ->
            let params =
              Wire.params ~eps ~delta ~method_:(Api.Fptras engine) ?seed ?jobs
                ?timeout_ms ?deadline_ms ?max_heap_mb ?tenant ~db query_text
            in
            with_retrying addr ~retries ~deadline_ms (fun client ->
                remote_sample client ~verbose params ~draws))
    | None -> (
        match require_db db_path with
        | Error e -> report e
        | Ok db_path ->
            local query_text db_path ~engine ~eps ~delta ~seed ~jobs ~draws
              ~timeout_ms ~max_heap_mb ~max_db_mb ~verbose))
  in
  let doc = "Draw approximately-uniform answers (§6 JVV sampling)." in
  Cmd.v (Cmd.info "sample" ~doc)
    Term.(
      const run $ query_term $ db_remotable_term $ connect_term $ use_term
      $ engine_term $ epsilon_term $ delta_term $ seed_term $ jobs_term
      $ draws_term $ timeout_term $ deadline_term $ retries_term $ tenant_term
      $ max_heap_term $ max_db_term $ verbose_term)

let widths_cmd =
  let run query_text =
    match Ecq.parse_result query_text with
    | Error e -> report e
    | Ok query ->
        let h = Ecq.hypergraph query in
        let small = Ac_hypergraph.Hypergraph.num_vertices h <= 14 in
        let tw =
          if small then fst (Ac_hypergraph.Tree_decomposition.treewidth_exact h)
          else
            Ac_hypergraph.Tree_decomposition.width
              (Ac_hypergraph.Tree_decomposition.decompose h)
        in
        let fhw =
          if small then fst (Ac_hypergraph.Widths.fhw_exact h)
          else Ac_hypergraph.Widths.fhw_upper h
        in
        Printf.printf "variables:            %d (%d free)\n" (Ecq.num_vars query)
          (Ecq.num_free query);
        Printf.printf "size ‖φ‖:             %d\n" (Ecq.size query);
        Printf.printf "class:                %s\n"
          (if Ecq.is_cq query then "CQ"
           else if Ecq.is_dcq query then "DCQ"
           else "ECQ");
        Printf.printf "treewidth:            %d%s\n" tw (if small then "" else " (upper bound)");
        Printf.printf "fractional htw:       %.2f%s\n" fhw
          (if small then "" else " (upper bound)");
        Printf.printf "guarantee:            %s\n"
          (if Ecq.is_cq query then "FPRAS (Theorem 16, bounded fhw)"
           else if Ecq.is_dcq query then
             "FPTRAS (Theorem 13, bounded adaptive width); no FPRAS (Obs. 10)"
           else "FPTRAS (Theorem 5, bounded tw & arity); no FPRAS (Obs. 10)");
        0
  in
  let doc = "Width measures and the paper's guarantee for a query." in
  Cmd.v (Cmd.info "widths" ~doc) Term.(const run $ query_term)

(* ---------- lint & explain ---------- *)

let db_opt_term =
  let doc =
    "Optional database file (or - for stdin): enables the database-aware \
     checks (QL006 signature mismatch, QL010 empty relation, QL012 output \
     blow-up)."
  in
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc)

let json_term =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the report as JSON (stable schema, see docs/analysis.md).")

(* Load the optional database, hand the (possibly absent) structure to
   [f]; Io/parse failures use the typed exit codes like every other
   subcommand. *)
let with_optional_db ?max_db_mb db_path f =
  match db_path with
  | None -> f None
  | Some path -> (
      match load_db ?max_db_mb path with
      | Error e -> report e
      | Ok db -> f (Some db))

let lint_cmd =
  let run query_text db_path max_db_mb json =
    with_optional_db ?max_db_mb db_path (fun db ->
        let report_ = Ac_analysis.Report.analyze_text ?db query_text in
        if json then
          print_endline
            (Ac_analysis.Json.to_string_pretty
               (Ac_analysis.Report.to_json report_))
        else Format.printf "%a%!" Ac_analysis.Report.pp report_;
        Ac_analysis.Report.exit_status report_)
  in
  let doc =
    "Statically analyse a query: stable-coded diagnostics (QL000-QL012) \
     plus the Figure 1 classification. Exit 0 when free of errors, 1 \
     otherwise."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ query_term $ db_opt_term $ max_db_term $ json_term)

let explain_cmd =
  let cost_term =
    Arg.(
      value & flag
      & info [ "cost" ]
          ~doc:
            "Also print the static cost analysis: the stats-instantiated \
             fractional-edge-cover output bound and the costed rung \
             alternatives. Uses the catalog statistics of $(b,--db) when \
             given, nominal statistics otherwise.")
  in
  let run query_text db_path max_db_mb cost json =
    with_optional_db ?max_db_mb db_path (fun db ->
        let report_ = Ac_analysis.Report.analyze_text ?db query_text in
        match report_.Ac_analysis.Report.classification with
        | None ->
            (* parse failed: surface the diagnostics and fail like lint *)
            Format.printf "%a%!" Ac_analysis.Report.pp report_;
            Ac_analysis.Report.exit_status report_
        | Some c ->
            let q = Option.get report_.Ac_analysis.Report.query in
            let cost_analysis =
              if not cost then None
              else
                match report_.Ac_analysis.Report.cost with
                | Some _ as some -> some  (* instantiated from --db *)
                | None ->
                    Some
                      (Ac_analysis.Cost.analyze
                         ~stats:(Ac_analysis.Cardinality.nominal
                                   (Ecq.signature q))
                         q c)
            in
            if json then
              let cjson = Ac_analysis.Classification.to_json c in
              print_endline
                (Ac_analysis.Json.to_string_pretty
                   (match cost_analysis with
                   | None -> cjson
                   | Some cost ->
                       Ac_analysis.Json.Obj
                         [
                           ("classification", cjson);
                           ("cost", Ac_analysis.Cost.to_json cost);
                         ]))
            else begin
              Format.printf "%a"
                (Ac_analysis.Classification.pp ~var_name:(Ecq.var_name q))
                c;
              Format.printf "plan:         %s@."
                (Ac_analysis.Classification.describe c);
              match cost_analysis with
              | None -> ()
              | Some cost -> Format.printf "%a" Ac_analysis.Cost.pp cost
            end;
            0)
  in
  let doc =
    "Explain the planner's decision for a query: the Figure 1 \
     classification with its structural witnesses, and the plan it \
     induces. With $(b,--cost), also the instantiated output bound and \
     the costed rung ladder."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ query_term $ db_opt_term $ max_db_term $ cost_term
      $ json_term)

let generate_cmd =
  let kind_term =
    Arg.(
      value
      & opt (enum [ ("friends", `Friends); ("graph", `Graph); ("relation", `Relation) ]) `Friends
      & info [ "kind" ] ~docv:"KIND" ~doc:"friends | graph | relation.")
  in
  let size_term =
    Arg.(value & opt int 50 & info [ "size" ] ~docv:"N" ~doc:"Universe size.")
  in
  let out_term =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Output file ($(b,-) for stdout, for piping into --db -).")
  in
  let run kind size out seed =
    guarded (fun () ->
        let rng = Random.State.make [| Option.value seed ~default:42 |] in
        let db =
          match kind with
          | `Friends -> Ac_workload.Dbgen.friends_database ~rng ~n:size ~avg_degree:6.0
          | `Graph ->
              Ac_workload.Graph.to_structure
                (Ac_workload.Graph.random_gnp ~rng size 0.3)
          | `Relation ->
              Ac_workload.Dbgen.random_structure ~rng ~universe_size:size
                [ ("R", 2, 4 * size) ]
        in
        if out = "-" then print_string (Structure_io.to_string db)
        else Structure_io.save out db;
        (* status goes to stderr so `--out -` / `--out /dev/stdout`
           leave a clean database stream on stdout *)
        Printf.eprintf "wrote %s (universe %d, ‖D‖ = %d)\n"
          (if out = "-" then "<stdout>" else out)
          (Structure.universe_size db) (Structure.size db);
        0)
  in
  let doc = "Generate a random database file." in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(const run $ kind_term $ size_term $ out_term $ seed_term)

(* ---------- daemon service verbs ---------- *)

let connect_req_term =
  let doc = "The acqd daemon's address (unix:PATH, tcp:HOST:PORT or a \
             bare socket path)."
  in
  Arg.(
    required
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR" ~doc)

let ping_cmd =
  let run addr =
    with_connection addr (fun conn ->
        match Client.call conn Wire.Ping with
        | Error e -> report e
        | Ok Wire.Pong ->
            print_endline "pong";
            0
        | Ok (Wire.Refused { code; error_class; message }) ->
            report_refused ~error_class ~message code
        | Ok _ -> report (Error.Internal "unexpected response to PING"))
  in
  let doc = "Check that an acqd daemon answers." in
  Cmd.v (Cmd.info "ping" ~doc) Term.(const run $ connect_req_term)

let health_cmd =
  let run addr =
    with_connection addr (fun conn ->
        match Client.call conn Wire.Health with
        | Error e -> report e
        | Ok (Wire.Health_reply h) ->
            print_endline
              (Ac_analysis.Json.to_string_pretty
                 (Ac_analysis.Json.Obj
                    [
                      ("ready", Ac_analysis.Json.Bool h.Wire.ready);
                      ("live", Ac_analysis.Json.Bool h.Wire.live);
                      ("draining", Ac_analysis.Json.Bool h.Wire.draining);
                      ("in_flight", Ac_analysis.Json.Int h.Wire.in_flight);
                      ( "queue_capacity",
                        Ac_analysis.Json.Int h.Wire.queue_capacity );
                      ( "catalog_entries",
                        Ac_analysis.Json.Int h.Wire.catalog_entries );
                      ("recovered", Ac_analysis.Json.Bool h.Wire.recovered);
                      ("uptime_ms", Ac_analysis.Json.Float h.Wire.uptime_ms);
                    ]));
            (* probe semantics: exit 0 iff the daemon would serve a
               request arriving now — scriptable as a readiness gate *)
            if h.Wire.ready && h.Wire.live then 0 else 1
        | Ok (Wire.Refused { code; error_class; message }) ->
            report_refused ~error_class ~message code
        | Ok _ -> report (Error.Internal "unexpected response to HEALTH"))
  in
  let doc =
    "Probe an acqd daemon's health: readiness/liveness, queue depth, \
     catalog size and the crash-recovery flag. Exit 0 when ready."
  in
  Cmd.v (Cmd.info "health" ~doc) Term.(const run $ connect_req_term)

let stats_cmd =
  let metrics_term =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Fetch the daemon's metrics registry (the METRICS verb: \
             counters, gauges, latency histograms) instead of the \
             stats document.")
  in
  let prometheus_term =
    Arg.(
      value & flag
      & info [ "prometheus" ]
          ~doc:
            "With --metrics: print the Prometheus text exposition \
             instead of JSON.")
  in
  let run addr metrics prometheus =
    with_connection addr (fun conn ->
        if metrics then begin
          let format =
            if prometheus then Wire.Metrics_prometheus else Wire.Metrics_json
          in
          match Client.call conn (Wire.Metrics_req { format }) with
          | Error e -> report e
          | Ok (Wire.Metrics_reply { payload = Ac_analysis.Json.String s; _ })
            ->
              print_string s;
              0
          | Ok (Wire.Metrics_reply { payload; _ }) ->
              print_endline (Ac_analysis.Json.to_string_pretty payload);
              0
          | Ok (Wire.Refused { code; error_class; message }) ->
              report_refused ~error_class ~message code
          | Ok _ -> report (Error.Internal "unexpected response to METRICS")
        end
        else
          match Client.call conn Wire.Stats with
          | Error e -> report e
          | Ok (Wire.Stats_reply j) ->
              print_endline (Ac_analysis.Json.to_string_pretty j);
              0
          | Ok (Wire.Refused { code; error_class; message }) ->
              report_refused ~error_class ~message code
          | Ok _ -> report (Error.Internal "unexpected response to STATS"))
  in
  let doc =
    "Print an acqd daemon's statistics (uptime, per-verb counters, \
     catalog, cache hit/miss/eviction counts, scheduler load) as JSON, \
     or with --metrics the process-wide metrics registry."
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(const run $ connect_req_term $ metrics_term $ prometheus_term)

(* ---------- mutation verbs: INSERT / DELETE / LOAD_BATCH ---------- *)

let use_req_term =
  let doc =
    "The catalog database to mutate (mutations always target a named \
     database; inline databases are per-request)."
  in
  Arg.(required & opt (some string) None & info [ "use" ] ~docv:"NAME" ~doc)

let rel_req_term =
  let doc = "The relation the tuples belong to." in
  Arg.(required & opt (some string) None & info [ "rel" ] ~docv:"NAME" ~doc)

let batch_id_term =
  let doc =
    "Idempotency key: the daemon applies each batch id at most once and \
     answers a retry with the stored result (replayed=true). Omitted, a \
     fresh unique id is generated, so transport-level retries are still \
     exactly-once."
  in
  Arg.(value & opt (some string) None & info [ "batch-id" ] ~docv:"ID" ~doc)

let tuples_pos_term =
  let doc = "Tuples as comma-separated components, e.g. 1,2 7,9." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"TUPLE" ~doc)

let parse_tuple spec =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | part :: rest -> (
        match int_of_string_opt (String.trim part) with
        | Some v -> go (v :: acc) rest
        | None ->
            Error
              (Error.Parse
                 {
                   source = "<tuple>";
                   msg =
                     Printf.sprintf "%S: expected comma-separated integers"
                       spec;
                 }))
  in
  go [] (String.split_on_char ',' spec)

let parse_tuples specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match parse_tuple s with
        | Ok t -> go (t :: acc) rest
        | Error _ as e -> e)
  in
  go [] specs

(* A fresh idempotency key per invocation: pid + wall clock + payload,
   digested. Deliberately no RNG — a collision could only happen by
   replaying the identical payload, which is exactly what the key is
   for. *)
let fresh_batch_id payload =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%.9f|%s" (Unix.getpid ()) (Unix.gettimeofday ())
          payload))

let print_mutated ~name ~db_version ~fingerprint ~inserted ~deleted ~replayed =
  print_endline
    (Ac_analysis.Json.to_string_pretty
       (Ac_analysis.Json.Obj
          [
            ("name", Ac_analysis.Json.String name);
            ("version", Ac_analysis.Json.Int db_version);
            ("fingerprint", Ac_analysis.Json.String fingerprint);
            ("inserted", Ac_analysis.Json.Int inserted);
            ("deleted", Ac_analysis.Json.Int deleted);
            ("replayed", Ac_analysis.Json.Bool replayed);
          ]));
  0

(* Mutations ride the durable client: with a batch id they are
   idempotent on the wire, so reconnect + resend is safe and the
   daemon's dedupe table turns a double delivery into a replay. *)
let run_mutation addr ~retries ~deadline_ms ~verb req =
  with_retrying addr ~retries ~deadline_ms (fun client ->
      match Client.call client req with
      | Error e -> report e
      | Ok
          (Wire.Mutated
             { name; db_version; fingerprint; inserted; deleted; replayed }) ->
          print_mutated ~name ~db_version ~fingerprint ~inserted ~deleted
            ~replayed
      | Ok (Wire.Refused { code; error_class; message }) ->
          report_refused ~error_class ~message code
      | Ok _ -> report (Error.Internal ("unexpected response to " ^ verb)))

let insert_cmd =
  let run addr use rel specs batch_id retries deadline_ms =
    match parse_tuples specs with
    | Error e -> report e
    | Ok tuples ->
        let batch_id =
          Some
            (Option.value batch_id
               ~default:
                 (fresh_batch_id
                    (String.concat "|" ("insert" :: use :: rel :: specs))))
        in
        run_mutation addr ~retries ~deadline_ms ~verb:"INSERT"
          (Wire.Insert { db = Wire.Named use; rel; tuples; batch_id })
  in
  let doc =
    "Insert tuples into a relation of a daemon's live database. The \
     batch applies atomically under one version bump; the reply carries \
     the new version and rolling fingerprint."
  in
  Cmd.v (Cmd.info "insert" ~doc)
    Term.(
      const run $ connect_req_term $ use_req_term $ rel_req_term
      $ tuples_pos_term $ batch_id_term $ retries_term $ deadline_term)

let delete_cmd =
  let run addr use rel specs batch_id retries deadline_ms =
    match parse_tuples specs with
    | Error e -> report e
    | Ok tuples ->
        let batch_id =
          Some
            (Option.value batch_id
               ~default:
                 (fresh_batch_id
                    (String.concat "|" ("delete" :: use :: rel :: specs))))
        in
        run_mutation addr ~retries ~deadline_ms ~verb:"DELETE"
          (Wire.Delete { db = Wire.Named use; rel; tuples; batch_id })
  in
  let doc =
    "Delete tuples from a relation of a daemon's live database \
     (tombstones until the next merge; deleting an absent tuple is a \
     no-op counted as 0)."
  in
  Cmd.v (Cmd.info "delete" ~doc)
    Term.(
      const run $ connect_req_term $ use_req_term $ rel_req_term
      $ tuples_pos_term $ batch_id_term $ retries_term $ deadline_term)

let parse_op_line ~file lineno line =
  let open Ac_analysis.Json in
  match parse line with
  | Error e ->
      Error
        (Error.Parse
           {
             source = file;
             msg = Printf.sprintf "line %d: %s" lineno (error_message e);
           })
  | Ok j -> (
      match Ac_analysis.Codec.of_json Ac_live.Journal.op "op" j with
      | Ok op -> Ok op
      | Error _ ->
          Error
            (Error.Parse
               {
                 source = file;
                 msg =
                   Printf.sprintf
                     "line %d: expected \
                      {\"op\":\"insert\"|\"delete\",\"rel\":NAME,\"tuple\":[INT,...]}"
                     lineno;
               }))

let load_batch_cmd =
  let file_term =
    let doc =
      "Operations as newline-delimited JSON, one \
       {\"op\":\"insert\"|\"delete\",\"rel\":NAME,\"tuple\":[INT,...]} \
       per line ($(b,-) for stdin). The whole batch applies atomically: \
       one version bump, or a typed refusal and no change."
    in
    Arg.(
      required & opt (some string) None & info [ "file" ] ~docv:"FILE" ~doc)
  in
  let run addr use file batch_id retries deadline_ms =
    let text_r =
      if file = "-" then
        match In_channel.input_all stdin with
        | text -> Ok text
        | exception Sys_error msg -> Error (Error.Io { file = "<stdin>"; msg })
      else
        match In_channel.with_open_bin file In_channel.input_all with
        | text -> Ok text
        | exception Sys_error msg -> Error (Error.Io { file; msg })
    in
    match text_r with
    | Error e -> report e
    | Ok text -> (
        let numbered =
          String.split_on_char '\n' text
          |> List.mapi (fun i l -> (i + 1, l))
          |> List.filter (fun (_, l) -> String.trim l <> "")
        in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (n, l) :: rest -> (
              match parse_op_line ~file n l with
              | Ok op -> go (op :: acc) rest
              | Error _ as e -> e)
        in
        match go [] numbered with
        | Error e -> report e
        | Ok [] ->
            report
              (Error.Parse { source = file; msg = "no operations in the batch" })
        | Ok ops ->
            let batch_id =
              Some
                (Option.value batch_id
                   ~default:
                     (fresh_batch_id
                        (String.concat "|" [ "load_batch"; use; text ])))
            in
            run_mutation addr ~retries ~deadline_ms ~verb:"LOAD_BATCH"
              (Wire.Load_batch { db = Wire.Named use; ops; batch_id }))
  in
  let doc =
    "Stream a mixed batch of inserts and deletes into a daemon's live \
     database from a newline-JSON file. Atomic, idempotent under \
     --batch-id, journaled before the reply."
  in
  Cmd.v (Cmd.info "load-batch" ~doc)
    Term.(
      const run $ connect_req_term $ use_req_term $ file_term $ batch_id_term
      $ retries_term $ deadline_term)

let () =
  let doc = "approximately counting answers to conjunctive queries" in
  let info = Cmd.info "acq" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ count_cmd; sample_cmd; widths_cmd; lint_cmd; explain_cmd;
            generate_cmd; ping_cmd; health_cmd; stats_cmd; insert_cmd;
            delete_cmd; load_batch_cmd ]))
