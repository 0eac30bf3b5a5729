(* The observability layer (lib/obs) and its surfaces.

   The two load-bearing contracts:

   1. Bit-transparency — tracing and metrics never touch an RNG or the
      control flow of an estimator, so traced and untraced runs of a
      seeded request produce bit-identical estimates at any jobs count.
   2. Stability — metric names, histogram bucket bounds and the
      Prometheus exposition are a documented contract
      (docs/observability.md); the goldens here pin them. *)

module Trace = Ac_obs.Trace
module Metrics = Ac_obs.Metrics
module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Api = Approxcount.Api
module Colour_oracle = Approxcount.Colour_oracle
module Ecq = Ac_query.Ecq
module Graph = Ac_workload.Graph
module Json = Ac_analysis.Json
module Wire = Ac_server.Wire
module Server = Ac_server.Server
module Catalog = Ac_server.Catalog

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let cq = Ecq.parse "ans(x, y) :- E(x, y), E(y, z)"
let diseq = Ecq.parse "ans(x, y) :- E(x, y), x != y"

let graph_db ~seed n p =
  Graph.to_structure (Graph.random_gnp ~rng:(Random.State.make [| seed |]) n p)

(* ------------------------------------------------------------------ *)
(* Bit-transparency: tracing off vs on, jobs 1 and 4                  *)

let run_count ?trace ~method_ ~jobs q db =
  match
    Api.run
      Api.Request.(
        make q db |> with_eps 0.5 |> with_delta 0.25 |> with_method method_
        |> with_seed (Some 2026) |> with_jobs (Some jobs) |> with_trace trace)
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "count failed: %s" (Error.message e)

let test_trace_bit_transparent () =
  let db = graph_db ~seed:8 16 0.3 in
  List.iter
    (fun (name, method_, q) ->
      List.iter
        (fun jobs ->
          let plain = run_count ~method_ ~jobs q db in
          let tr = Trace.create () in
          let traced = run_count ~trace:tr ~method_ ~jobs q db in
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs=%d bits identical" name jobs)
            true
            (Int64.bits_of_float plain.Api.estimate
            = Int64.bits_of_float traced.Api.estimate);
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs=%d recorded spans" name jobs)
            true
            (Trace.span_count tr > 0);
          match traced.Api.telemetry.Api.trace with
          | None -> Alcotest.fail "traced run lost its summary"
          | Some s ->
              Alcotest.(check int)
                (Printf.sprintf "%s jobs=%d summary spans" name jobs)
                (Trace.span_count tr) s.Trace.spans)
        [ 1; 4 ])
    [
      ("auto", Api.Auto, diseq);
      ("fptras", Api.Fptras Colour_oracle.Tree_dp, diseq);
      ("fpras", Api.Fpras, cq);
    ]

let test_sample_trace_bit_transparent () =
  let db = graph_db ~seed:3 12 0.4 in
  let draw ?trace jobs =
    match
      Api.sample ~draws:4
        Api.Request.(
          make diseq db |> with_eps 0.5 |> with_delta 0.3
          |> with_method (Api.Fptras Colour_oracle.Tree_dp)
          |> with_seed (Some 77) |> with_jobs (Some jobs) |> with_trace trace)
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "sample error: %s" (Error.message e)
  in
  List.iter
    (fun jobs ->
      let plain = draw jobs in
      let traced = draw ~trace:(Trace.create ()) jobs in
      Alcotest.(check bool)
        (Printf.sprintf "draws identical jobs=%d" jobs)
        true
        (plain.Api.draws = traced.Api.draws);
      Alcotest.(check bool) "sample summary present" true
        (traced.Api.telemetry.Api.trace <> None))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Span-tree well-formedness                                          *)

let test_span_tree_well_formed () =
  let db = graph_db ~seed:8 16 0.3 in
  let tr = Trace.create () in
  ignore (run_count ~trace:tr ~method_:Api.Auto ~jobs:4 diseq db);
  let records = Trace.records tr in
  Alcotest.(check bool) "nonempty" true (records <> []);
  let by_id = Hashtbl.create 64 in
  List.iter (fun (r : Trace.record) -> Hashtbl.replace by_id r.Trace.id r) records;
  List.iter
    (fun (r : Trace.record) ->
      Alcotest.(check bool)
        (Printf.sprintf "span %d interval ordered" r.Trace.id)
        true
        (r.Trace.stop_ms >= r.Trace.start_ms);
      if r.Trace.parent <> -1 then begin
        match Hashtbl.find_opt by_id r.Trace.parent with
        | None -> Alcotest.failf "span %d has unknown parent" r.Trace.id
        | Some (p : Trace.record) ->
            Alcotest.(check bool)
              (Printf.sprintf "span %d created after parent" r.Trace.id)
              true (p.Trace.id < r.Trace.id);
            Alcotest.(check bool)
              (Printf.sprintf "span %d inside parent interval" r.Trace.id)
              true
              (r.Trace.start_ms >= p.Trace.start_ms
              && r.Trace.stop_ms <= p.Trace.stop_ms)
      end)
    records;
  let names = List.map (fun (r : Trace.record) -> r.Trace.name) records in
  Alcotest.(check bool) "root api:count present" true
    (List.mem "api:count" names);
  Alcotest.(check bool) "analyze present" true (List.mem "analyze" names);
  Alcotest.(check bool) "a rung span present" true
    (List.exists
       (fun n -> String.length n > 5 && String.sub n 0 5 = "rung:")
       names)

let test_summary_tick_attribution () =
  let db = graph_db ~seed:8 16 0.3 in
  let tr = Trace.create () in
  let resp = run_count ~trace:tr ~method_:Api.Auto ~jobs:1 diseq db in
  let s = Trace.summary tr in
  Alcotest.(check int) "summary counts every span" (Trace.span_count tr)
    (List.fold_left (fun acc a -> acc + a.Trace.count) 0 s.Trace.aggs);
  let root =
    List.find (fun a -> a.Trace.agg_name = "api:count") s.Trace.aggs
  in
  (* the root is stopped with the final budget tick count: whole-run
     attribution *)
  Alcotest.(check int) "root carries the run's ticks"
    resp.Api.telemetry.Api.ticks root.Trace.agg_ticks;
  let sorted = List.map (fun a -> a.Trace.agg_name) s.Trace.aggs in
  Alcotest.(check bool) "aggs sorted by name" true
    (sorted = List.sort compare sorted)

let test_trace_exports () =
  let tr = Trace.create () in
  let root = Trace.root tr "outer" ~tags:[ ("k", "v") ] in
  let child = Trace.child (Some root) "inner" in
  Trace.stop ~ticks:3 child;
  Trace.stop (Some root);
  let jsonl = Trace.to_jsonl tr in
  let lines = String.split_on_char '\n' (String.trim jsonl) in
  Alcotest.(check int) "one jsonl line per span" (Trace.span_count tr)
    (List.length lines);
  let chrome = Trace.to_chrome tr in
  Alcotest.(check bool) "chrome export wraps traceEvents" true
    (String.length chrome > 0
    && chrome.[0] = '{'
    && contains ~needle:"\"traceEvents\"" chrome);
  Alcotest.(check bool) "chrome uses complete events" true
    (contains ~needle:"\"ph\"" chrome)

let test_trace_capacity_bound () =
  let tr = Trace.create ~max_spans:4 () in
  let root = Trace.root tr "r" in
  for _ = 1 to 10 do
    Trace.stop (Trace.child (Some root) "c")
  done;
  Trace.stop (Some root);
  Alcotest.(check int) "capacity respected" 4 (Trace.span_count tr);
  Alcotest.(check int) "overflow counted" 7 (Trace.dropped tr)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                   *)

let test_metrics_identity_and_label_order () =
  let reg = Metrics.create () in
  let a = Metrics.counter reg "c" ~labels:[ ("x", "1"); ("y", "2") ] in
  let b = Metrics.counter reg "c" ~labels:[ ("y", "2"); ("x", "1") ] in
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "label order is normalised away" 2
    (Metrics.counter_value a);
  let other = Metrics.counter reg "c" ~labels:[ ("x", "9"); ("y", "2") ] in
  Alcotest.(check int) "distinct labels, distinct series" 0
    (Metrics.counter_value other);
  (* same (name, labels) series under a different kind is a bug *)
  match Metrics.gauge reg "c" ~labels:[ ("x", "1"); ("y", "2") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise"

let test_metrics_kill_switch () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  let h = Metrics.histogram reg "h" in
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      Metrics.set_enabled false;
      Alcotest.(check bool) "switch reads back" false (Metrics.enabled ());
      Metrics.incr c;
      Metrics.add c 10;
      Metrics.observe h 1.0);
  Alcotest.(check int) "disabled counter froze" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "re-enabled counter moves" 1 (Metrics.counter_value c);
  match List.find (fun m -> m.Metrics.metric_name = "h") (Metrics.snapshot reg) with
  | { Metrics.value = Metrics.Histogram hv; _ } ->
      Alcotest.(check int) "disabled histogram froze" 0 hv.Metrics.count
  | _ -> Alcotest.fail "histogram missing from snapshot"

(* the reference bucketing rule: smallest bound >= x, +Inf past the end *)
let expected_bucket x =
  let n = Array.length Metrics.bucket_bounds in
  let rec go i =
    if i >= n then n
    else if x <= Metrics.bucket_bounds.(i) then i
    else go (i + 1)
  in
  go 0

let prop_histogram_invariants =
  QCheck2.Test.make ~count:200 ~name:"histogram buckets partition the line"
    QCheck2.Gen.(list_size (int_range 0 60) (float_range (-2.0) 3e6))
    (fun xs ->
      let reg = Metrics.create () in
      let h = Metrics.histogram reg "h" in
      List.iter (Metrics.observe h) xs;
      match Metrics.snapshot reg with
      | [ { Metrics.value = Metrics.Histogram hv; _ } ] ->
          let n = Array.length Metrics.bucket_bounds in
          let expected = Array.make (n + 1) 0 in
          List.iter
            (fun x ->
              let i = expected_bucket x in
              expected.(i) <- expected.(i) + 1)
            xs;
          hv.Metrics.counts = expected
          && hv.Metrics.count = List.length xs
          && Array.fold_left ( + ) 0 hv.Metrics.counts = List.length xs
          && Float.abs (hv.Metrics.sum -. List.fold_left ( +. ) 0.0 xs)
             <= 1e-6 *. Float.max 1.0 (Float.abs hv.Metrics.sum)
      | _ -> false)

let test_bucket_bounds_contract () =
  let b = Metrics.bucket_bounds in
  Alcotest.(check int) "31 bounds (2^-10 .. 2^20)" 31 (Array.length b);
  Alcotest.(check (float 0.0)) "first bound" (1.0 /. 1024.0) b.(0);
  Alcotest.(check (float 0.0)) "last bound" 1048576.0 b.(Array.length b - 1);
  for i = 1 to Array.length b - 1 do
    Alcotest.(check bool) "strictly increasing" true (b.(i) > b.(i - 1))
  done

(* ------------------------------------------------------------------ *)
(* Prometheus exposition golden                                       *)

let test_prometheus_golden () =
  let reg = Metrics.create () in
  let c =
    Metrics.counter reg "acq_demo_total" ~help:"Demo requests"
      ~labels:[ ("verb", "count") ]
  in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.incr c;
  Metrics.set (Metrics.gauge reg "acq_demo_depth" ~help:"Demo depth") 7;
  Alcotest.(check string) "exposition is stable"
    "# HELP acq_demo_depth Demo depth\n\
     # TYPE acq_demo_depth gauge\n\
     acq_demo_depth 7\n\
     # HELP acq_demo_total Demo requests\n\
     # TYPE acq_demo_total counter\n\
     acq_demo_total{verb=\"count\"} 3\n"
    (Metrics.to_prometheus reg)

let test_prometheus_histogram_lines () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "acq_demo_ms" in
  Metrics.observe h 0.5;
  Metrics.observe h 3.0;
  let text = Metrics.to_prometheus reg in
  let has line =
    List.mem line (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "le=0.5 cumulative" true
    (has "acq_demo_ms_bucket{le=\"0.5\"} 1");
  Alcotest.(check bool) "le=4 cumulative" true
    (has "acq_demo_ms_bucket{le=\"4\"} 2");
  Alcotest.(check bool) "+Inf closes the family" true
    (has "acq_demo_ms_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "sum line" true (has "acq_demo_ms_sum 3.5");
  Alcotest.(check bool) "count line" true (has "acq_demo_ms_count 2")

(* ------------------------------------------------------------------ *)
(* Wire: METRICS verb, telemetry trace, version negotiation           *)

let test_wire_metrics_roundtrip () =
  List.iter
    (fun format ->
      let req = Wire.Metrics_req { format } in
      (match Wire.request_of_json (Wire.request_to_json req) with
      | Ok r ->
          Alcotest.(check bool)
            (Wire.metrics_format_name format ^ " request round-trips")
            true (r = req)
      | Error msg -> Alcotest.failf "request: %s" msg);
      let reg = Metrics.create () in
      Metrics.incr (Metrics.counter reg "acq_demo_total" ~labels:[ ("verb", "ping") ]);
      let resp =
        Wire.Metrics_reply { format; payload = Wire.metrics_payload ~format reg }
      in
      match Wire.response_of_json (Wire.response_to_json resp) with
      | Ok r ->
          Alcotest.(check bool)
            (Wire.metrics_format_name format ^ " response round-trips")
            true (r = resp)
      | Error msg -> Alcotest.failf "response: %s" msg)
    [ Wire.Metrics_json; Wire.Metrics_prometheus ]

let test_wire_version_negotiation () =
  (* every encoded message declares the protocol version *)
  (match Wire.request_to_json Wire.Ping with
  | Json.Obj fields ->
      Alcotest.(check bool) "version declared" true
        (List.assoc_opt "version" fields = Some (Json.Int Wire.protocol_version))
  | _ -> Alcotest.fail "ping must encode to an object");
  (* absent version means version 1 (pre-versioning peers keep working) *)
  (match Wire.request_of_json (Json.Obj [ ("verb", Json.String "ping") ]) with
  | Ok Wire.Ping -> ()
  | _ -> Alcotest.fail "absent version must be accepted");
  (* unknown fields are ignored: additive evolution *)
  (match
     Wire.request_of_json
       (Json.Obj
          [
            ("verb", Json.String "ping");
            ("version", Json.Int 1);
            ("x_future", Json.String "ignored");
          ])
   with
  | Ok Wire.Ping -> ()
  | _ -> Alcotest.fail "unknown fields must be ignored");
  (* a version we do not speak is refused, not guessed at *)
  match
    Wire.request_of_json
      (Json.Obj [ ("verb", Json.String "ping"); ("version", Json.Int 99) ])
  with
  | Error msg ->
      Alcotest.(check bool) "error names the version" true
        (contains ~needle:"99" msg)
  | Ok _ -> Alcotest.fail "version 99 must be refused"

(* ------------------------------------------------------------------ *)
(* A live daemon: METRICS verb, traced requests, request counters     *)

let with_client f =
  let server = Server.create () in
  ignore (Catalog.add (Server.catalog server) ~name:"g" (graph_db ~seed:8 16 0.3));
  let client_fd, server_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let thread =
    Thread.create (fun () -> Server.serve_connection server server_fd) ()
  in
  let ic = Unix.in_channel_of_descr client_fd
  and oc = Unix.out_channel_of_descr client_fd in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown client_fd Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      Thread.join thread;
      try Unix.close client_fd with Unix.Unix_error _ -> ())
    (fun () -> f ic oc)

let call ic oc req =
  Wire.write_json oc (Wire.request_to_json req);
  match Wire.read_json ic with
  | Wire.Msg j -> (
      match Wire.response_of_json j with
      | Ok r -> r
      | Error msg -> Alcotest.failf "bad response: %s" msg)
  | Wire.Eof -> Alcotest.fail "server hung up"
  | Wire.Bad msg -> Alcotest.failf "unparseable response: %s" msg

let query = "ans(x,y) :- E(x,y), x != y"

let test_server_metrics_verb () =
  with_client (fun ic oc ->
      (match call ic oc (Wire.Use "g") with
      | Wire.Used _ -> ()
      | _ -> Alcotest.fail "USE failed");
      (match
         call ic oc
           (Wire.Count (Wire.params ~eps:0.5 ~delta:0.25 ~seed:5 ~db:Wire.Session query))
       with
      | Wire.Counted _ -> ()
      | _ -> Alcotest.fail "COUNT failed");
      (match call ic oc (Wire.Metrics_req { format = Wire.Metrics_json }) with
      | Wire.Metrics_reply { format = Wire.Metrics_json; payload = Json.List series } ->
          let count_series =
            List.exists
              (fun s ->
                match (Json.mem "name" s, Json.mem "labels" s) with
                | Some (Json.String "acq_requests_total"), Some labels ->
                    Json.mem "verb" labels = Some (Json.String "count")
                | _ -> false)
              series
          in
          Alcotest.(check bool) "acq_requests_total{verb=count} served" true
            count_series
      | _ -> Alcotest.fail "METRICS (json) failed");
      match call ic oc (Wire.Metrics_req { format = Wire.Metrics_prometheus }) with
      | Wire.Metrics_reply { format = Wire.Metrics_prometheus; payload = Json.String text } ->
          Alcotest.(check bool) "exposition mentions acq_requests_total" true
            (contains ~needle:"acq_requests_total" text)
      | _ -> Alcotest.fail "METRICS (prometheus) failed")

let test_server_traced_count () =
  with_client (fun ic oc ->
      (match call ic oc (Wire.Use "g") with
      | Wire.Used _ -> ()
      | _ -> Alcotest.fail "USE failed");
      let params =
        Wire.params ~eps:0.5 ~delta:0.25 ~seed:11 ~trace:true ~db:Wire.Session
          query
      in
      let plain =
        Wire.params ~eps:0.5 ~delta:0.25 ~seed:11 ~db:Wire.Session query
      in
      let cold =
        match call ic oc (Wire.Count params) with
        | Wire.Counted o -> o
        | _ -> Alcotest.fail "traced COUNT failed"
      in
      (match cold.Wire.trace with
      | Some s -> Alcotest.(check bool) "spans crossed the wire" true (s.Trace.spans > 0)
      | None -> Alcotest.fail "traced request returned no summary");
      (* an untraced request replaying the cached result: same bits, no
         trace — the cache replay did no work worth attributing *)
      match call ic oc (Wire.Count plain) with
      | Wire.Counted hot ->
          Alcotest.(check bool) "replay bits identical" true
            (Int64.bits_of_float hot.Wire.estimate
            = Int64.bits_of_float cold.Wire.estimate);
          Alcotest.(check bool) "replay carries no trace" true
            (hot.Wire.trace = None)
      | _ -> Alcotest.fail "replay COUNT failed")

let test_request_counters_move () =
  let before =
    Metrics.counter_value
      (Metrics.counter Metrics.global "acq_requests_total"
         ~labels:[ ("verb", "ping"); ("status", "0") ])
  in
  with_client (fun ic oc ->
      match call ic oc Wire.Ping with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "PING failed");
  let after =
    Metrics.counter_value
      (Metrics.counter Metrics.global "acq_requests_total"
         ~labels:[ ("verb", "ping"); ("status", "0") ])
  in
  Alcotest.(check bool) "ping incremented its series" true (after > before)

let tests =
  [
    Alcotest.test_case "traced runs are bit-identical" `Quick
      test_trace_bit_transparent;
    Alcotest.test_case "traced sampling is bit-identical" `Quick
      test_sample_trace_bit_transparent;
    Alcotest.test_case "span tree is well-formed" `Quick
      test_span_tree_well_formed;
    Alcotest.test_case "summary attributes ticks" `Quick
      test_summary_tick_attribution;
    Alcotest.test_case "jsonl and chrome exports" `Quick test_trace_exports;
    Alcotest.test_case "span capacity bounds memory" `Quick
      test_trace_capacity_bound;
    Alcotest.test_case "registry identity and label order" `Quick
      test_metrics_identity_and_label_order;
    Alcotest.test_case "kill switch freezes updates" `Quick
      test_metrics_kill_switch;
    QCheck_alcotest.to_alcotest prop_histogram_invariants;
    Alcotest.test_case "bucket bounds contract" `Quick
      test_bucket_bounds_contract;
    Alcotest.test_case "prometheus exposition golden" `Quick
      test_prometheus_golden;
    Alcotest.test_case "prometheus histogram lines" `Quick
      test_prometheus_histogram_lines;
    Alcotest.test_case "METRICS verb round-trips" `Quick
      test_wire_metrics_roundtrip;
    Alcotest.test_case "version negotiation" `Quick
      test_wire_version_negotiation;
    Alcotest.test_case "live METRICS verb" `Quick test_server_metrics_verb;
    Alcotest.test_case "traced COUNT over the wire" `Quick
      test_server_traced_count;
    Alcotest.test_case "request counters move" `Quick
      test_request_counters_move;
  ]
