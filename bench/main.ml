(* Benchmark harness.

   Two layers, both in this executable:

   1. The experiment tables (DESIGN.md §4 / EXPERIMENTS.md): one table per
      paper claim, regenerated by `Ac_experiments.Registry.all`. These are
      the "tables and figures" of the reproduction.

   2. Bechamel micro-benchmarks — one `Test.make` per experiment family,
      timing the core operation that dominates that experiment, so that
      performance regressions in any engine are visible in isolation:

        e1: one FPTRAS run of the friends query (n = 120)
        e2: one #LIHom FPTRAS (path-4 into a 16-vertex host)
        e3: exact K4-clique counting vs the colour-free oracle decision
        e4: one Direct-engine Hamiltonian count (n = 5)
        e5: one high-arity generic-join Hom decision (Theorem 36 stand-in)
        e6: one tree-automaton FPRAS run (acyclic join, n = 30)
        e7: one exact fhw computation (grid 3x3)
        e8: one Karp-Luby union estimate

   Run with: dune exec bench/main.exe
   (pass --tables-only / --micro-only to select a layer)

   Five gated modes each write one BENCH_<mode>.json instead:
   --parallel, --obs, --chaos, --cost, --conformance. The acqd
   service paths (cold and result-hot COUNTs, live mutation, the sharded
   fleet) are measured end to end by perfbench/ (see perfbench/README.md). *)

module Clock = Monotonic_clock (* before [Toolkit] shadows the name *)

open Bechamel
open Toolkit

module QF = Ac_workload.Query_families
module G = Ac_workload.Graph
module Dbgen = Ac_workload.Dbgen

let rng_of seed = Random.State.make [| seed |]

(* --- fixtures (built once, outside the timed region) --- *)

let friends_q = QF.friends ()
let friends_db = Dbgen.friends_database ~rng:(rng_of 1) ~n:120 ~avg_degree:6.0

let lihom_pattern = G.path 4
let lihom_host = G.random_gnp ~rng:(rng_of 2) 16 0.3

let clique_q = QF.clique_query ~num_free:2 4
let clique_db = G.to_structure (G.random_gnp ~rng:(rng_of 3) 40 0.4)

let ham_graph = G.random_gnp ~rng:(rng_of 4) 5 0.6

let wide_q = QF.wide_path ~num_free:2 ~k:3 ~arity:6 ()
let wide_db = Dbgen.high_arity_database ~rng:(rng_of 5) ~universe_size:20 ~arity:6 ~count:600

let acyclic_q = QF.acyclic_join ()
let acyclic_db =
  Dbgen.random_structure ~rng:(rng_of 6) ~universe_size:30
    [ ("R", 2, 150); ("S", 2, 150); ("T", 2, 150) ]

let grid_h = Ac_hypergraph.Hypergraph.grid 3 3

let union_db =
  Dbgen.friends_database ~rng:(rng_of 7) ~n:30 ~avg_degree:4.0

let union_q1 = Ac_query.Ecq.parse "ans(x) :- F(x, y), F(x, z), y != z"
let union_q2 = Ac_query.Ecq.parse "ans(x) :- F(y, x)"

let tests =
  [
    Test.make ~name:"e1_fptras_friends_n120" (Staged.stage (fun () ->
        ignore
          (Approxcount.Fptras.approx_count
             ~exec:(Ac_exec.Engine.sequential ~seed:11) ~eps:0.5
             ~delta:0.25 friends_q friends_db)));
    Test.make ~name:"e2_lihom_path4_host16" (Staged.stage (fun () ->
        ignore
          (Approxcount.Lihom.approx_count
             ~exec:(Ac_exec.Engine.sequential ~seed:12) ~eps:0.5
             ~delta:0.25 ~pattern:lihom_pattern lihom_host)));
    Test.make ~name:"e3_exact_clique4_n40" (Staged.stage (fun () ->
        ignore (Approxcount.Exact.by_join_projection clique_q clique_db)));
    Test.make ~name:"e3_fptras_clique4_n40" (Staged.stage (fun () ->
        ignore
          (Approxcount.Fptras.approx_count
             ~exec:(Ac_exec.Engine.sequential ~seed:13) ~eps:0.5
             ~delta:0.25 clique_q clique_db)));
    Test.make ~name:"e4_hamiltonian_direct_n5" (Staged.stage (fun () ->
        ignore
          (Approxcount.Hardness.approx_via_query
             ~exec:(Ac_exec.Engine.sequential ~seed:14)
             ~engine:Approxcount.Colour_oracle.Direct ~eps:0.5 ~delta:0.25
             ham_graph)));
    Test.make ~name:"e5_wide_path_arity6_exact" (Staged.stage (fun () ->
        ignore (Approxcount.Exact.by_join_projection wide_q wide_db)));
    Test.make ~name:"e6_fpras_acyclic_n30" (Staged.stage (fun () ->
        ignore
          (Approxcount.Fpras.approx_count
             ~config:(Ac_automata.Acjr.default_config ~seed:15 ())
             ~exec:(Ac_exec.Engine.sequential ~seed:15)
             ~repetitions:1 ~eps:0.25 acyclic_q acyclic_db)));
    Test.make ~name:"e7_fhw_exact_grid3x3" (Staged.stage (fun () ->
        ignore (Ac_hypergraph.Widths.fhw_exact grid_h)));
    Test.make ~name:"e8_karp_luby_union" (Staged.stage (fun () ->
        ignore
          (Approxcount.Sampling.union_count_karp_luby ~rng:(rng_of 16)
             ~rounds:500 [ union_q1; union_q2 ] union_db)));
    Test.make ~name:"hom_count_dp_c6_into_k4" (Staged.stage (fun () ->
        let source =
          G.to_structure (G.cycle 6) and target = G.to_structure (G.clique 4)
        in
        ignore (Ac_hom.Hom.count_dp { Ac_hom.Hom.source; target })));
    Test.make ~name:"acjr_slice_n6" (Staged.stage (fun () ->
        let a =
          Ac_automata.Tree_automaton.create ~num_states:1 ~num_symbols:2
            ~initial:0
        in
        Ac_automata.Tree_automaton.add_transition a ~state:0 ~symbol:0
          Ac_automata.Tree_automaton.Stop;
        Ac_automata.Tree_automaton.add_transition a ~state:0 ~symbol:0
          (Ac_automata.Tree_automaton.One 0);
        Ac_automata.Tree_automaton.add_transition a ~state:0 ~symbol:0
          (Ac_automata.Tree_automaton.Two (0, 0));
        ignore
          (Ac_automata.Acjr.estimate_slice
             ~config:(Ac_automata.Acjr.default_config ~seed:17 ())
             a 6)));
    Test.make ~name:"planner_auto_dispatch" (Staged.stage (fun () ->
        let report = Ac_analysis.Report.analyze ~db:friends_db friends_q in
        ignore
          (Approxcount.Planner.count_governed
             ~exec:(Ac_exec.Engine.make ~jobs:1 ~seed:18 ())
             ~classification:(Ac_analysis.Report.classification_exn report)
             ~cost:(Option.get report.Ac_analysis.Report.cost)
             ~eps:0.5 ~delta:0.25 friends_q friends_db)));
  ]

let run_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 2.0) ~kde:(Some 500) () in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  Format.printf "@.== Bechamel micro-benchmarks (monotonic clock)@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = analyze results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ per_run_ns ] ->
              Format.printf "%-32s %12.0f ns/run  (r² %s)@." name per_run_ns
                (match Analyze.OLS.r_square result with
                | Some r2 -> Printf.sprintf "%.3f" r2
                | None -> "n/a")
          | _ -> Format.printf "%-32s (no estimate)@." name)
        analysis)
    tests

(* --- the gated modes ---

   Each mode returns its report fields and its named gates; [emit]
   writes both to BENCH_<mode>.json, prints one line per gate and exits
   1 if any gate failed. Timed regimes run interleaved [rounds] and
   report each regime's median and IQR over them. *)

module Json = Ac_analysis.Json
module Wire = Ac_server.Wire
module Client = Ac_server.Client
module Server = Ac_server.Server

let emit mode (fields, gates) =
  let report =
    Json.Obj
      (fields
      @ [
          ("host_cores", Json.Int (Domain.recommended_domain_count ()));
          ("gates", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) gates));
        ])
  in
  let path = Printf.sprintf "BENCH_%s.json" mode in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty report);
  output_char oc '\n';
  close_out oc;
  Format.printf "%s: wrote %s@." mode path;
  List.iter
    (fun (name, ok) ->
      Format.printf "%s: %s: %s@." mode name (if ok then "pass" else "FAIL"))
    gates;
  if not (List.for_all snd gates) then exit 1

(* [rounds r regimes] takes one sample of every regime per round,
   rotating which regime goes first so that host drift hits all of them
   alike; returns each regime's [r] samples. *)
let rounds r regimes =
  let regimes = Array.of_list regimes in
  let n = Array.length regimes in
  let samples = Array.map (fun _ -> Array.make r 0.0) regimes in
  for round = 0 to r - 1 do
    for k = 0 to n - 1 do
      let i = (round + k) mod n in
      samples.(i).(round) <- regimes.(i) ()
    done
  done;
  Array.to_list samples

let median = Pb.median

let spread xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let q = Pb.quantile s in
  Json.Obj
    [ ("median", Json.Float (q 0.5)); ("iqr", Json.Float (q 0.75 -. q 0.25)) ]

let time_ms f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Clock.now ()) t0) *. 1e-6)

(* The p50 latency in ms of [requests] sequential calls of [call]. *)
let p50_ms ~requests call () =
  Pb.median (Array.init requests (fun _ -> snd (time_ms call)))

(* An in-process acqd with [db] loaded as "g", serving a fresh Unix
   socket for the duration of [f server path]: a real socket (connect,
   kernel round trips) without the acqd process. *)
let with_server db f =
  let server = Server.create () in
  ignore (Ac_server.Catalog.add (Server.catalog server) ~name:"g" db);
  let path = Filename.temp_file "acq_bench" ".sock" in
  Sys.remove path;
  match Server.listen_unix ~path () with
  | Error e -> failwith ("bench: " ^ Ac_runtime.Error.message e)
  | Ok listener ->
      let serving = Thread.create (Server.serve server) [ listener ] in
      Fun.protect
        ~finally:(fun () ->
          Server.request_stop server;
          Thread.join serving;
          try Sys.remove path with Sys_error _ -> ())
        (fun () -> f server path)

(* Latency regimes against the first one, the baseline: each regime's
   p50 spread and its median's overhead over the baseline's. *)
let overheads names samples =
  let base = median (List.hd samples) in
  Json.List
    (List.map2
       (fun name s ->
         Json.Obj
           [
             ("name", Json.String name);
             ("p50_ms", spread s);
             ("overhead", Json.Float ((median s /. base) -. 1.0));
           ])
       names samples)

(* The second regime's median p50 is within 5% of the baseline's. *)
let within_5pct samples =
  median (List.nth samples 1) <= median (List.hd samples) *. 1.05

let expect_counted client request () =
  match Client.call client request with
  | Ok (Wire.Counted _) -> ()
  | Ok (Wire.Refused { message; _ }) -> failwith ("bench: " ^ message)
  | Ok _ -> failwith "bench: unexpected response"
  | Error e -> failwith ("bench: " ^ Ac_runtime.Error.message e)

(* --- jobs sweep over the Theorem 16 FPRAS (BENCH_parallel.json) ---

   Times the same seeded median-of-sketches FPRAS run at jobs = 1/2/4.
   The gate is that every run's estimate is bit-identical — that is the
   whole point of the engine. On a single-core host the sweep measures
   the fan-out overhead only. *)

let run_parallel () =
  let repetitions = 33 and seed = 2026 in
  let estimates = ref [] in
  let seconds jobs () =
    let exec = Ac_exec.Engine.make ~jobs ~seed () in
    let est, ms =
      time_ms (fun () ->
          Approxcount.Fpras.approx_count ~exec ~repetitions ~eps:0.25 acyclic_q
            acyclic_db)
    in
    estimates := Int64.bits_of_float est :: !estimates;
    ms /. 1000.0
  in
  ignore (seconds 1 ());
  (* warm-up *)
  let jobs = [ 1; 2; 4 ] in
  let samples = rounds 3 (List.map seconds jobs) in
  let t1 = median (List.hd samples) in
  let estimate = List.hd !estimates in
  ( [
      ("benchmark", Json.String "fpras_acyclic_n30 (Theorem 16 sketch median)");
      ("repetitions", Json.Int repetitions);
      ("seed", Json.Int seed);
      ("estimate", Json.Exact (Int64.float_of_bits estimate));
      ( "sweep",
        Json.List
          (List.map2
             (fun jobs s ->
               Json.Obj
                 [
                   ("jobs", Json.Int jobs);
                   ("seconds", spread s);
                   ("speedup_vs_jobs1", Json.Float (t1 /. median s));
                 ])
             jobs samples) );
    ],
    [ ("identical_estimates", List.for_all (Int64.equal estimate) !estimates) ]
  )

(* --- observability overhead (BENCH_obs.json) ---

   The contract of lib/obs is that instrumentation compiled in costs
   nothing measurable where it matters. This benchmark drives the
   result-hot wire path (cached replay of one seed — the regime where
   per-request metrics are the largest *fraction* of the work) under
   three settings:

     off:     the metrics kill switch thrown (Metrics.set_enabled false)
     metrics: the default — registry enabled, no tracing
     trace:   metrics enabled and per-request span collection requested

   and gates the metrics-enabled p50 at 5% over the disabled p50, each
   the median over many short rounds: at ~50 µs a round's p50 jumps
   between host states, which moves a best-of-rounds minimum by ±25%
   but the median of finely interleaved rounds by a few percent. Tracing
   is opt-in per request, so its overhead is reported but not gated. *)

let run_obs () =
  let module Metrics = Ac_obs.Metrics in
  let db = G.to_structure (G.random_gnp ~rng:(rng_of 22) 24 0.25) in
  let query = "ans(x,y) :- E(x,y), E(y,z), x != z" in
  let count ~trace =
    Wire.Count
      (Wire.params ~eps:0.5 ~delta:0.25 ~seed:7 ~trace ~db:(Wire.Named "g")
         query)
  in
  let samples =
    with_server db (fun _ path ->
        let c = Client.create (Client.Unix_socket path) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let regime ~enabled ~trace () =
              Metrics.set_enabled enabled;
              Fun.protect
                ~finally:(fun () -> Metrics.set_enabled true)
                (p50_ms ~requests:200 (expect_counted c (count ~trace)))
            in
            (* warm-up: fills plan + result caches *)
            expect_counted c (count ~trace:false) ();
            expect_counted c (count ~trace:true) ();
            rounds 15
              [
                regime ~enabled:false ~trace:false;
                regime ~enabled:true ~trace:false;
                regime ~enabled:true ~trace:true;
              ]))
  in
  ( [
      ( "benchmark",
        Json.String "observability overhead on the result-hot wire path" );
      ("query", Json.String query);
      ("requests_per_round", Json.Int 200);
      ("regimes", overheads [ "off"; "metrics"; "trace" ] samples);
    ],
    [ ("metrics_overhead_within_5pct", within_5pct samples) ] )

(* --- retry-layer overhead (BENCH_chaos.json) ---

   The retrying client (Retry_policy.default) buys reconnection,
   deadlines and idempotent retries; its price on the happy path is an
   id digest, a deadline subtraction and an envelope-id comparison per
   request. This benchmark drives the result-hot regime (cached replay
   of one seed) against one daemon through the plain client and the
   retry layer, and gates the durable p50 at 5% over the plain p50,
   each the median over the rounds (the same policy as the obs bench). A
   third regime sends the same traffic through the chaos proxy under
   probabilistic faults; it is reported (p50 and retries) but not gated
   — under injected faults latency is the fault plan's, not the
   client's. *)

let run_chaos () =
  let module Chaos = Ac_runtime.Chaos in
  let module Retry_policy = Ac_server.Retry_policy in
  let db = G.to_structure (G.random_gnp ~rng:(rng_of 23) 24 0.25) in
  let query = "ans(x,y) :- E(x,y), E(y,z), x != z" in
  let request = Wire.Count (Wire.params ~seed:7 ~db:(Wire.Named "g") query) in
  let plan = Chaos.Wire_plan.create ~p_fault:0.05 ~delay_ms:2 ~seed:2022 () in
  let samples, retries =
    with_server db (fun server path ->
        let proxy_path = Filename.temp_file "acq_bench_proxy" ".sock" in
        Sys.remove proxy_path;
        let proxy =
          Ac_test_support.Chaos_proxy.start ~path:proxy_path ~plan
            ~serve:(Server.serve_connection server) ()
        in
        let plain = Client.create (Client.Unix_socket path)
        and durable =
          Client.create ~policy:Retry_policy.default (Client.Unix_socket path)
        and faulted =
          Client.create
            ~policy:
              {
                Retry_policy.default with
                backoff_base_ms = 1.0;
                backoff_cap_ms = 10.0;
                attempts = 7;
              }
            (Client.Unix_socket proxy_path)
        in
        let clients = [ plain; durable; faulted ] in
        Fun.protect
          ~finally:(fun () ->
            List.iter Client.close clients;
            Ac_test_support.Chaos_proxy.stop proxy)
          (fun () ->
            (* warm-up: fills plan + result caches *)
            List.iter (fun c -> expect_counted c request ()) clients;
            let samples =
              rounds 15
                (List.map
                   (fun c -> p50_ms ~requests:200 (expect_counted c request))
                   clients)
            in
            (samples, Client.retries_total faulted)))
  in
  ( [
      ("benchmark", Json.String "retry-layer overhead on the result-hot wire path");
      ("query", Json.String query);
      ("requests_per_round", Json.Int 200);
      ("regimes", overheads [ "plain"; "durable"; "durable_chaos" ] samples);
      ("chaos_retries", Json.Int retries);
      ( "chaos_faults_injected",
        Json.Int (List.length (Chaos.Wire_plan.history plan)) );
    ],
    [ ("retry_layer_overhead_within_5pct", within_5pct samples) ] )

(* --- the static cost analyzer's choice, run (BENCH_cost.json) ---

   For each corpus query (examples/queries/*.acq when visible from the
   working directory, a built-in mirror of the corpus otherwise), against
   one seeded database: the planning overhead of the cost analysis, the
   Figure-1 and the chosen rung, the instantiated bound, and the governed
   run's timing under a 20M-tick ceiling. The gate, per query: the run
   answers on the chosen rung without degrading (the analyzer picked a
   rung that finishes), and where that rung is exact its count equals
   [Exact.by_join_projection]. *)

let run_cost () =
  let module Ecq = Ac_query.Ecq in
  let module Report = Ac_analysis.Report in
  let module Cost = Ac_analysis.Cost in
  let module Planner = Approxcount.Planner in
  let builtin =
    [
      ("quickstart", "ans(x, y) :- E(x, z), E(z, y)");
      ("projection", "ans(x) :- E(x, y), E(y, z)");
      ("cartesian", "ans(x, y) :- E(x, y), R(z, w)");
      ("triangle_negation", "ans(x, y) :- E(x, y), E(y, z), !E(x, z), x != z");
      ("always_empty", "ans(x) :- E(x, y), !E(x, y)");
      ("star", "ans(a, b, c, d) :- E(y, a), E(y, b), E(y, c), E(y, d), a != b");
      ("unguarded", "ans(x, y) :- E(x, z), y != z");
    ]
  in
  let corpus =
    match Sys.readdir "examples/queries" with
    | entries ->
        let files =
          Array.to_list entries
          |> List.filter (fun f -> Filename.check_suffix f ".acq")
          |> List.sort String.compare
        in
        let read f =
          let ic = open_in (Filename.concat "examples/queries" f) in
          let text = input_line ic in
          close_in ic;
          (Filename.chop_suffix f ".acq", text)
        in
        if files = [] then builtin else List.map read files
    | exception Sys_error _ -> builtin
  in
  let db =
    Dbgen.random_structure ~rng:(rng_of 11) ~universe_size:40
      [ ("E", 2, 200); ("R", 2, 200); ("P", 1, 30) ]
  in
  let db = Ac_relational.Structure.seal db in
  let rows =
    List.map
      (fun (name, text) ->
        let q = Ecq.parse text in
        let report, planning_ms = time_ms (fun () -> Report.analyze ~db q) in
        let cost = Option.get report.Report.cost in
        let chosen = Cost.chosen cost in
        let governed () =
          let exec = Ac_exec.Engine.make ~jobs:1 ~seed:2026 () in
          (* a real (fresh, budgets are sticky) work ceiling: the run
             must answer on its chosen rung as deployed, where a runaway
             rung trips and degrades instead of running away *)
          let budget = Ac_runtime.Budget.create ~max_ticks:20_000_000 () in
          match
            Planner.count_governed ~budget ~exec
              ~classification:(Report.classification_exn report) ~cost
              ~eps:0.25 ~delta:0.1 q db
          with
          | Ok g -> g
          | Error e ->
              Format.eprintf "cost bench: %s failed: %s@." name
                (Ac_runtime.Error.message e);
              exit 1
        in
        (* warm-up *)
        let g = governed () in
        let costed_ms = Array.init 3 (fun _ -> snd (time_ms governed)) in
        let exact_ok =
          chosen <> Cost.Exact
          || g.Planner.estimate
             = float_of_int (Approxcount.Exact.by_join_projection q db)
        in
        ( Json.Obj
            [
              ("query", Json.String name);
              ("planning_ms", Json.Float planning_ms);
              ("static_rung", Json.String (Cost.rung_name cost.Cost.static_choice));
              ("chosen_rung", Json.String (Cost.rung_name chosen));
              ("bound_log2", Json.Float cost.Cost.query_bound.Cost.log2);
              ("run_rung", Json.String (Planner.rung_name g.Planner.rung));
              ("degraded", Json.Bool g.Planner.degraded);
              ("estimate", Json.Float g.Planner.estimate);
              ("costed_ms", spread costed_ms);
            ],
          ( name ^ ": answers undegraded on the chosen rung, exact = join count",
            g.Planner.rung = chosen && (not g.Planner.degraded) && exact_ok ) ))
      corpus
  in
  ( [
      ("benchmark", Json.String "governed run on the cost model's chosen rung (corpus queries)");
      ("seed", Json.Int 2026);
      ("eps", Json.Float 0.25);
      ("delta", Json.Float 0.1);
      ("queries", Json.List (List.map fst rows));
    ],
    List.map snd rows )

(* --- the FPRAS (eps, delta) promise (BENCH_conformance.json) ---

   Each FPRAS corpus case of Ac_experiments.Conformance at each eps, run
   under [trials] engine seeds twice: with the sketch sized kappa(eps),
   as the request path runs it, and with the fixed kappa = 48 every eps
   got before the sketch followed eps. Per row: violations of
   |est - exact| <= eps * exact, the one-sided 95% Clopper-Pearson lower
   bound on their rate, mean/max relative error and ms per count. The
   gate, per row: the kappa(eps) lower bound is at most delta. *)

let run_conformance () =
  let module C = Ac_experiments.Conformance in
  let trials = 30 and delta = 0.1 and fixed_kappa = 48 in
  let stats ?kappa case eps =
    let row, ms = time_ms (fun () -> C.run ?kappa ~eps ~delta ~trials case) in
    ( row,
      Json.Obj
        [
          ("kappa", Json.Int (Option.get row.C.kappa));
          ("violations", Json.Int row.C.violations);
          ("cp_lower", Json.Float row.C.cp_lower);
          ("mean_rel_err", Json.Float row.C.mean_err);
          ("max_rel_err", Json.Float row.C.max_err);
          ("ms_per_count", Json.Float (ms /. float_of_int trials));
          ("holds", Json.Bool (C.holds row));
        ] )
  in
  let rows =
    List.concat_map
      (fun (case : C.case) ->
        List.map
          (fun eps ->
            let row, sized = stats case eps in
            let _, fixed = stats ~kappa:fixed_kappa case eps in
            ( Json.Obj
                [
                  ("case", Json.String case.C.name);
                  ("query", Json.String case.C.query);
                  ("eps", Json.Float eps);
                  ("kappa_eps", sized);
                  ("kappa_fixed", fixed);
                ],
              ( Printf.sprintf "%s eps=%g: kappa(eps) CP lower <= delta"
                  case.C.name eps,
                C.holds row ) ))
          [ 0.01; 0.05; 0.25 ])
      C.fpras_cases
  in
  ( [
      ( "benchmark",
        Json.String "FPRAS (eps, delta) conformance: kappa(eps) vs fixed kappa" );
      ("trials", Json.Int trials);
      ("delta", Json.Float delta);
      ("confidence", Json.Float 0.95);
      ("sketch_constant", Json.Float Ac_automata.Acjr.sketch_constant);
      ("sketch_floor", Json.Int Ac_automata.Acjr.sketch_floor);
      ("fixed_kappa", Json.Int fixed_kappa);
      ("rows", Json.List (List.map fst rows));
    ],
    List.map snd rows )

let run_tables () =
  let fmt = Format.std_formatter in
  List.iter
    (fun e ->
      Format.fprintf fmt "@.### %s — %s@." e.Ac_experiments.Common.id e.claim;
      e.run fmt)
    Ac_experiments.Registry.all;
  Format.pp_print_flush fmt ()

let () =
  let args = Array.to_list Sys.argv in
  let tables_only = List.mem "--tables-only" args in
  let micro_only = List.mem "--micro-only" args in
  let modes =
    [
      ("parallel", run_parallel);
      ("obs", run_obs);
      ("chaos", run_chaos);
      ("cost", run_cost);
      ("conformance", run_conformance);
    ]
  in
  match List.find_opt (fun (m, _) -> List.mem ("--" ^ m) args) modes with
  | Some (mode, run) -> emit mode (run ())
  | None ->
      if not micro_only then run_tables ();
      if not tables_only then run_micro ()
