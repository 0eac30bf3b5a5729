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
   (pass --tables-only / --micro-only to select a layer) *)

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
          (Approxcount.Fptras.approx_count ~rng:(rng_of 11) ~eps:0.5
             ~delta:0.25 friends_q friends_db)));
    Test.make ~name:"e2_lihom_path4_host16" (Staged.stage (fun () ->
        ignore
          (Approxcount.Lihom.approx_count ~rng:(rng_of 12) ~eps:0.5
             ~delta:0.25 ~pattern:lihom_pattern lihom_host)));
    Test.make ~name:"e3_exact_clique4_n40" (Staged.stage (fun () ->
        ignore (Approxcount.Exact.by_join_projection clique_q clique_db)));
    Test.make ~name:"e3_fptras_clique4_n40" (Staged.stage (fun () ->
        ignore
          (Approxcount.Fptras.approx_count ~rng:(rng_of 13) ~eps:0.5
             ~delta:0.25 clique_q clique_db)));
    Test.make ~name:"e4_hamiltonian_direct_n5" (Staged.stage (fun () ->
        ignore
          (Approxcount.Hardness.approx_via_query ~rng:(rng_of 14)
             ~engine:Approxcount.Colour_oracle.Direct ~eps:0.5 ~delta:0.25
             ham_graph)));
    Test.make ~name:"e5_wide_path_arity6_exact" (Staged.stage (fun () ->
        ignore (Approxcount.Exact.by_join_projection wide_q wide_db)));
    Test.make ~name:"e6_fpras_acyclic_n30" (Staged.stage (fun () ->
        ignore
          (Approxcount.Fpras.approx_count
             ~config:(Ac_automata.Acjr.default_config ~seed:15 ())
             acyclic_q acyclic_db)));
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
        ignore
          (Approxcount.Planner.count ~rng:(rng_of 18) ~eps:0.5 ~delta:0.25
             friends_q friends_db)));
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

(* --- jobs sweep over the Theorem 16 FPRAS (BENCH_parallel.json) ---

   Times the same seeded median-of-sketches FPRAS run at jobs = 1/2/4
   and records wall time, the estimate (which must be bit-identical
   across the sweep — that is the whole point of the engine) and the
   speedup relative to jobs = 1. On a single-core host the sweep
   degenerates to measuring the fan-out overhead; the JSON records the
   core count so the numbers can be read honestly. *)

let run_parallel () =
  let repetitions = 33 in
  let time_one jobs =
    let exec = Ac_exec.Engine.make ~jobs ~seed:2026 () in
    let t0 = Unix.gettimeofday () in
    let est =
      Approxcount.Fpras.approx_count ~exec ~repetitions acyclic_q acyclic_db
    in
    (est, Unix.gettimeofday () -. t0)
  in
  ignore (time_one 1);
  (* warm-up *)
  let sweep =
    List.map
      (fun jobs ->
        let est, dt = time_one jobs in
        (jobs, est, dt))
      [ 1; 2; 4 ]
  in
  let _, est1, t1 = List.hd sweep in
  let identical = List.for_all (fun (_, e, _) -> e = est1) sweep in
  let oc = open_out "BENCH_parallel.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"fpras_acyclic_n30 (Theorem 16 sketch median)\",\n";
  p "  \"repetitions\": %d,\n" repetitions;
  p "  \"seed\": 2026,\n";
  p "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"identical_estimates\": %b,\n" identical;
  p "  \"sweep\": [\n";
  List.iteri
    (fun i (jobs, est, dt) ->
      p "    {\"jobs\": %d, \"seconds\": %.4f, \"estimate\": %.6f, \
         \"speedup_vs_jobs1\": %.2f}%s\n"
        jobs dt est (t1 /. dt)
        (if i = List.length sweep - 1 then "" else ","))
    sweep;
  p "  ],\n";
  p "  \"note\": \"speedup is bounded by host_cores; on a 1-core host \
     the sweep measures fan-out overhead only, while the estimates \
     must still be identical\"\n";
  p "}\n";
  close_out oc;
  List.iter
    (fun (jobs, est, dt) ->
      Format.printf "parallel: jobs=%d  %.3fs  estimate %.3f  (x%.2f)@." jobs
        dt est (t1 /. dt))
    sweep;
  Format.printf "parallel: identical estimates across sweep: %b@." identical;
  if not identical then exit 1

(* --- acqd service benchmark (BENCH_server.json) ---

   Drives an in-process Ac_server over a socketpair — the full wire
   path (JSON envelopes, dispatch, scheduler, caches) without kernel
   socket setup noise — through three regimes:

     cold:       both caches disabled; every request pays static
                 analysis and estimation
     plan_hot:   caches enabled, fresh seed per request; the plan cache
                 hits, estimation still runs
     result_hot: caches enabled, one repeated seed; the result cache
                 answers without any estimation work

   and records req/sec with p50/p99 latency per regime. The contract
   checked downstream (scripts/ci.sh): result_hot p50 < cold p50. *)

let run_server_bench () =
  let module Server = Ac_server.Server in
  let module Catalog = Ac_server.Catalog in
  let module Wire = Ac_server.Wire in
  let db = G.to_structure (G.random_gnp ~rng:(rng_of 21) 24 0.25) in
  let query = "ans(x,y) :- E(x,y), E(y,z), x != z" in
  let make_server ~caches =
    let config =
      {
        Server.default_config with
        plan_cache_capacity = (if caches then 256 else 0);
        result_cache_capacity = (if caches then 4096 else 0);
      }
    in
    let server = Server.create ~config () in
    ignore (Catalog.add (Server.catalog server) ~name:"g" db);
    server
  in
  let with_conn server f =
    let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let thread =
      Thread.create (fun () -> Server.serve_connection server sfd) ()
    in
    let ic = Unix.in_channel_of_descr cfd
    and oc = Unix.out_channel_of_descr cfd in
    let r = f ic oc in
    (try Unix.shutdown cfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Thread.join thread;
    (try Unix.close cfd with Unix.Unix_error _ -> ());
    r
  in
  let call ic oc req =
    Wire.write_json oc (Wire.request_to_json req);
    match Wire.read_json ic with
    | Wire.Msg j -> (
        match Wire.response_of_json j with
        | Ok r -> r
        | Error msg -> failwith ("bench server: bad response: " ^ msg))
    | _ -> failwith "bench server: transport failure"
  in
  let count ic oc seed =
    match
      call ic oc
        (Wire.Count
           (Wire.params ~eps:0.5 ~delta:0.25 ~seed ~db:Wire.Session query))
    with
    | Wire.Counted o -> o
    | Wire.Refused { message; _ } -> failwith ("bench server: " ^ message)
    | _ -> failwith "bench server: unexpected response"
  in
  let scenario ~caches ~requests ~warmup_seeds ~seed_of =
    let server = make_server ~caches in
    with_conn server (fun ic oc ->
        (match call ic oc (Wire.Use "g") with
        | Wire.Used _ -> ()
        | _ -> failwith "bench server: USE failed");
        List.iter (fun s -> ignore (count ic oc s)) warmup_seeds;
        let lat = Array.make requests 0.0 in
        let t0 = Unix.gettimeofday () in
        for i = 0 to requests - 1 do
          let t = Unix.gettimeofday () in
          ignore (count ic oc (seed_of i));
          lat.(i) <- (Unix.gettimeofday () -. t) *. 1000.0
        done;
        let total = Unix.gettimeofday () -. t0 in
        Array.sort compare lat;
        let pct p =
          lat.(min (requests - 1) (int_of_float (p *. float_of_int requests)))
        in
        (requests, float_of_int requests /. total, pct 0.50, pct 0.99))
  in
  let cold =
    scenario ~caches:false ~requests:40 ~warmup_seeds:[ 9999 ]
      ~seed_of:(fun i -> 10_000 + i)
  in
  let plan_hot =
    scenario ~caches:true ~requests:40 ~warmup_seeds:[ 9999 ]
      ~seed_of:(fun i -> 20_000 + i)
  in
  let result_hot =
    scenario ~caches:true ~requests:400 ~warmup_seeds:[ 7 ] ~seed_of:(fun _ ->
        7)
  in
  let _, _, cold_p50, _ = cold and _, _, hot_p50, _ = result_hot in
  let hot_faster = hot_p50 < cold_p50 in
  let oc = open_out "BENCH_server.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"acqd wire path over socketpair\",\n";
  p "  \"query\": %S,\n" query;
  p "  \"eps\": 0.5, \"delta\": 0.25,\n";
  p "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"regimes\": [\n";
  let emit name (requests, rps, p50, p99) last =
    p
      "    {\"name\": %S, \"requests\": %d, \"req_per_sec\": %.1f, \
       \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n"
      name requests rps p50 p99
      (if last then "" else ",")
  in
  emit "cold" cold false;
  emit "plan_hot" plan_hot false;
  emit "result_hot" result_hot true;
  p "  ],\n";
  p "  \"result_hot_p50_faster_than_cold_p50\": %b,\n" hot_faster;
  p
    "  \"note\": \"cold disables both caches; plan_hot replays the query \
     under fresh seeds (plan cache hits, estimation runs); result_hot \
     replays one seed (no estimation at all)\"\n";
  p "}\n";
  close_out oc;
  let show name (requests, rps, p50, p99) =
    Format.printf "server: %-10s %4d reqs  %8.1f req/s  p50 %7.3f ms  p99 %7.3f ms@."
      name requests rps p50 p99
  in
  show "cold" cold;
  show "plan_hot" plan_hot;
  show "result_hot" result_hot;
  Format.printf "server: result-hot p50 < cold p50: %b@." hot_faster;
  if not hot_faster then exit 1

(* --- columnar join kernels vs the trie oracle (BENCH_join.json) ---

   Times the same joins under both Generic_join implementations over
   one shared sealed database: the hash-trie reference path and the
   columnar leapfrog kernels. Two figures per workload:

     end_to_end: prepare + run per evaluation — what a server request
                 pays. The columnar path reuses the relations' memoized
                 sorted projections across prepares; the trie path
                 rebuilds its tries every time.
     run_only:   enumeration over an already-prepared join.

   Counts must agree between the two paths (they enumerate identical
   sequences); the CI gate is that the kernels win end-to-end. *)

let run_join () =
  let module GJ = Ac_join.Generic_join in
  let module Structure = Ac_relational.Structure in
  let db = G.to_structure (G.random_gnp ~rng:(rng_of 31) 80 0.15) in
  ignore (Structure.seal db);
  let u = Structure.universe_size db in
  let e = Structure.relation db "E" in
  let triangle =
    [ GJ.atom [| 0; 1 |] e; GJ.atom [| 1; 2 |] e; GJ.atom [| 2; 0 |] e ]
  in
  let four_cycle =
    [
      GJ.atom [| 0; 1 |] e;
      GJ.atom [| 1; 2 |] e;
      GJ.atom [| 2; 3 |] e;
      GJ.atom [| 3; 0 |] e;
    ]
  in
  let workloads =
    [ ("triangle", 3, triangle); ("four_cycle", 4, four_cycle) ]
  in
  let iters = 25 in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int iters
  in
  let run_count p =
    let n = ref 0 in
    GJ.run p ~f:(fun _ ->
        incr n;
        true);
    !n
  in
  let measure impl num_vars atoms =
    let count = ref 0 in
    let end_to_end =
      time (fun () ->
          count :=
            run_count (GJ.prepare ~num_vars ~universe_size:u ~impl atoms))
    in
    let p = GJ.prepare ~num_vars ~universe_size:u ~impl atoms in
    let run_only = time (fun () -> ignore (run_count p)) in
    (!count, end_to_end, run_only)
  in
  let rows =
    List.map
      (fun (name, num_vars, atoms) ->
        let tc, te, tr = measure GJ.Trie num_vars atoms in
        let cc, ce, cr = measure GJ.Columnar num_vars atoms in
        (name, tc, cc, te, ce, tr, cr))
      workloads
  in
  let counts_equal = List.for_all (fun (_, tc, cc, _, _, _, _) -> tc = cc) rows in
  let kernels_win =
    List.for_all (fun (_, _, _, te, ce, _, _) -> ce < te) rows
  in
  let oc = open_out "BENCH_join.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"generic join: columnar kernels vs trie oracle\",\n";
  p "  \"graph\": \"gnp n=80 p=0.15 (seed 31), symmetric E\",\n";
  p "  \"iterations\": %d,\n" iters;
  p "  \"workloads\": [\n";
  List.iteri
    (fun i (name, tc, cc, te, ce, tr, cr) ->
      p
        "    {\"name\": %S, \"count_trie\": %d, \"count_columnar\": %d, \
         \"trie_end_to_end_ms\": %.3f, \"columnar_end_to_end_ms\": %.3f, \
         \"trie_run_only_ms\": %.3f, \"columnar_run_only_ms\": %.3f, \
         \"end_to_end_speedup\": %.2f}%s\n"
        name tc cc te ce tr cr (te /. ce)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p "  \"counts_equal\": %b,\n" counts_equal;
  p "  \"kernels_beat_trie_end_to_end\": %b,\n" kernels_win;
  p
    "  \"note\": \"end_to_end includes prepare: the columnar path reuses \
     the sealed relations' memoized projections, the trie path rebuilds \
     its index every evaluation; run_only times enumeration alone\"\n";
  p "}\n";
  close_out oc;
  List.iter
    (fun (name, tc, _, te, ce, tr, cr) ->
      Format.printf
        "join: %-10s count %6d  end-to-end trie %7.3f ms / columnar %7.3f \
         ms (x%.2f)  run-only %7.3f / %7.3f ms@."
        name tc te ce (te /. ce) tr cr)
    rows;
  Format.printf "join: counts equal: %b, kernels beat trie: %b@." counts_equal
    kernels_win;
  if not (counts_equal && kernels_win) then exit 1

(* --- observability overhead (BENCH_obs.json) ---

   The contract of lib/obs is that instrumentation compiled in costs
   nothing measurable where it matters. This benchmark drives the
   result-hot wire path (cached replay of one seed over a socketpair —
   the regime where per-request metrics are the largest *fraction* of
   the work) under three settings:

     off:     the metrics kill switch thrown (Metrics.set_enabled false)
     metrics: the default — registry enabled, no tracing
     trace:   metrics enabled and per-request span collection requested

   and fails (exit 1) if the metrics-enabled p50 exceeds the disabled
   p50 by more than 5%. Tracing is opt-in per request, so its overhead
   is reported but not gated. Each regime is timed three times and the
   fastest p50 kept — median-of-min is the noise-robust choice for
   sub-millisecond latencies. *)

let run_obs () =
  let module Server = Ac_server.Server in
  let module Catalog = Ac_server.Catalog in
  let module Wire = Ac_server.Wire in
  let module Metrics = Ac_obs.Metrics in
  let db = G.to_structure (G.random_gnp ~rng:(rng_of 22) 24 0.25) in
  let query = "ans(x,y) :- E(x,y), E(y,z), x != z" in
  let method_label = Approxcount.Api.method_to_string Approxcount.Api.Auto in
  let with_conn server f =
    let cfd, sfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let thread =
      Thread.create (fun () -> Server.serve_connection server sfd) ()
    in
    let ic = Unix.in_channel_of_descr cfd
    and oc = Unix.out_channel_of_descr cfd in
    let r = f ic oc in
    (try Unix.shutdown cfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Thread.join thread;
    (try Unix.close cfd with Unix.Unix_error _ -> ());
    r
  in
  let call ic oc req =
    Wire.write_json oc (Wire.request_to_json req);
    match Wire.read_json ic with
    | Wire.Msg j -> (
        match Wire.response_of_json j with
        | Ok r -> r
        | Error msg -> failwith ("bench obs: bad response: " ^ msg))
    | _ -> failwith "bench obs: transport failure"
  in
  let requests = 600 in
  let scenario ~trace () =
    let server = Server.create () in
    ignore (Catalog.add (Server.catalog server) ~name:"g" db);
    with_conn server (fun ic oc ->
        (match call ic oc (Wire.Use "g") with
        | Wire.Used _ -> ()
        | _ -> failwith "bench obs: USE failed");
        let count () =
          match
            call ic oc
              (Wire.Count
                 (Wire.params ~eps:0.5 ~delta:0.25 ~seed:7 ~trace
                    ~db:Wire.Session query))
          with
          | Wire.Counted _ -> ()
          | Wire.Refused { message; _ } -> failwith ("bench obs: " ^ message)
          | _ -> failwith "bench obs: unexpected response"
        in
        count ();
        (* warm-up: fills plan + result caches *)
        let lat = Array.make requests 0.0 in
        for i = 0 to requests - 1 do
          let t = Unix.gettimeofday () in
          count ();
          lat.(i) <- (Unix.gettimeofday () -. t) *. 1000.0
        done;
        Array.sort compare lat;
        lat.(requests / 2))
  in
  let best_p50 ~trace ~enabled =
    Metrics.set_enabled enabled;
    let p50 =
      List.fold_left min infinity
        (List.map (fun _ -> scenario ~trace ()) [ 1; 2; 3 ])
    in
    Metrics.set_enabled true;
    p50
  in
  let off = best_p50 ~trace:false ~enabled:false in
  let metrics_on = best_p50 ~trace:false ~enabled:true in
  let traced = best_p50 ~trace:true ~enabled:true in
  let overhead p50 = (p50 /. off) -. 1.0 in
  let within_budget = metrics_on <= off *. 1.05 in
  let oc = open_out "BENCH_obs.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"observability overhead on the result-hot wire path\",\n";
  p "  \"query\": %S,\n" query;
  p "  \"method\": %S,\n" method_label;
  p "  \"requests_per_run\": %d, \"runs_per_regime\": 3,\n" requests;
  p "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"regimes\": [\n";
  p "    {\"name\": \"off\", \"p50_ms\": %.4f},\n" off;
  p "    {\"name\": \"metrics\", \"p50_ms\": %.4f, \"overhead\": %.4f},\n"
    metrics_on (overhead metrics_on);
  p "    {\"name\": \"trace\", \"p50_ms\": %.4f, \"overhead\": %.4f}\n" traced
    (overhead traced);
  p "  ],\n";
  p "  \"metrics_overhead_within_5pct\": %b,\n" within_budget;
  p
    "  \"note\": \"off throws the Metrics kill switch; metrics is the \
     default build; trace additionally requests per-request span \
     collection (opt-in, not gated). p50 is the best of three runs.\"\n";
  p "}\n";
  close_out oc;
  Format.printf "obs: off     p50 %.4f ms@." off;
  Format.printf "obs: metrics p50 %.4f ms  (overhead %+.1f%%)@." metrics_on
    (100.0 *. overhead metrics_on);
  Format.printf "obs: trace   p50 %.4f ms  (overhead %+.1f%%)@." traced
    (100.0 *. overhead traced);
  Format.printf "obs: metrics overhead within 5%%: %b@." within_budget;
  if not within_budget then exit 1

(* --- retry-layer overhead (BENCH_chaos.json) ---

   The retrying client (Retry_policy.default) buys reconnection,
   deadlines and idempotent retries; its price on the happy path is an
   id digest, a deadline subtraction and an envelope-id comparison per
   request. This benchmark drives the result-hot regime (cached replay
   of one seed) over a real Unix socket twice — once through the plain
   client, once through the retry layer — and fails (exit 1) if the
   durable p50 exceeds the plain p50 by more than 5%. A third regime
   sends the same traffic through the chaos proxy under probabilistic
   faults; it is reported (p50 and retries) but not gated — under
   injected faults latency is the fault plan's, not the client's. *)

let run_chaos () =
  let module Server = Ac_server.Server in
  let module Catalog = Ac_server.Catalog in
  let module Wire = Ac_server.Wire in
  let module Client = Ac_server.Client in
  let module Chaos = Ac_runtime.Chaos in
  let module Chaos_proxy = Ac_server.Chaos_proxy in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let db = G.to_structure (G.random_gnp ~rng:(rng_of 23) 24 0.25) in
  let query = "ans(x,y) :- E(x,y), E(y,z), x != z" in
  let make_server () =
    let server = Server.create () in
    ignore (Catalog.add (Server.catalog server) ~name:"g" db);
    server
  in
  let tmp_sock () =
    let f = Filename.temp_file "acq_bench" ".sock" in
    Sys.remove f;
    f
  in
  (* a minimal accept loop: the bench needs a real socket (connect,
     kernel round trips) without dragging in the acqd process *)
  let with_daemon server f =
    let path = tmp_sock () in
    match Server.listen_unix ~path () with
    | Error e -> failwith ("bench chaos: " ^ Ac_runtime.Error.message e)
    | Ok listener ->
        let stopping = Atomic.make false in
        let accept_thread =
          Thread.create
            (fun () ->
              let rec go () =
                match Unix.accept listener with
                | fd, _ when Atomic.get stopping -> (
                    try Unix.close fd with Unix.Unix_error _ -> ())
                | fd, _ ->
                    ignore
                      (Thread.create
                         (fun () -> Server.serve_connection server fd)
                         ());
                    go ()
                | exception Unix.Unix_error _ ->
                    if not (Atomic.get stopping) then go ()
              in
              go ())
            ()
        in
        let finish () =
          Atomic.set stopping true;
          (try Unix.shutdown listener Unix.SHUTDOWN_ALL
           with Unix.Unix_error _ -> ());
          (try
             let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             (try Unix.connect fd (Unix.ADDR_UNIX path)
              with Unix.Unix_error _ -> ());
             Unix.close fd
           with Unix.Unix_error _ -> ());
          Thread.join accept_thread;
          (try Unix.close listener with Unix.Unix_error _ -> ());
          try Sys.remove path with Sys_error _ -> ()
        in
        Fun.protect ~finally:finish (fun () -> f path)
  in
  let request = Wire.Count (Wire.params ~seed:7 ~db:(Wire.Named "g") query) in
  let expect_counted = function
    | Ok (Wire.Counted _) -> ()
    | Ok (Wire.Refused { message; _ }) -> failwith ("bench chaos: " ^ message)
    | Ok _ -> failwith "bench chaos: unexpected response"
    | Error e -> failwith ("bench chaos: " ^ Ac_runtime.Error.message e)
  in
  let requests = 200 in
  let p50_of count =
    let lat = Array.make requests 0.0 in
    for i = 0 to requests - 1 do
      let t = Unix.gettimeofday () in
      count ();
      lat.(i) <- (Unix.gettimeofday () -. t) *. 1000.0
    done;
    Array.sort compare lat;
    lat.(requests / 2)
  in
  (* A paired design: both clients talk to the SAME daemon, and their
     measurement rounds interleave with alternating order, so scheduler
     drift hits both regimes equally. The per-regime summary is the min
     p50 across rounds — the noise-robust choice at ~20 µs latencies
     (same policy as the obs bench). *)
  let rounds = 5 in
  let plain_p50, durable_p50 =
    with_daemon (make_server ()) (fun path ->
        match Client.connect (Client.Unix_socket path) with
        | Error e -> failwith ("bench chaos: " ^ Ac_runtime.Error.message e)
        | Ok pc ->
            let dc =
              Client.create ~policy:Ac_server.Retry_policy.default
                (Client.Unix_socket path)
            in
            Fun.protect
              ~finally:(fun () ->
                Client.close pc;
                Client.close dc)
              (fun () ->
                let plain () = expect_counted (Client.call pc request) in
                let durable () = expect_counted (Client.call dc request) in
                plain ();
                durable ();
                (* warm-up: fills plan + result caches *)
                let best_p = ref infinity and best_d = ref infinity in
                for round = 1 to rounds do
                  let first, second, fb, sb =
                    if round mod 2 = 0 then (plain, durable, best_p, best_d)
                    else (durable, plain, best_d, best_p)
                  in
                  fb := Float.min !fb (p50_of first);
                  sb := Float.min !sb (p50_of second)
                done;
                (!best_p, !best_d)))
  in
  let chaos_p50, chaos_retries, chaos_faults =
    let server = make_server () in
    let path = tmp_sock () in
    let plan = Chaos.Wire_plan.create ~p_fault:0.05 ~delay_ms:2 ~seed:2022 () in
    let proxy =
      Chaos_proxy.start ~path ~plan
        ~serve:(fun fd -> Server.serve_connection server fd)
        ()
    in
    Fun.protect
      ~finally:(fun () -> Chaos_proxy.stop proxy)
      (fun () ->
        let policy =
          {
            Ac_server.Retry_policy.default with
            backoff_base_ms = 1.0;
            backoff_cap_ms = 10.0;
            attempts = 7;
          }
        in
        let c = Client.create ~policy (Client.Unix_socket path) in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            expect_counted (Client.call c request);
            (* warm-up *)
            let p50 =
              p50_of (fun () -> expect_counted (Client.call c request))
            in
            ( p50,
              Client.retries_total c,
              List.length (Chaos.Wire_plan.history plan) )))
  in
  let overhead = (durable_p50 /. plain_p50) -. 1.0 in
  let within_budget = durable_p50 <= plain_p50 *. 1.05 in
  let oc = open_out "BENCH_chaos.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"retry-layer overhead on the result-hot wire path\",\n";
  p "  \"query\": %S,\n" query;
  p "  \"requests_per_round\": %d, \"rounds_per_regime\": %d,\n" requests
    rounds;
  p "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"regimes\": [\n";
  p "    {\"name\": \"plain\", \"p50_ms\": %.4f},\n" plain_p50;
  p "    {\"name\": \"durable\", \"p50_ms\": %.4f, \"overhead\": %.4f},\n"
    durable_p50 overhead;
  p
    "    {\"name\": \"durable_chaos\", \"p50_ms\": %.4f, \"retries\": %d, \
     \"faults_injected\": %d}\n"
    chaos_p50 chaos_retries chaos_faults;
  p "  ],\n";
  p "  \"retry_layer_overhead_within_5pct\": %b,\n" within_budget;
  p
    "  \"note\": \"plain and durable talk to the same in-process daemon \
     over a real Unix socket; durable adds idempotency ids, deadline \
     bookkeeping and envelope matching. durable_chaos routes through \
     the fault-injecting proxy (p_fault 0.05) and is reported, not \
     gated. p50 is the best of the interleaved rounds.\"\n";
  p "}\n";
  close_out oc;
  Format.printf "chaos: plain   p50 %.4f ms@." plain_p50;
  Format.printf "chaos: durable p50 %.4f ms  (overhead %+.1f%%)@." durable_p50
    (100.0 *. overhead);
  Format.printf "chaos: faulted p50 %.4f ms  (%d retries, %d faults)@."
    chaos_p50 chaos_retries chaos_faults;
  Format.printf "chaos: retry-layer overhead within 5%%: %b@." within_budget;
  if not within_budget then exit 1

(* --- static cost analyzer vs the static Figure-1 chain (BENCH_cost.json) ---

   For each corpus query (examples/queries/*.acq when visible from the
   working directory, a built-in mirror of the corpus otherwise), against
   one seeded database: the planning overhead of the cost analysis, the
   chosen vs the static rung, the instantiated bound, and a governed-run
   timing comparison — costed chain vs static chain, median of 3, same
   engine seed. The gate: the costed chain is never slower than the
   static one beyond slack (2x + 10 ms on the medians; cost-based rung
   selection may only skip work, so a real slowdown means the analyzer
   itself leaked into the hot path). *)

let run_cost () =
  let module Ecq = Ac_query.Ecq in
  let module Report = Ac_analysis.Report in
  let module Cost = Ac_analysis.Cost in
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
  let median3 f =
    let times = List.sort compare [ f (); f (); f () ] in
    List.nth times 1
  in
  let time_ms f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  let gate_failures = ref [] in
  let rows =
    List.map
      (fun (name, text) ->
        let q = Ecq.parse text in
        let report, planning_ms = time_ms (fun () -> Report.analyze ~db q) in
        let cost = Option.get report.Report.cost in
        let decision =
          Approxcount.Planner.decision_of_classification
            (Report.classification_exn report)
        in
        let governed ?cost () =
          let exec = Ac_exec.Engine.make ~jobs:1 ~seed:2026 () in
          (* a real (fresh, budgets are sticky) work ceiling: the chain
             comparison must measure the governor as deployed, where a
             runaway rung trips and degrades instead of running away *)
          let budget = Ac_runtime.Budget.create ~max_ticks:20_000_000 () in
          match
            Approxcount.Planner.count_governed ~budget ~exec ~decision ?cost
              ~eps:0.25 ~delta:0.1 q db
          with
          | Ok g -> g
          | Error e ->
              Format.eprintf "cost bench: %s failed: %s@." name
                (Ac_runtime.Error.message e);
              exit 1
        in
        ignore (governed ());
        (* warm-up *)
        let static_ms =
          median3 (fun () -> snd (time_ms (fun () -> governed ())))
        in
        let costed_ms =
          median3 (fun () -> snd (time_ms (fun () -> governed ~cost ())))
        in
        let g_static = governed () and g_costed = governed ~cost () in
        if costed_ms > (2.0 *. static_ms) +. 10.0 then
          gate_failures :=
            Printf.sprintf "%s: costed %.2fms vs static %.2fms" name costed_ms
              static_ms
            :: !gate_failures;
        ( name,
          planning_ms,
          Cost.rung_name cost.Cost.static_choice,
          Cost.rung_name (Cost.chosen cost),
          cost.Cost.query_bound.Cost.log2,
          Approxcount.Planner.rung_name g_static.Approxcount.Planner.rung,
          Approxcount.Planner.rung_name g_costed.Approxcount.Planner.rung,
          g_costed.Approxcount.Planner.estimate,
          static_ms,
          costed_ms ))
      corpus
  in
  let oc = open_out "BENCH_cost.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"costed vs static governed chain (corpus queries)\",\n";
  p "  \"seed\": 2026,\n";
  p "  \"eps\": 0.25,\n";
  p "  \"delta\": 0.1,\n";
  p "  \"gate\": \"median costed time <= 2x median static time + 10ms\",\n";
  p "  \"gate_passed\": %b,\n" (!gate_failures = []);
  p "  \"queries\": [\n";
  List.iteri
    (fun i (name, plan_ms, static_rung, chosen, bound, srung, crung, est,
            sms, cms) ->
      p "    {\"query\": %S, \"planning_ms\": %.3f, \"static_rung\": %S, \
         \"chosen_rung\": %S, \"bound_log2\": %s, \"static_run_rung\": %S, \
         \"costed_run_rung\": %S, \"estimate\": %.6f, \"static_ms\": %.3f, \
         \"costed_ms\": %.3f}%s\n"
        name plan_ms static_rung chosen
        (if Float.is_finite bound then Printf.sprintf "%.3f" bound
         else "\"-inf\"")
        srung crung est sms cms
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n";
  p "}\n";
  close_out oc;
  List.iter
    (fun (name, plan_ms, _, chosen, _, _, _, _, sms, cms) ->
      Format.printf
        "cost: %-18s plan %.2fms  chosen %-12s  static %.2fms  costed %.2fms@."
        name plan_ms chosen sms cms)
    rows;
  if !gate_failures <> [] then begin
    List.iter (Format.eprintf "cost bench GATE FAILED: %s@.") !gate_failures;
    exit 1
  end;
  Format.printf "cost: gate passed (costed never slower than static beyond slack)@."

(* --- live mutable databases (BENCH_live.json) ---

   The main+delta storage of Ac_live, measured where it can hurt:

     insert:       streaming mutation throughput (batched Db.apply)
     cold:         first estimate after a mutation — pays the view
                   merge — as the resident delta fraction grows
     merge:        compaction pause (the write path stalls behind it)
     post_merge:   cold estimate after compaction vs a rebuilt-from-
                   scratch sealed baseline

   Gate (checked here, exit 1): post-merge cold p50 within 10% of the
   rebuilt baseline's p50 — compaction must give the delta-free scan
   speed back, or the whole main+delta design is a regression. *)

let run_live () =
  let module Live = Ac_live.Live in
  let universe_size = 60 and base_rows = 4000 in
  let query = "ans(x,y) :- E(x,y), E(y,z), x != z" in
  let q = Result.get_ok (Ac_query.Ecq.parse_result query) in
  let rng = rng_of 31 in
  let random_edge () =
    [| Random.State.int rng universe_size; Random.State.int rng universe_size |]
  in
  let base =
    Ac_relational.Structure.of_facts ~universe_size
      (List.init base_rows (fun _ -> ("E", random_edge ())))
  in
  let estimate db ~seed =
    let module Req = Approxcount.Api.Request in
    let r =
      Req.make q db |> Req.with_eps 0.5 |> Req.with_delta 0.25
      |> Req.with_seed (Some seed)
      |> Req.with_jobs (Some 1)
    in
    match Approxcount.Api.run r with
    | Ok r -> r.Approxcount.Api.estimate
    | Error e -> failwith ("bench live: " ^ Ac_runtime.Error.message e)
  in
  let pct lat p =
    let lat = Array.copy lat in
    Array.sort compare lat;
    lat.(min (Array.length lat - 1)
           (int_of_float (p *. float_of_int (Array.length lat))))
  in
  (* streaming insert throughput *)
  let batches = 50 and batch_size = 200 in
  let live = Live.Db.of_structure base in
  let t0 = Unix.gettimeofday () in
  for b = 0 to batches - 1 do
    let ops =
      List.init batch_size (fun _ ->
          Live.Db.Insert { rel = "E"; tuple = random_edge () })
    in
    match Live.Db.apply ~id:(Printf.sprintf "bench-%d" b) live ops with
    | Ok _ -> ()
    | Error e -> failwith ("bench live: " ^ Ac_runtime.Error.message e)
  done;
  let insert_s = Unix.gettimeofday () -. t0 in
  let ops_total = batches * batch_size in
  let ops_per_sec = float_of_int ops_total /. insert_s in
  (* a delta batch of the given fraction, reused across trials *)
  let delta_ops fraction =
    List.init
      (int_of_float (fraction *. float_of_int base_rows))
      (fun _ -> Live.Db.Insert { rel = "E"; tuple = random_edge () })
  in
  let trials = 15 in
  (* cold estimate: fresh live db per trial (nothing memoized), pay the
     view merge + the estimation; same seeds across fractions *)
  let cold_lat ?(merge_first = false) fraction =
    let ops = delta_ops fraction in
    Array.init trials (fun i ->
        let db = Live.Db.of_structure base in
        (match ops with
        | [] -> ()
        | _ -> (
            match Live.Db.apply db ops with
            | Ok _ -> ()
            | Error e -> failwith ("bench live: " ^ Ac_runtime.Error.message e)));
        if merge_first then ignore (Live.Db.merge db);
        let t = Unix.gettimeofday () in
        ignore (estimate (Live.Db.snapshot db) ~seed:(777 + i));
        (Unix.gettimeofday () -. t) *. 1000.0)
  in
  let fractions = [ 0.0; 0.05; 0.25 ] in
  let cold = List.map (fun f -> (f, cold_lat f)) fractions in
  (* the rebuilt baseline: the same live set sealed from scratch *)
  let rebuilt_of fraction =
    let db = Live.Db.of_structure base in
    (match delta_ops fraction with
    | [] -> ()
    | ops -> (
        match Live.Db.apply db ops with
        | Ok _ -> ()
        | Error e -> failwith ("bench live: " ^ Ac_runtime.Error.message e)));
    let snapshot = Live.Db.snapshot db in
    Ac_relational.Structure.(seal (copy snapshot))
  in
  let rebuilt = rebuilt_of 0.25 in
  let rebuilt_lat =
    Array.init trials (fun i ->
        let t = Unix.gettimeofday () in
        ignore (estimate rebuilt ~seed:(777 + i));
        (Unix.gettimeofday () -. t) *. 1000.0)
  in
  (* merge pause: fresh db with a 25% delta per trial *)
  let merge_trials = 30 in
  let merge_ops = delta_ops 0.25 in
  let merge_lat =
    Array.init merge_trials (fun _ ->
        let db = Live.Db.of_structure base in
        (match Live.Db.apply db merge_ops with
        | Ok _ -> ()
        | Error e -> failwith ("bench live: " ^ Ac_runtime.Error.message e));
        let t = Unix.gettimeofday () in
        ignore (Live.Db.merge db);
        (Unix.gettimeofday () -. t) *. 1000.0)
  in
  (* the gate: after compaction, cold estimates at rebuilt speed *)
  let post_merge_lat = cold_lat ~merge_first:true 0.25 in
  let post_p50 = pct post_merge_lat 0.50
  and rebuilt_p50 = pct rebuilt_lat 0.50 in
  (* 10% relative plus a 0.25 ms absolute floor against timer noise on
     sub-millisecond estimates *)
  let gate_ok = post_p50 <= (rebuilt_p50 *. 1.10) +. 0.25 in
  let oc = open_out "BENCH_live.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"live main+delta storage (Ac_live)\",\n";
  p "  \"universe\": %d, \"base_rows\": %d, \"query\": %S,\n" universe_size
    base_rows query;
  p "  \"insert\": {\"ops\": %d, \"batch_size\": %d, \"ops_per_sec\": %.0f},\n"
    ops_total batch_size ops_per_sec;
  p "  \"cold_estimate_ms\": [\n";
  List.iteri
    (fun i (f, lat) ->
      p
        "    {\"delta_fraction\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n"
        f (pct lat 0.50) (pct lat 0.99)
        (if i = List.length cold - 1 then "" else ","))
    cold;
  p "  ],\n";
  p "  \"rebuilt_baseline\": {\"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
    rebuilt_p50 (pct rebuilt_lat 0.99);
  p "  \"merge_pause\": {\"trials\": %d, \"delta_rows\": %d, \"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
    merge_trials (List.length merge_ops) (pct merge_lat 0.50)
    (pct merge_lat 0.99);
  p "  \"post_merge\": {\"p50_ms\": %.3f, \"within_10pct_of_rebuilt\": %b},\n"
    post_p50 gate_ok;
  p
    "  \"note\": \"cold pays the main+delta view merge on a fresh db per \
     trial; the gate requires post-merge cold p50 within 10%% (+0.25 ms \
     timer floor) of the rebuilt-from-scratch baseline\"\n";
  p "}\n";
  close_out oc;
  Format.printf "live: insert        %d ops in %.3f s  (%.0f ops/s)@."
    ops_total insert_s ops_per_sec;
  List.iter
    (fun (f, lat) ->
      Format.printf "live: cold %.2f     p50 %7.3f ms  p99 %7.3f ms@." f
        (pct lat 0.50) (pct lat 0.99))
    cold;
  Format.printf "live: rebuilt       p50 %7.3f ms  p99 %7.3f ms@." rebuilt_p50
    (pct rebuilt_lat 0.99);
  Format.printf "live: merge pause   p50 %7.3f ms  p99 %7.3f ms@."
    (pct merge_lat 0.50) (pct merge_lat 0.99);
  Format.printf "live: post-merge    p50 %7.3f ms  within 10%% of rebuilt: %b@."
    post_p50 gate_ok;
  if not gate_ok then exit 1

(* --- sharded fleet scatter-gather (BENCH_fleet.json) ---

   Boots real acqd processes — W workers plus one router that cuts the
   database into W hash shards and ships them over LOAD — and drives
   concurrent cold COUNTs (distinct seeds, result caches off) at the
   router, for W = 1 and W = 2. Each request scatters across the fleet,
   every worker estimating over its ~1/W-size shard at delta/W, so with
   real cores behind the workers the 2-shard fleet should beat the
   1-shard fleet on throughput.

   Gate (checked here and by scripts/ci.sh, exit 1): 2-worker cold
   throughput >= 1.4x 1-worker, enforced only on a multi-core host —
   on 1 core the sweep measures scatter overhead, which the JSON
   records honestly. *)

let run_fleet () =
  let module Client = Ac_server.Client in
  let module Wire = Ac_server.Wire in
  let acqd =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "acqd.exe"))
  in
  if not (Sys.file_exists acqd) then begin
    Format.printf "fleet: daemon binary missing at %s (build bin/acqd first)@."
      acqd;
    exit 1
  end;
  let db = G.to_structure (G.random_gnp ~rng:(rng_of 41) 160 0.08) in
  let db_file = Filename.temp_file "acq_fleet_db" ".txt" in
  Ac_relational.Structure_io.save db_file db;
  (* shardable: the free x sits at column 0 of every E atom *)
  let query = "ans(x,y,z) :- E(x,y), E(x,z), y != z" in
  let tmp = Filename.get_temp_dir_name () in
  let sock tag =
    Filename.concat tmp (Printf.sprintf "acq-fleet-%d-%s.sock" (Unix.getpid ()) tag)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let spawn args =
    Unix.create_process acqd
      (Array.of_list (acqd :: args))
      devnull Unix.stdout Unix.stderr
  in
  let rec wait_ready ?(tries = 200) path =
    if tries = 0 then failwith ("bench fleet: daemon never came up on " ^ path)
    else
      let up =
        match Client.connect (Client.Unix_socket path) with
        | Error _ -> false
        | Ok c ->
            let ok =
              match Client.call c Wire.Ping with Ok Wire.Pong -> true | _ -> false
            in
            Client.close c;
            ok
      in
      if not up then begin
        Thread.delay 0.05;
        wait_ready ~tries:(tries - 1) path
      end
  in
  let kill pids =
    List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
    List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids
  in
  let threads = 4 and requests_per_thread = 10 in
  let measure ~workers =
    let worker_socks =
      List.init workers (fun i -> sock (Printf.sprintf "%dw%d" workers i))
    in
    let router_sock = sock (Printf.sprintf "%dr" workers) in
    let worker_pids =
      List.map
        (fun s -> spawn [ "--socket"; s; "--result-cache"; "0" ])
        worker_socks
    in
    List.iter wait_ready worker_socks;
    let router_pid =
      spawn
        ([ "--socket"; router_sock; "--load"; "g=" ^ db_file;
           "--result-cache"; "0"; "--partition"; "hash:0" ]
        @ List.concat_map (fun s -> [ "--worker"; "unix:" ^ s ]) worker_socks)
    in
    let pids = router_pid :: worker_pids in
    Fun.protect
      ~finally:(fun () ->
        kill pids;
        List.iter
          (fun s -> try Sys.remove s with Sys_error _ -> ())
          (router_sock :: worker_socks))
      (fun () ->
        wait_ready router_sock;
        let failures = Atomic.make 0 in
        let count client seed =
          let params =
            Wire.params ~eps:0.4 ~delta:0.1 ~seed ~db:(Wire.Named "g") query
          in
          match Client.call client (Wire.Count params) with
          | Ok (Wire.Counted o) when not o.Wire.degraded -> ()
          | _ -> Atomic.incr failures
        in
        (* warm the plan path once so the timed region is pure scatter *)
        (match Client.connect (Client.Unix_socket router_sock) with
        | Ok c ->
            count c 1;
            Client.close c
        | Error e -> failwith ("bench fleet: " ^ Ac_runtime.Error.message e));
        let t0 = Unix.gettimeofday () in
        let drivers =
          List.init threads (fun t ->
              Thread.create
                (fun () ->
                  match Client.connect (Client.Unix_socket router_sock) with
                  | Error _ -> Atomic.incr failures
                  | Ok c ->
                      for i = 0 to requests_per_thread - 1 do
                        count c (1000 + (t * requests_per_thread) + i)
                      done;
                      Client.close c)
                ())
        in
        List.iter Thread.join drivers;
        let dt = Unix.gettimeofday () -. t0 in
        if Atomic.get failures > 0 then
          failwith
            (Printf.sprintf "bench fleet: %d requests failed or degraded"
               (Atomic.get failures));
        float_of_int (threads * requests_per_thread) /. dt)
  in
  let rps1 = measure ~workers:1 in
  let rps2 = measure ~workers:2 in
  Unix.close devnull;
  (try Sys.remove db_file with Sys_error _ -> ());
  let cores = Domain.recommended_domain_count () in
  let speedup = rps2 /. rps1 in
  let multi_core = cores >= 2 in
  let gate_ok = (not multi_core) || speedup >= 1.4 in
  let oc = open_out "BENCH_fleet.json" in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"benchmark\": \"sharded acqd fleet, cold scatter-gather COUNT\",\n";
  p "  \"query\": %S,\n" query;
  p "  \"eps\": 0.4, \"delta\": 0.1,\n";
  p "  \"partition\": \"hash:0\",\n";
  p "  \"host_cores\": %d,\n" cores;
  p "  \"client_threads\": %d, \"requests_per_thread\": %d,\n" threads
    requests_per_thread;
  p "  \"sweep\": [\n";
  p "    {\"workers\": 1, \"req_per_sec\": %.2f},\n" rps1;
  p "    {\"workers\": 2, \"req_per_sec\": %.2f, \"speedup_vs_1\": %.2f}\n" rps2
    speedup;
  p "  ],\n";
  p "  \"gate\": \"2-worker >= 1.4x 1-worker cold throughput (multi-core only)\",\n";
  p "  \"gate_enforced\": %b,\n" multi_core;
  p "  \"gate_ok\": %b,\n" gate_ok;
  p
    "  \"note\": \"workers are separate acqd processes fed their hash \
     shard over LOAD; every request is seeded and cold (result caches \
     off), so req/sec measures scatter + per-shard estimation\"\n";
  p "}\n";
  close_out oc;
  Format.printf "fleet: 1 worker   %8.2f req/s@." rps1;
  Format.printf "fleet: 2 workers  %8.2f req/s  (x%.2f)@." rps2 speedup;
  Format.printf "fleet: gate (>=1.4x, %s): %b@."
    (if multi_core then "enforced" else Printf.sprintf "waived on %d core" cores)
    gate_ok;
  if not gate_ok then exit 1

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
  if List.mem "--server" args then run_server_bench ()
  else if List.mem "--obs" args then run_obs ()
  else if List.mem "--parallel" args then run_parallel ()
  else if List.mem "--chaos" args then run_chaos ()
  else if List.mem "--join" args then run_join ()
  else if List.mem "--cost" args then run_cost ()
  else if List.mem "--live" args then run_live ()
  else if List.mem "--fleet" args then run_fleet ()
  else begin
    if not micro_only then run_tables ();
    if not tables_only then run_micro ()
  end
