(* Pure parts of the acqd benchmark: workload definitions, the seeded
   request streams, percentile statistics and the metric name table.
   Everything here is deterministic and process-free, so the benchmark's
   own tests can pin it (see test_pb.ml). *)

module Wire = Ac_server.Wire
module Json = Ac_analysis.Json
module Structure = Ac_relational.Structure

let rng_of seed = Random.State.make [| seed |]

(* ---------- workloads ---------- *)

type workload = Estimate_cold | Serve_hot | Live_rw | Fleet_scatter

let workloads = [ Estimate_cold; Serve_hot; Live_rw; Fleet_scatter ]

let workload_name = function
  | Estimate_cold -> "estimate_cold"
  | Serve_hot -> "serve_hot"
  | Live_rw -> "live_rw"
  | Fleet_scatter -> "fleet_scatter"

let workload_of_name s =
  List.find_opt (fun w -> workload_name w = s) workloads

(* Queries, by the rung Auto picks for them on their workload's
   database (checked at run time: answers from another rung are reported
   as rung drift, since the workload then no longer measures what it
   claims). *)
let q_fpras = "ans(x, y) :- E(x, z), E(z, y)"
let q_tree_dp = "ans(x, y) :- E(x, z), y != z"
let q_path = "ans(x, y) :- E(x, y), E(y, z), x != z"
let q_triangle_neg = "ans(x, y) :- E(x, y), E(y, z), !E(x, z), x != z"
let q_fleet = "ans(x, y, z) :- E(x, y), E(x, z), y != z"

(* The queries a workload sends and the rung each must be answered by
   (for the fleet: the rung of every shard). *)
let queries = function
  | Estimate_cold -> [ (q_fpras, "fpras"); (q_tree_dp, "tree-dp") ]
  | Serve_hot -> [ (q_path, "exact"); (q_triangle_neg, "exact") ]
  | Live_rw -> [ (q_triangle_neg, "exact") ]
  | Fleet_scatter -> [ (q_fleet, "exact") ]

let eps = function Estimate_cold -> 0.5 | Fleet_scatter -> 0.4 | _ -> 0.25
let delta = function Estimate_cold -> 0.25 | _ -> 0.1

(* Databases are fixed per workload (the seed varies the request
   stream, not the data), so every seed exercises the same cost class. *)
let database = function
  | Estimate_cold ->
      Ac_workload.Dbgen.random_structure ~rng:(rng_of 1401) ~universe_size:20
        [ ("E", 2, 60) ]
  | Serve_hot ->
      Ac_workload.Dbgen.random_structure ~rng:(rng_of 1402) ~universe_size:40
        [ ("E", 2, 200) ]
  | Live_rw ->
      Ac_workload.Dbgen.random_structure ~rng:(rng_of 1403) ~universe_size:60
        [ ("E", 2, 600) ]
  | Fleet_scatter ->
      Ac_workload.Graph.to_structure
        (Ac_workload.Graph.random_gnp ~rng:(rng_of 41) 160 0.08)

(* Operations per second of --seconds: a run sends exactly
   [seconds * rate] operations, so its work is a function of (workload,
   seed, seconds) alone and its percentiles are taken over a fixed sample
   count. At 12 s, runs take 6-14 s on a 2-core x86-64 VM. serve_hot
   sends the most: at half its rate, its p99 spread by 0.06-0.08 across
   seeds, at this rate by 0.03. *)
let nominal_rate = function
  | Estimate_cold -> 30.0
  | Serve_hot -> 40_000.0
  | Live_rw -> 500.0
  | Fleet_scatter -> 60.0

let stream_length w ~seconds =
  max 1 (int_of_float (Float.round (float_of_int seconds *. nominal_rate w)))

(* serve_hot replays this many distinct (query, seed) pairs *)
let hot_pairs = 24

(* live_rw: rows per INSERT/DELETE batch. Each batch is followed by one
   COUNT: with a second read per version, or a second query, the p50
   sits between two cost modes and swings. *)
let live_batch = 16

(* live_rw merge policy handed to the daemon: the delta reaches the
   threshold after ~8 insert+delete cycles *)
let live_merge_threshold = 240
let live_merge_ratio = 0.1

(* ---------- request streams ---------- *)

type op =
  | Count of { query : string; seed : int }
  | Mutate of { insert : bool; tuples : int array list; batch : string }

let is_count = function Count _ -> true | Mutate _ -> false

(* Request seeds: SplitMix-derived from the workload seed, so distinct
   indices give distinct seeds and the stream is a pure function of the
   workload seed. *)
let request_seed ~seed i = Ac_exec.Seeds.derive ~seed i land 0x3FFF_FFFF

let hot_pair_list ~seed =
  let qs = Array.of_list (queries Serve_hot) in
  List.init hot_pairs (fun i ->
      (fst qs.(i mod Array.length qs), request_seed ~seed (1_000_000 + i)))

(* live_rw's generator tracks the live edge set so that DELETE batches
   remove live rows (tombstones in the sealed main segment, or delta
   inserts) and the database keeps its size while its delta grows. *)
module Live_set = struct
  type t = {
    mutable rows : (int * int) array;
    mutable n : int;
    index : (int * int, int) Hashtbl.t;
  }

  let create () = { rows = Array.make 64 (0, 0); n = 0; index = Hashtbl.create 64 }

  let add t e =
    if not (Hashtbl.mem t.index e) then begin
      if t.n = Array.length t.rows then begin
        let bigger = Array.make (2 * t.n) (0, 0) in
        Array.blit t.rows 0 bigger 0 t.n;
        t.rows <- bigger
      end;
      t.rows.(t.n) <- e;
      Hashtbl.replace t.index e t.n;
      t.n <- t.n + 1
    end

  let remove t e =
    match Hashtbl.find_opt t.index e with
    | None -> ()
    | Some i ->
        let last = t.rows.(t.n - 1) in
        t.rows.(i) <- last;
        Hashtbl.replace t.index last i;
        Hashtbl.remove t.index e;
        t.n <- t.n - 1

  let of_structure db =
    let t = create () in
    (match Structure.relation_opt db "E" with
    | Some r -> Ac_relational.Relation.iter (fun tp -> add t (tp.(0), tp.(1))) r
    | None -> ());
    t
end

let live_stream ~seed ~n =
  let db = database Live_rw in
  let u = Structure.universe_size db in
  let live = Live_set.of_structure db in
  let rng = rng_of seed in
  let query = fst (List.hd (queries Live_rw)) in
  let ops = ref [] and len = ref 0 and cycle = ref 0 in
  let push op =
    if !len < n then begin
      ops := op :: !ops;
      incr len
    end
  in
  while !len < n do
    let insert = !cycle mod 2 = 0 in
    (* inserts draw absent edges and deletes draw live ones, so every
       op changes the live set and its size stays put *)
    let rec absent () =
      let e = (Random.State.int rng u, Random.State.int rng u) in
      if Hashtbl.mem live.Live_set.index e then absent () else e
    in
    let tuples =
      List.init live_batch (fun _ ->
          let e =
            if insert then absent ()
            else live.Live_set.rows.(Random.State.int rng live.Live_set.n)
          in
          if insert then Live_set.add live e else Live_set.remove live e;
          [| fst e; snd e |])
    in
    push
      (Mutate
         { insert; tuples; batch = Printf.sprintf "s%d-b%d" seed !cycle });
    push (Count { query; seed = request_seed ~seed !cycle });
    incr cycle
  done;
  Array.of_list (List.rev !ops)

let stream w ~seed ~n =
  match w with
  | Estimate_cold ->
      (* two fpras requests to one tree-dp request, interleaved, every
         request under a fresh seed: the result cache always misses *)
      Array.init n (fun i ->
          let query = if i mod 3 = 2 then q_tree_dp else q_fpras in
          Count { query; seed = request_seed ~seed i })
  | Serve_hot ->
      let pairs = Array.of_list (hot_pair_list ~seed) in
      let rng = rng_of seed in
      Array.init n (fun _ ->
          let query, s = pairs.(Random.State.int rng (Array.length pairs)) in
          Count { query; seed = s })
  | Live_rw -> live_stream ~seed ~n
  | Fleet_scatter ->
      Array.init n (fun i -> Count { query = q_fleet; seed = request_seed ~seed i })

let db_name = "g"

let to_request w = function
  | Count { query; seed } ->
      Wire.Count
        (Wire.params ~eps:(eps w) ~delta:(delta w) ~seed ~db:(Wire.Named db_name)
           query)
  | Mutate { insert = true; tuples; batch } ->
      Wire.Insert
        { db = Wire.Named db_name; rel = "E"; tuples; batch_id = Some batch }
  | Mutate { insert = false; tuples; batch } ->
      Wire.Delete
        { db = Wire.Named db_name; rel = "E"; tuples; batch_id = Some batch }

(* The stream exactly as it travels: one wire line per operation. *)
let render_stream w ops =
  let b = Buffer.create 4096 in
  Array.iter
    (fun op ->
      Buffer.add_string b (Json.to_string (Wire.request_to_json (to_request w op)));
      Buffer.add_char b '\n')
    ops;
  Buffer.contents b

(* ---------- statistics ---------- *)

(* [quantile sorted p] — nearest-rank quantile of an ascending array,
   [p] in [0, 1]. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let s = Array.copy xs in
  Array.sort compare s;
  quantile s 0.5

let tail_grid = [ 0.99; 0.95; 0.90; 0.75; 0.5 ]

(* The samples a tail percentile of [n] samples must have strictly
   beyond its nearest rank: at least ten, and at least sqrt n. The
   second floor is for the host: bursts of interference shorter than a
   probe (see below) land on about 1% of live_rw's 3000 COUNTs, in
   numbers that differ from run to run. Its p99, with 30 samples beyond,
   spread by 0.22 across seeds, and its p95, with 150 beyond, by 0.04. *)
let tail_floor n = max 10 (int_of_float (Float.ceil (Float.sqrt (float_of_int n))))

(* The tail percentile of [n] samples: the highest grid percentile with
   at least [tail_floor n] samples beyond it. [None] when even the
   median has too few (n < 20). The grid stops at p99: on sub-0.1 ms
   requests the p99.9 sits on the edge of the daemon's minor-GC pauses
   (about one per thousand requests) and swung by 40% between runs of
   the same code. *)
let tail_percentile n =
  List.find_opt
    (fun p ->
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      n - rank >= tail_floor n)
    tail_grid

(* ---------- host-speed normalisation ---------- *)

(* The host is a shared VM whose speed switches between states up to
   1.9x apart, for seconds at a time, and drifts over minutes. Between
   two operations of the timed stream, at most every [probe_interval_s],
   the client has a helper process on the same pinned core run a fixed
   probe (stdlib work only, no code of the program under test). Each
   operation's time is scaled by [probe_ref_ms] over the median of the
   [probe_window] probes nearest to it: the metrics are times on a host
   where the probe takes [probe_ref_ms]. *)
let probe_interval_s = 0.01
let probe_window = 5
let probe_ref_ms = 0.3

(* [window_median ~at ~dur t] — the median of the [probe_window]
   durations whose start times (ascending [at]) are nearest to [t]:
   the window is centred on the last probe at or before [t] and
   shifted to stay inside the array. [nan] when there are no probes. *)
let window_median ~at ~dur t =
  let n = Array.length at in
  if n = 0 then nan
  else begin
    (* last index with at.(i) <= t, or 0 *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if at.(mid) <= t then lo := mid else hi := mid - 1
    done;
    let k = min probe_window n in
    let first = max 0 (min (n - k) (!lo - (k / 2))) in
    let xs = Array.sub dur first k in
    Array.sort compare xs;
    if k mod 2 = 1 then xs.(k / 2) else (xs.((k / 2) - 1) +. xs.(k / 2)) /. 2.0
  end

let percentile_label p =
  let s = Printf.sprintf "%g" (100.0 *. p) in
  "p" ^ s

(* ---------- metric names ---------- *)

type metric = { name : string; unit_ : string }

(* The metric tables, read from BENCHMARK.json (its "end_to_end" and
   "per_layer" lists), so the file is the one place that names them. *)
let metric_tables json =
  let table key =
    match Option.bind (Json.mem key json) Json.to_list with
    | None -> Error (Printf.sprintf "no %S list" key)
    | Some ms ->
        List.fold_right
          (fun m acc ->
            match
              ( acc,
                Option.bind (Json.mem "name" m) Json.to_str,
                Option.bind (Json.mem "unit" m) Json.to_str )
            with
            | Ok acc, Some name, Some unit_ -> Ok ({ name; unit_ } :: acc)
            | (Error _ as e), _, _ -> e
            | Ok _, _, _ -> Error (Printf.sprintf "a %S entry lacks a name or unit" key))
          ms (Ok [])
  in
  match (table "end_to_end", table "per_layer") with
  | Ok e, Ok p -> Ok (e, p)
  | (Error m, _ | _, Error m) -> Error m

let load_metric_tables path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> (
      match Json.parse text with
      | Error e -> Error (path ^ ": " ^ Json.error_message e)
      | Ok json -> Result.map_error (fun m -> path ^ ": " ^ m) (metric_tables json))

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* The result line: one JSON object with the keys correct, attempted,
   failed and metrics (name -> value, unit). Values print with all
   their digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
  in
  let fields =
    List.map
      (fun ({ name; unit_ }, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)
