(* acqbench — runs one acqd benchmark workload.

     acqbench --acqd PATH --workload NAME --seed N --seconds S --trace 0|1

   Starts real acqd processes under a run directory (relative to the
   working directory), sends the workload's seeded operation stream as a
   closed loop from one client over one connection, checks every answer
   and prints the end-to-end metrics (--trace 0) or the per-layer
   metrics of an in-process traced replay (--trace 1). The last line of
   standard output is the JSON result. Every daemon is stopped and
   reaped, and the run directory removed, on every exit path. *)

module Wire = Ac_server.Wire
module Client = Ac_server.Client
module Cache = Ac_server.Cache
module Catalog = Ac_server.Catalog
module Scheduler = Ac_server.Scheduler
module Router = Ac_server.Router
module Partition = Ac_server.Partition
module Manifest = Ac_server.Manifest
module Json = Ac_analysis.Json
module Report = Ac_analysis.Report
module Cost = Ac_analysis.Cost
module Api = Approxcount.Api
module Planner = Approxcount.Planner
module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Structure_io = Ac_relational.Structure_io
module Live = Ac_live.Live
module Journal = Ac_live.Journal
module Trace = Ac_obs.Trace
module Error = Ac_runtime.Error

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let info fmt = Printf.printf (fmt ^^ "\n%!")

(* ---------- child processes ---------- *)

let run_dir = ref ""
let children : (int * string) list ref = ref []

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* SIGTERM (acqd drains and exits 0), then SIGKILL after a grace
   period; returns only once every child is reaped. *)
let stop pids =
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) pids;
  let deadline = now () +. 5.0 in
  let rec wait pending =
    let pending = List.filter (fun pid -> not (reap pid)) pending in
    if pending <> [] then
      if now () > deadline then begin
        List.iter
          (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
          pending;
        List.iter
          (fun pid ->
            try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
          pending
      end
      else begin
        Unix.sleepf 0.005;
        wait pending
      end
  in
  wait pids;
  children := List.filter (fun (p, _) -> not (List.mem p pids)) !children

let cleanup () =
  stop (List.map fst !children);
  if !run_dir <> "" then begin
    remove_tree !run_dir;
    run_dir := ""
  end

let acqd = ref ""

let spawn ~name args =
  let log =
    Unix.openfile
      (Filename.concat !run_dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process !acqd (Array.of_list (!acqd :: args)) devnull log log
  in
  Unix.close log;
  Unix.close devnull;
  children := (pid, name) :: !children;
  pid

let log_tail name =
  let path = Filename.concat !run_dir (name ^ ".log") in
  match In_channel.with_open_text path In_channel.input_all with
  | s ->
      let n = String.length s in
      String.trim (if n > 400 then String.sub s (n - 400) 400 else s)
  | exception Sys_error _ -> ""

(* Poll until the daemon answers PING; name it if it exits or never
   comes up. *)
let wait_ready ~name ~pid sock =
  let deadline = now () +. 60.0 in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _, status ->
        children := List.filter (fun (p, _) -> p <> pid) !children;
        let code =
          match status with
          | Unix.WEXITED c -> Printf.sprintf "exit code %d" c
          | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
          | Unix.WSTOPPED s -> Printf.sprintf "stop %d" s
        in
        fail "daemon %s exited (%s) before answering on %s: %s" name code sock
          (log_tail name));
    let up =
      Sys.file_exists sock
      &&
      match Client.connect (Client.Unix_socket sock) with
      | Error _ -> false
      | Ok c ->
          let ok =
            match Client.call c Wire.Ping with Ok Wire.Pong -> true | _ -> false
          in
          Client.close c;
          ok
    in
    if not up then
      if now () > deadline then
        fail "daemon %s never came up on %s within 60 s: %s" name sock
          (log_tail name)
      else begin
        Unix.sleepf 0.001;
        go ()
      end
  in
  go ()

(* Minor page faults of a process so far (field 10 of /proc/PID/stat,
   counted after the parenthesised command name). *)
let minor_faults pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
  with
  | s -> (
      match String.rindex_opt s ')' with
      | None -> 0
      | Some i -> (
          let fields =
            String.split_on_char ' ' (String.trim (String.sub s (i + 1) (String.length s - i - 1)))
          in
          match List.nth_opt fields 7 with
          | Some v -> Option.value (int_of_string_opt v) ~default:0
          | None -> 0))
  | exception Sys_error _ -> 0

let vm_hwm_mb pid =
  match
    In_channel.with_open_text
      (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.0
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0.0 (String.split_on_char '\n' s)
  | exception Sys_error _ -> 0.0

(* ---------- the client side ---------- *)

let connect sock =
  match Client.connect (Client.Unix_socket sock) with
  | Ok c -> c
  | Error e -> fail "cannot connect to %s: %s" sock (Error.message e)

(* What the benchmark keeps of each answer for the untimed checks. *)
type answer =
  | A_count of { estimate : float; exact : bool; degraded : bool; rung : string option }
  | A_mutated of { version : int; replayed : bool }
  | A_refused of string

let answer_of = function
  | Ok (Wire.Counted o) ->
      A_count
        {
          estimate = o.Wire.estimate;
          exact = o.Wire.exact;
          degraded = o.Wire.degraded;
          rung = o.Wire.rung;
        }
  | Ok (Wire.Mutated { db_version; replayed; _ }) ->
      A_mutated { version = db_version; replayed }
  | Ok (Wire.Refused { error_class; message; _ }) ->
      A_refused (Printf.sprintf "refused [%s] %s" error_class message)
  | Ok _ -> A_refused "unexpected response verb"
  | Error e -> A_refused ("transport: " ^ Error.message e)

(* The timed loop keeps answers in flat arrays, so the client's heap
   stays small while it measures. *)
let rungs = [| "exact"; "fpras"; "tree-dp"; "generic-join"; "partial" |]

type answers = {
  estimate : float array;
  code : int array;
      (** -1 refused; COUNT: bit 0 exact, bit 1 degraded, bits 2.. rung
          index + 1 (0 = none); mutation: db_version * 2 + replayed *)
  refusals : (int, string) Hashtbl.t;
}

let rung_index = function
  | None -> 0
  | Some r ->
      let rec find i = if i = Array.length rungs then 0 else if rungs.(i) = r then i + 1 else find (i + 1) in
      find 0

let store (a : answers) i = function
  | Ok (Wire.Counted o) ->
      a.estimate.(i) <- o.Wire.estimate;
      a.code.(i) <-
        Bool.to_int o.Wire.exact + (2 * Bool.to_int o.Wire.degraded) + (4 * rung_index o.Wire.rung)
  | Ok (Wire.Mutated { db_version; replayed; _ }) ->
      a.code.(i) <- (2 * db_version) + Bool.to_int replayed
  | r -> (
      a.code.(i) <- -1;
      match answer_of r with
      | A_refused m -> Hashtbl.replace a.refusals i m
      | _ -> Hashtbl.replace a.refusals i "answer does not match the operation")

let answer (a : answers) op i =
  if a.code.(i) < 0 then
    A_refused (Option.value (Hashtbl.find_opt a.refusals i) ~default:"refused")
  else
    match op with
    | Pb.Count _ ->
        let c = a.code.(i) in
        A_count
          {
            estimate = a.estimate.(i);
            exact = c land 1 = 1;
            degraded = c land 2 = 2;
            rung = (match c lsr 2 with 0 -> None | k -> Some rungs.(k - 1));
          }
    | Pb.Mutate _ -> A_mutated { version = a.code.(i) / 2; replayed = a.code.(i) land 1 = 1 }

(* ---------- a deployment: the daemons one workload runs against ---------- *)

type deployment = {
  sock : string;  (** where the client connects *)
  pids : int list;
  workers : string list;  (** worker sockets (fleet only) *)
}

let db_file = ref ""

let deploy w ~rep =
  let tag s = Printf.sprintf "%s%d" s rep in
  let sock s = Filename.concat !run_dir (tag s ^ ".sock") in
  let load = [ "--load"; Pb.db_name ^ "=" ^ !db_file ] in
  match w with
  | Pb.Estimate_cold | Pb.Serve_hot ->
      let s = sock "d" in
      let pid = spawn ~name:(tag "acqd") ([ "--socket"; s ] @ load) in
      wait_ready ~name:(tag "acqd") ~pid s;
      { sock = s; pids = [ pid ]; workers = [] }
  | Pb.Live_rw ->
      let s = sock "d" in
      let dir = Filename.concat !run_dir (tag "journal") in
      Unix.mkdir dir 0o755;
      let pid =
        spawn ~name:(tag "acqd")
          ([
             "--socket"; s; "--manifest"; Filename.concat dir "manifest";
             "--merge-threshold"; string_of_int Pb.live_merge_threshold;
             "--merge-ratio"; Printf.sprintf "%g" Pb.live_merge_ratio;
           ]
          @ load)
      in
      wait_ready ~name:(tag "acqd") ~pid s;
      { sock = s; pids = [ pid ]; workers = [] }
  | Pb.Fleet_scatter ->
      (* workers keep no result cache: every stream request carries a
         fresh seed anyway, and the traced replay's identical shard
         requests must do the shard's work again, not replay it *)
      let ws = List.init 2 (fun i -> sock (Printf.sprintf "w%d-" i)) in
      let wpids =
        List.mapi
          (fun i s ->
            spawn
              ~name:(tag (Printf.sprintf "worker%d-" i))
              [ "--socket"; s; "--result-cache"; "0" ])
          ws
      in
      List.iteri
        (fun i (s, pid) ->
          wait_ready ~name:(tag (Printf.sprintf "worker%d-" i)) ~pid s)
        (List.combine ws wpids);
      let s = sock "r" in
      let rpid =
        spawn ~name:(tag "router")
          ([ "--socket"; s; "--partition"; "hash:0" ]
          @ List.concat_map (fun w -> [ "--worker"; "unix:" ^ w ]) ws
          @ load)
      in
      wait_ready ~name:(tag "router") ~pid:rpid s;
      { sock = s; pids = rpid :: wpids; workers = ws }

(* Warm-up: what the daemon must have done before the timed stream —
   plan cache filled for every query (and, on serve_hot, the result
   cache for every replayed pair). Seeds below 0 never occur in a
   stream. *)
let hot_ops w ~seed =
  match w with
  | Pb.Serve_hot ->
      List.map (fun (query, s) -> Pb.Count { query; seed = s }) (Pb.hot_pair_list ~seed)
  | _ -> []

(* Returns the jobs count the daemon resolved for the (jobs-less)
   warm-up COUNTs. *)
let warm_up w ~seed client =
  let jobs = ref 0 in
  let ops =
    match w with
    | Pb.Serve_hot -> hot_ops w ~seed
    | _ ->
        List.mapi
          (fun i (query, _) -> Pb.Count { query; seed = -1 - i })
          (Pb.queries w)
  in
  List.iter
    (fun op ->
      match Client.call client (Pb.to_request w op) with
      | Ok (Wire.Counted o) -> jobs := o.Wire.jobs
      | r -> (
          match answer_of r with
          | A_refused m -> fail "warm-up request failed: %s" m
          | _ -> fail "warm-up request got an unexpected answer"))
    ops;
  !jobs

(* ---------- host-speed probe ---------- *)

(* A fixed piece of OCaml work that calls no code of the program under
   test, so no change to the program moves it: fill a hash table, map,
   sort, and format into a buffer, over 1024 fixed keys. It exercises
   what the program's requests do (allocation, hashing, compares,
   strings); of three probes tried, it tracked the host best on every
   workload (see README.md). Returns its duration in seconds. See
   Pb.probe_ref_ms for how the metrics use it. *)
let probe_keys = Array.init 1024 (fun i -> (i * 40503) land 0xFFFF)

let probe_work () =
  let t0 = now () in
  let h = Hashtbl.create 64 in
  Array.iter (fun k -> Hashtbl.replace h k (k + 1)) probe_keys;
  let a = Array.map (fun k -> Hashtbl.find h k) probe_keys in
  Array.stable_sort compare a;
  let b = Buffer.create 1024 in
  Array.iter (fun k -> Buffer.add_string b (string_of_int k)) a;
  ignore (Sys.opaque_identity (Buffer.length b));
  now () -. t0

(* The probe runs in a helper process (this executable with
   --probe-helper) whose heap never changes. In the client, the state of
   its own heap, quiet during the stream and busy during the traced
   replay, would move the probe's allocation and GC costs: the same
   probe ran 54% slower in the replay than in the stream of the same
   run. A byte on the helper's stdin asks for one probe; it answers
   with the probe's duration in seconds on a line. *)
let probe_helper () =
  let buf = Bytes.create 1 in
  let rec serve () =
    match Unix.read Unix.stdin buf 0 1 with
    | 0 -> exit 0
    | _ ->
        Printf.printf "%h\n%!" (probe_work ());
        serve ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> serve ()
  in
  serve ()

let helper = ref None

let start_probe_helper () =
  let to_r, to_w = Unix.pipe ~cloexec:true () in
  let from_r, from_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--probe-helper" |]
      to_r from_w Unix.stderr
  in
  Unix.close to_r;
  Unix.close from_w;
  children := (pid, "probe-helper") :: !children;
  helper := Some (Unix.out_channel_of_descr to_w, Unix.in_channel_of_descr from_r)

let probe () =
  match !helper with
  | None -> fail "the probe helper is not running"
  | Some (oc, ic) -> (
      output_char oc 'p';
      flush oc;
      match float_of_string_opt (input_line ic) with
      | Some d -> d
      | None -> fail "the probe helper sent a malformed reply")

(* Probe durations recorded with their start times, ascending. *)
type probes = { mutable at : float array; mutable dur : float array; mutable n : int }

let probes () = { at = Array.make 1024 0.0; dur = Array.make 1024 0.0; n = 0 }

let record p =
  if p.n = Array.length p.at then begin
    p.at <- Array.append p.at (Array.make p.n 0.0);
    p.dur <- Array.append p.dur (Array.make p.n 0.0)
  end;
  let t = now () in
  p.at.(p.n) <- t;
  p.dur.(p.n) <- probe ();
  p.n <- p.n + 1

(* [probe_due p] — record a probe if none ran in the last
   Pb.probe_interval_s. *)
let probe_due p =
  if p.n = 0 || now () -. p.at.(p.n - 1) >= Pb.probe_interval_s then record p

let recorded p = (Array.sub p.at 0 p.n, Array.sub p.dur 0 p.n)

(* [probe_window] probes in a row, for a phase too short to probe
   during. *)
let burst p = for _ = 1 to Pb.probe_window do record p done

(* The host-speed factor for a probe time of [s] seconds, and the
   factor of a whole phase: Pb.probe_ref_ms over its median probe. *)
let factor_of s = Pb.probe_ref_ms /. (1000.0 *. s)
let phase_factor p = if p.n = 0 then 1.0 else factor_of (Pb.median (snd (recorded p)))

(* The host-speed factor at time [t]: the median probe near [t]. *)
let factor_at (at, dur) t = factor_of (Pb.window_median ~at ~dur t)

let setup_reps = 11

(* Set up [setup_reps] times, keeping the last deployment for the timed
   stream. Each set-up is scaled by the host speed measured right before
   and right after it; the median is reported. *)
let setup w ~seed =
  let raw = Array.make setup_reps 0.0 and scaled = Array.make setup_reps 0.0 in
  let last = ref None in
  for rep = 0 to setup_reps - 1 do
    let p = probes () in
    burst p;
    let t0 = now () in
    let d = deploy w ~rep in
    let c = connect d.sock in
    let jobs = warm_up w ~seed c in
    raw.(rep) <- now () -. t0;
    burst p;
    scaled.(rep) <- raw.(rep) *. phase_factor p;
    if rep = 0 then
      info "jobs: unset in requests, resolved by the daemon to %d (Engine.default_jobs)" jobs;
    if rep < setup_reps - 1 then begin
      Client.close c;
      stop d.pids
    end
    else last := Some (d, c)
  done;
  match !last with Some (d, c) -> (d, c, raw, scaled) | None -> assert false

(* ---------- the timed stream ---------- *)

type run = {
  ops : Pb.op array;
  answers : answers;
  lat_ms : float array;  (** per op, in stream order *)
  stamps : float array;  (** send time of op i; [stamps.(n)] is the end *)
  gap : float array;  (** probe time just before op i ([gap.(n)] = 0) *)
  speed : float array * float array;  (** the probes: starts, durations *)
}

let timed_stream w client ops =
  let n = Array.length ops in
  let answers =
    { estimate = Array.make n 0.0; code = Array.make n (-1); refusals = Hashtbl.create 8 }
  in
  let lat = Array.make n 0.0 and stamps = Array.make (n + 1) 0.0 in
  let gap = Array.make (n + 1) 0.0 in
  let reqs = Array.map (Pb.to_request w) ops in
  let p = probes () in
  Gc.compact ();
  for i = 0 to n - 1 do
    let t0 = now () in
    probe_due p;
    let t = now () in
    gap.(i) <- t -. t0;
    stamps.(i) <- t;
    let r = Client.call client reqs.(i) in
    lat.(i) <- (now () -. t) *. 1000.0;
    store answers i r
  done;
  stamps.(n) <- now ();
  { ops; answers; lat_ms = lat; stamps; gap; speed = recorded p }

(* Per op: the host-speed factor at its send time. *)
let factors run =
  Array.init (Array.length run.ops) (fun i -> factor_at run.speed run.stamps.(i))

(* The latencies of the ops satisfying [pred], each times [scale i],
   ascending. *)
let sorted_latencies run ~scale pred =
  let acc = ref [] in
  for i = Array.length run.ops - 1 downto 0 do
    if pred run.ops.(i) then acc := (run.lat_ms.(i) *. scale i) :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

let tail_of sorted =
  match Pb.tail_percentile (Array.length sorted) with
  | Some p -> (p, Pb.quantile sorted p)
  | None -> (1.0, if Array.length sorted = 0 then nan else sorted.(Array.length sorted - 1))

let beyond p n = n - int_of_float (Float.ceil (p *. float_of_int n))

(* p50, tail and rate of the ops satisfying [pred] over the whole
   stream, scaled op by op by [factor] (see Pb.probe_ref_ms). The rate
   divides by the time of the whole stream, every op included, less
   the probes. The raw figures are printed next to the scaled ones. *)
let summary label run ~factor pred =
  let n_ops = Array.length run.ops in
  let rate scale =
    let wall = ref 0.0 and k = ref 0 in
    for i = 0 to n_ops - 1 do
      if pred run.ops.(i) then incr k;
      wall := !wall +. ((run.stamps.(i + 1) -. run.stamps.(i) -. run.gap.(i + 1)) *. scale i)
    done;
    float_of_int !k /. !wall
  in
  let figures name scale =
    let lat = sorted_latencies run ~scale pred in
    let n = Array.length lat in
    let tail_p, tail = tail_of lat in
    let r = rate scale in
    info "%s: %s, %d samples: p50 %.4f ms, %s %.4f ms (%d beyond), %.1f/s" label name n
      (Pb.quantile lat 0.5) (Pb.percentile_label tail_p) tail (beyond tail_p n) r;
    (Pb.quantile lat 0.5, tail, r)
  in
  ignore (figures "raw" (fun _ -> 1.0));
  figures (Printf.sprintf "host-normalised to a %g ms probe" Pb.probe_ref_ms) (fun i ->
      factor.(i))

(* ---------- in-process reference answers ---------- *)

let api_request w (db : Structure.t) ~query ~seed ?trace ?delta () =
  Api.Request.make query db
  |> Api.Request.with_eps (Pb.eps w)
  |> Api.Request.with_delta (Option.value delta ~default:(Pb.delta w))
  |> Api.Request.with_seed (Some seed)
  |> Api.Request.with_trace trace

let parse q =
  match Ecq.parse_result q with Ok q -> q | Error e -> fail "parse %s: %s" q (Error.message e)

let api_run req =
  match Api.run req with Ok r -> r | Error e -> fail "in-process run: %s" (Error.message e)

let exact_count db query =
  let r =
    api_run
      (Api.Request.make query db |> Api.Request.with_method Api.Exact
     |> Api.Request.with_seed (Some 0))
  in
  r.Api.estimate

let bits = Int64.bits_of_float
let rung_of (r : Api.response) = Option.map Planner.rung_name r.Api.rung

(* fleet: the router's per-shard sub-request, replayed in process *)
let fleet_shards db =
  Partition.split (Partition.make ~strategy:Partition.Hash ~column:0 ~shards:2) db

let shard_seed ~seed i = Ac_exec.Seeds.derive ~seed i

(* ---------- checks ---------- *)

type verdict = {
  mutable failed : int;
  mutable first_failure : string option;
  mutable rung_drift : int;
}

let verdict () =
  { failed = 0; first_failure = None; rung_drift = 0 }

let flag v i msg =
  v.failed <- v.failed + 1;
  if v.first_failure = None then v.first_failure <- Some (Printf.sprintf "op %d: %s" i msg)

let check w ~db run =
  let v = verdict () in
  let expected_rung = Pb.queries w in
  let reference = Hashtbl.create 64 in
  let exact = Hashtbl.create 8 in
  let exact_of query =
    match Hashtbl.find_opt exact query with
    | Some x -> x
    | None ->
        let x = exact_count db (parse query) in
        Hashtbl.replace exact query x;
        x
  in
  let shards = lazy (fleet_shards db) in
  (* fleet: a shard whose Auto plan is the exact rung answers the same
     count for every seed (the plan depends on the query, the shard and
     (eps, delta) only), so its answer is computed once *)
  let exact_shard = Hashtbl.create 4 in
  let shard_answer q ~query i s ~seed ~delta =
    match Hashtbl.find_opt exact_shard (query, i) with
    | Some x -> x
    | None ->
        let r = api_run (api_request w s ~query:q ~seed:(shard_seed ~seed i) ~delta ()) in
        if r.Api.exact then Hashtbl.replace exact_shard (query, i) r.Api.estimate;
        r.Api.estimate
  in
  (* one in-process run per distinct (query, seed) *)
  let reference_of query seed =
    match Hashtbl.find_opt reference (query, seed) with
    | Some r -> r
    | None ->
        let q = parse query in
        let r =
          match w with
          | Pb.Fleet_scatter ->
              let shards = Lazy.force shards in
              let delta = Pb.delta w /. float_of_int (Array.length shards) in
              let sum = ref 0.0 in
              Array.iteri
                (fun i s -> sum := !sum +. shard_answer q ~query i s ~seed ~delta)
                shards;
              !sum
          | _ -> (api_run (api_request w db ~query:q ~seed ())).Api.estimate
        in
        Hashtbl.replace reference (query, seed) r;
        r
  in
  (* live_rw: the rebuilt database, advanced along the stream *)
  let live_set =
    lazy
      (let t = Hashtbl.create 1024 in
       (match Structure.relation_opt db "E" with
       | Some r -> Ac_relational.Relation.iter (fun tp -> Hashtbl.replace t (tp.(0), tp.(1)) ()) r
       | None -> ());
       t)
  in
  let version = ref 0 in
  let rebuilt = ref None in
  let rebuilt_db () =
    match !rebuilt with
    | Some d -> d
    | None ->
        let facts =
          Hashtbl.fold (fun (a, b) () acc -> ("E", [| a; b |]) :: acc) (Lazy.force live_set) []
        in
        let d =
          Structure.seal
            (Structure.of_facts ~universe_size:(Structure.universe_size db) facts)
        in
        rebuilt := Some d;
        d
  in
  let live_answers = Hashtbl.create 16 in
  Array.iteri
    (fun i op ->
      match (op, answer run.answers op i) with
      | _, A_refused m -> flag v i m
      | Pb.Count { query; seed }, A_count o -> (
          if o.degraded then flag v i "degraded answer"
          else
            let want = List.assoc_opt query expected_rung in
            if want <> None && o.rung <> want then v.rung_drift <- v.rung_drift + 1;
            match w with
            | Pb.Live_rw ->
                let key = (!version, query, seed) in
                let r =
                  match Hashtbl.find_opt live_answers key with
                  | Some r -> r
                  | None ->
                      let r =
                        (api_run (api_request w (rebuilt_db ()) ~query:(parse query) ~seed ()))
                          .Api.estimate
                      in
                      Hashtbl.replace live_answers key r;
                      r
                in
                if bits r <> bits o.estimate then
                  flag v i
                    (Printf.sprintf "live read %h differs from the rebuilt snapshot's %h"
                       o.estimate r)
            | _ ->
                let r = reference_of query seed in
                if bits r <> bits o.estimate then
                  flag v i
                    (Printf.sprintf "estimate %h differs from in-process %h" o.estimate r)
                else if o.exact && o.estimate <> exact_of query then
                  flag v i
                    (Printf.sprintf "exact answer %g differs from the exact count %g"
                       o.estimate (exact_of query)))
      | Pb.Mutate { insert; tuples; _ }, A_mutated { version = got; replayed } ->
          incr version;
          if replayed then flag v i "fresh batch answered as a replay"
          else if got <> !version then
            flag v i (Printf.sprintf "db_version %d, expected %d" got !version);
          let set = Lazy.force live_set in
          List.iter
            (fun t ->
              if insert then Hashtbl.replace set (t.(0), t.(1)) ()
              else Hashtbl.remove set (t.(0), t.(1)))
            tuples;
          rebuilt := None
      | _ -> flag v i "answer does not match the operation")
    run.ops;
  v

(* ---------- per-layer accumulators for the traced replay ---------- *)

type layers = {
  mutable counts : int;  (** COUNTs replayed *)
  mutable computed : int;  (** COUNTs that reached Api.run *)
  mutable req_codec : float;  (** seconds, summed *)
  mutable resp_codec : float;
  mutable reply_bytes : int;
  mutable parse : float;
  mutable resolve : float;
  mutable cache : float;
  mutable result_lookups : int;
  mutable result_hits : int;
  mutable plan_lookups : int;
  mutable plan_hits : int;
  mutable admit : float;
  mutable analyze : float;
  mutable analyze_calls : int;
  mutable api : float;
  mutable first_rung : int;
  mutable attempts : int;
  rungs : (string, int) Hashtbl.t;
  spans : (string, int * float) Hashtbl.t;  (** span name -> count, ms *)
  mutable batches : int;
  mutable apply : float;
  mutable journal : float;
  mutable journal_bytes : int;
  mutable views : int;
  mutable view : float;
  mutable merges : int;
  mutable merge : float;
  mutable persist : float;
  mutable delta_rows : int;
  mutable scatter : float;
  mutable shard_max : float;
  mutable shard_min : float;
  mutable shard_answers : int;
  mutable exact_shards : int;
  mutable fallbacks : int;
  mutable split_ms : float;
  mutable rejected : int;  (** [Scheduler.stats] after the replay *)
  mutable traced_api_ms : float list;
  mutable untraced_api_ms : float list;
      (** the same calls without a collector, for [trace.overhead] *)
  speed : probes;  (** host-speed probes between replayed operations *)
}

let layers () =
  {
    counts = 0; computed = 0; req_codec = 0.; resp_codec = 0.; reply_bytes = 0;
    parse = 0.; resolve = 0.; cache = 0.; result_lookups = 0; result_hits = 0;
    plan_lookups = 0; plan_hits = 0; admit = 0.; analyze = 0.;
    analyze_calls = 0; api = 0.; first_rung = 0; attempts = 0;
    rungs = Hashtbl.create 4; spans = Hashtbl.create 16; batches = 0;
    apply = 0.; journal = 0.; journal_bytes = 0; views = 0; view = 0.;
    merges = 0; merge = 0.; persist = 0.; delta_rows = 0; scatter = 0.; shard_max = 0.;
    shard_min = 0.; shard_answers = 0; exact_shards = 0; fallbacks = 0;
    split_ms = 0.; rejected = 0; traced_api_ms = []; untraced_api_ms = [];
    speed = probes ();
  }

(* The traced replay's clock: real time scaled by the host-speed factor
   of the last probes (see [replay_probe]), so every layer time the
   replay takes is host-normalised as it is measured. *)
let clock_rate = ref 1.0
let clock_base = ref (0.0, 0.0)

let vnow () =
  let v0, r0 = !clock_base in
  v0 +. ((now () -. r0) *. !clock_rate)

(* Between two replayed operations: probe when due, and set the clock's
   rate from the last [Pb.probe_window] probes. *)
let replay_probe p =
  if p.n = 0 then burst p else probe_due p;
  let k = min p.n Pb.probe_window in
  let rate = factor_of (Pb.median (Array.sub p.dur (p.n - k) k)) in
  clock_base := (vnow (), now ());
  clock_rate := rate

let timed acc f =
  let t0 = vnow () in
  let r = f () in
  acc (vnow () -. t0);
  r

let add_spans l (s : Trace.summary) =
  List.iter
    (fun (a : Trace.agg) ->
      let c, ms = Option.value (Hashtbl.find_opt l.spans a.Trace.agg_name) ~default:(0, 0.) in
      Hashtbl.replace l.spans a.Trace.agg_name
        (c + a.Trace.count, ms +. (a.Trace.total_ms *. !clock_rate)))
    (Trace.summary_aggs s)

let request_codec l req =
  timed
    (fun dt -> l.req_codec <- l.req_codec +. dt)
    (fun () ->
      let line = Json.to_string (Wire.request_to_json req) in
      match Result.map Wire.request_of_json (Json.parse line) with
      | Ok (Ok r) -> r
      | _ -> fail "request codec round trip failed")

let response_codec l resp =
  timed
    (fun dt -> l.resp_codec <- l.resp_codec +. dt)
    (fun () ->
      let line = Json.to_string (Wire.response_to_json resp) in
      l.reply_bytes <- l.reply_bytes + String.length line + 1;
      match Result.map Wire.response_of_json (Json.parse line) with
      | Ok (Ok r) -> r
      | _ -> fail "response codec round trip failed")

let outcome_of (r : Api.response) =
  {
    Wire.estimate = r.Api.estimate;
    exact = r.Api.exact;
    rung = rung_of r;
    guarantee = r.Api.guarantee;
    degraded = r.Api.degraded;
    attempts = [];
    seed = r.Api.telemetry.Api.seed;
    jobs = r.Api.telemetry.Api.jobs;
    ticks = r.Api.telemetry.Api.ticks;
    elapsed_ms = r.Api.telemetry.Api.elapsed_ms;
    trace = None;
    plan_cache = "miss";
    result_cache = "miss";
  }

(* Server.resolve_db: the catalog lookup (on a mutated live database,
   also the entry refresh with its relation statistics). *)
let resolve l catalog =
  match
    timed (fun dt -> l.resolve <- l.resolve +. dt) (fun () -> Catalog.find catalog Pb.db_name)
  with
  | Some e -> e
  | None -> fail "replay: %s is not in the catalog" Pb.db_name

(* The same Api.run without a span collector, outside every layer
   timer: its time is the base of [trace.overhead], and its estimate
   must be bit-identical to the traced one. *)
let untraced_twin l ?report request traced =
  let t0 = vnow () in
  let r = Api.run ?report (Api.Request.with_trace None request) in
  l.untraced_api_ms <- ((vnow () -. t0) *. 1000.0) :: l.untraced_api_ms;
  match (traced, r) with
  | Ok a, Ok b when bits a.Api.estimate <> bits b.Api.estimate ->
      fail "tracing changed an estimate: %h traced, %h untraced" a.Api.estimate b.Api.estimate
  | _ -> ()

(* One COUNT through the layers, in Server.run_count's order: codec,
   parse, result cache, admission, plan cache / analysis, Api.run with
   a span collector, result-cache fill, response codec. *)
let replay_count l ~plan_cache ~result_cache ~sched ~db ~fingerprint ~version req =
  l.counts <- l.counts + 1;
  let p =
    match request_codec l req with
    | Wire.Count p -> p
    | _ -> fail "replay: not a COUNT"
  in
  let query =
    timed (fun dt -> l.parse <- l.parse +. dt) (fun () -> parse p.Wire.query)
  in
  let cache_time dt = l.cache <- l.cache +. dt in
  let db_fingerprint, key =
    timed cache_time (fun () ->
        let db_fingerprint = Cache.db_key ~fingerprint ~version in
        ( db_fingerprint,
          Cache.result_key ~db_fingerprint ~eps:p.Wire.eps ~delta:p.Wire.delta
            ~method_name:(Api.method_name p.Wire.method_)
            ~seed:(Option.value p.Wire.seed ~default:0) query ))
  in
  l.result_lookups <- l.result_lookups + 1;
  let outcome =
    match timed cache_time (fun () -> Cache.Lru.find result_cache key) with
    | Some o ->
        l.result_hits <- l.result_hits + 1;
        o
    | None -> (
        let inner = ref 0.0 in
        let t0 = vnow () in
        let r =
          Scheduler.submit sched ~label:"count" (fun slice ->
              let t_in = vnow () in
              l.plan_lookups <- l.plan_lookups + 1;
              let plan_key, cached =
                timed cache_time (fun () ->
                    let plan_key = Cache.plan_key ~db_fingerprint query in
                    (plan_key, Cache.Lru.find plan_cache plan_key))
              in
              let report =
                match cached with
                | Some rep ->
                    l.plan_hits <- l.plan_hits + 1;
                    rep
                | None ->
                    let rep =
                      timed
                        (fun dt ->
                          l.analyze <- l.analyze +. dt;
                          l.analyze_calls <- l.analyze_calls + 1)
                        (fun () -> Report.analyze ~db query)
                    in
                    timed cache_time (fun () -> Cache.Lru.add plan_cache plan_key rep);
                    rep
              in
              let tracer = Trace.create ~max_spans:1_000_000 () in
              let request =
                Api.Request.make query db
                |> Api.Request.with_eps p.Wire.eps
                |> Api.Request.with_delta p.Wire.delta
                |> Api.Request.with_method p.Wire.method_
                |> Api.Request.with_seed p.Wire.seed
                |> Api.Request.with_jobs p.Wire.jobs
                |> Api.Request.with_budget (Some slice)
                |> Api.Request.with_trace (Some tracer)
              in
              let t_api = vnow () in
              let result = Api.run ~report request in
              let api_s = vnow () -. t_api in
              l.api <- l.api +. api_s;
              l.traced_api_ms <- (api_s *. 1000.0) :: l.traced_api_ms;
              add_spans l (Trace.summary tracer);
              inner := vnow () -. t_in;
              (report, request, result))
        in
        l.admit <- l.admit +. (vnow () -. t0 -. !inner);
        let r =
          Result.map
            (fun (report, request, result) ->
              untraced_twin l ~report request result;
              result)
            r
        in
        match r with
        | Ok (Ok resp) ->
            l.computed <- l.computed + 1;
            let n = List.length resp.Api.attempts in
            l.attempts <- l.attempts + n + 1;
            if n = 0 then l.first_rung <- l.first_rung + 1;
            let rung = Option.value (rung_of resp) ~default:"none" in
            Hashtbl.replace l.rungs rung
              (1 + Option.value (Hashtbl.find_opt l.rungs rung) ~default:0);
            let o = outcome_of resp in
            timed cache_time (fun () -> Cache.Lru.add result_cache key o);
            o
        | Ok (Error e) | Error e -> fail "replay COUNT failed: %s" (Error.message e))
  in
  ignore (response_codec l (Wire.Counted outcome))

(* What the live_rw daemon does after each merge of its file-backed,
   journaled database (Server.persist_merge): save the compacted
   snapshot, switch the manifest to it, truncate the journal up to its
   version and drop the superseded snapshot file. *)
let persist_merge catalog live ~manifest =
  let prior =
    List.find_opt
      (fun (p : Catalog.persistence) -> p.Catalog.p_name = Pb.db_name)
      (Catalog.persistence catalog)
  in
  let version, live_fingerprint, snap = Live.Db.current live in
  let path = Printf.sprintf "%s.%s.v%d.snapshot" manifest Pb.db_name version in
  Structure_io.save path snap;
  Catalog.compact_source catalog Pb.db_name ~path ~fingerprint:(Structure.fingerprint snap)
    ~version ~live_fingerprint;
  (match Manifest.store ~path:manifest catalog with
  | Ok () -> ()
  | Error e -> fail "replay manifest: %s" (Error.message e));
  (match Catalog.journal_of catalog Pb.db_name with
  | None -> fail "replay: no journal attached"
  | Some j -> (
      match Live.Db.exclusively live (fun () -> Journal.truncate j ~upto:version) with
      | Ok () -> ()
      | Error e -> fail "replay journal truncate: %s" (Error.message e)));
  match prior with
  | Some p
    when p.Catalog.p_path <> path
         && String.starts_with ~prefix:(manifest ^ ".") p.Catalog.p_path -> (
      try Unix.unlink p.Catalog.p_path with Unix.Unix_error _ -> ())
  | _ -> ()

(* Replay a single-daemon workload in process, on the database file the
   daemon loaded, with a journal and manifest of its own. *)
let replay_local w ~seed ops =
  let journal_path = Filename.concat !run_dir "replay.journal"
  and manifest = Filename.concat !run_dir "replay.manifest" in
  let l = layers () in
  replay_probe l.speed;
  let plan_cache = Cache.Lru.create ~capacity:256 ()
  and result_cache = Cache.Lru.create ~capacity:1024 ()
  and sched = Scheduler.create ~capacity:64 () in
  let catalog = Catalog.create () in
  (match Catalog.load catalog ~journal:journal_path ~name:Pb.db_name ~path:!db_file with
  | Ok _ -> ()
  | Error e -> fail "replay load: %s" (Error.message e));
  let live =
    match Catalog.live_find catalog Pb.db_name with
    | Some live -> live
    | None -> fail "replay: catalog lost its database"
  in
  let count l op =
    (* after a mutation the merged view is rebuilt on first use: time
       it on its own, ahead of the catalog lookup that would do it *)
    if Live.Db.version live > 0 then begin
      l.views <- l.views + 1;
      l.delta_rows <- l.delta_rows + Live.Db.delta_rows live;
      ignore (timed (fun dt -> l.view <- l.view +. dt) (fun () -> Live.Db.snapshot live))
    end;
    let e = resolve l catalog in
    replay_count l ~plan_cache ~result_cache ~sched ~db:e.Catalog.db
      ~fingerprint:e.Catalog.fingerprint ~version:e.Catalog.version (Pb.to_request w op)
  in
  (* serve_hot's result cache is warm before the stream starts *)
  let warm = layers () in
  List.iter (count warm) (hot_ops w ~seed);
  l.traced_api_ms <- warm.traced_api_ms;
  l.untraced_api_ms <- warm.untraced_api_ms;
  let journal_line (a : Live.Db.applied) id ops =
    { Journal.seq = a.Live.Db.version; id = Some id; fingerprint = a.Live.Db.fingerprint; ops }
  in
  Array.iter
    (fun op ->
      replay_probe l.speed;
      match op with
      | Pb.Count _ -> count l op
      | Pb.Mutate { insert; tuples; batch } ->
          (* the batch's codec is not part of any COUNT's layers *)
          ignore (request_codec (layers ()) (Pb.to_request w op));
          let ops =
            List.map
              (fun tuple ->
                if insert then Live.Db.Insert { rel = "E"; tuple }
                else Live.Db.Delete { rel = "E"; tuple })
              tuples
          in
          let jt = ref 0.0 in
          let journal applied =
            timed
              (fun dt -> jt := dt)
              (fun () -> Journal.append journal_path (journal_line applied batch ops))
          in
          let size_before = try (Unix.stat journal_path).Unix.st_size with Unix.Unix_error _ -> 0 in
          (match
             timed
               (fun dt -> l.apply <- l.apply +. dt -. !jt)
               (fun () -> Live.Db.apply ~id:batch ~journal live ops)
           with
          | Ok _ -> ()
          | Error e -> fail "replay apply: %s" (Error.message e));
          l.journal <- l.journal +. !jt;
          l.journal_bytes <-
            l.journal_bytes + (Unix.stat journal_path).Unix.st_size - size_before;
          l.batches <- l.batches + 1;
          if
            Live.Db.needs_merge ~threshold:Pb.live_merge_threshold
              ~ratio:Pb.live_merge_ratio live
          then begin
            l.merges <- l.merges + 1;
            ignore (timed (fun dt -> l.merge <- l.merge +. dt) (fun () -> Live.Db.merge live));
            timed (fun dt -> l.persist <- l.persist +. dt) (fun () ->
                persist_merge catalog live ~manifest)
          end)
    ops;
  l.rejected <- (Scheduler.stats sched).Scheduler.rejected;
  l

(* Replay the fleet stream: codec, parse, result cache and admission
   as on a single daemon, then Router.scatter_count against the real
   workers; each shard's sub-request is also sent to its worker directly
   so the per-shard times and rungs are on record. *)
let replay_fleet w ~db (d : deployment) ops =
  let l = layers () in
  replay_probe l.speed;
  let addresses = List.map (fun s -> Client.Unix_socket s) d.workers in
  let router = Router.create ~strategy:Partition.Hash ~column:0 addresses in
  let spec = Partition.make ~strategy:Partition.Hash ~column:0 ~shards:(List.length addresses) in
  ignore (timed (fun dt -> l.split_ms <- dt *. 1000.0) (fun () -> Partition.split spec db));
  (match Router.distribute router ~name:Pb.db_name db with
  | Ok _ -> ()
  | Error e -> fail "replay distribute: %s" (Error.message e));
  let workers = List.map connect d.workers in
  let result_cache = Cache.Lru.create ~capacity:1024 ()
  and sched = Scheduler.create ~capacity:64 ()
  and catalog = Catalog.create () in
  ignore (Catalog.add catalog ~name:Pb.db_name db);
  Array.iter
    (fun op ->
      replay_probe l.speed;
      l.counts <- l.counts + 1;
      let p =
        match request_codec l (Pb.to_request w op) with
        | Wire.Count p -> p
        | _ -> fail "replay: not a COUNT"
      in
      let fingerprint = (resolve l catalog).Catalog.fingerprint in
      let query = timed (fun dt -> l.parse <- l.parse +. dt) (fun () -> parse p.Wire.query) in
      (match Router.plan router query with Ok _ -> () | Error _ -> l.fallbacks <- l.fallbacks + 1);
      let seed = Option.value p.Wire.seed ~default:0 in
      let cache_time dt = l.cache <- l.cache +. dt in
      let key =
        timed cache_time (fun () ->
            let db_fingerprint =
              Printf.sprintf "%s#fleet%d"
                (Cache.db_key ~fingerprint ~version:0)
                (Router.shards router)
            in
            Cache.result_key ~db_fingerprint ~eps:p.Wire.eps ~delta:p.Wire.delta
              ~method_name:(Api.method_name p.Wire.method_) ~seed query)
      in
      l.result_lookups <- l.result_lookups + 1;
      let outcome =
        match timed cache_time (fun () -> Cache.Lru.find result_cache key) with
        | Some o ->
            l.result_hits <- l.result_hits + 1;
            o
        | None -> (
            let inner = ref 0.0 in
            let t0 = vnow () in
            let r =
              Scheduler.submit sched ~label:"count" (fun _ ->
                  let t = vnow () in
                  let r = Router.scatter_count router ~name:Pb.db_name p in
                  inner := vnow () -. t;
                  r)
            in
            l.admit <- l.admit +. (vnow () -. t0 -. !inner);
            l.scatter <- l.scatter +. !inner;
            match r with
            | Ok (Ok o) ->
                timed cache_time (fun () -> Cache.Lru.add result_cache key o);
                o
            | Ok (Error e) | Error e -> fail "replay scatter failed: %s" (Error.message e))
      in
      ignore (response_codec l (Wire.Counted outcome));
      (* the same per-shard sub-requests, one worker at a time *)
      let n = List.length workers in
      let times =
        List.mapi
          (fun i c ->
            let sub =
              { p with Wire.seed = Some (shard_seed ~seed i); delta = p.Wire.delta /. float_of_int n }
            in
            let t = vnow () in
            (match Client.call c (Wire.Count sub) with
            | Ok (Wire.Counted o) ->
                l.shard_answers <- l.shard_answers + 1;
                if o.Wire.rung = Some "exact" then l.exact_shards <- l.exact_shards + 1
            | _ -> fail "replay: shard %d sub-request failed" i);
            (vnow () -. t) *. 1000.0)
          workers
      in
      l.shard_max <- l.shard_max +. List.fold_left max 0.0 times;
      l.shard_min <- l.shard_min +. List.fold_left min infinity times)
    ops;
  List.iter Client.close workers;
  Router.close router;
  l.rejected <- (Scheduler.stats sched).Scheduler.rejected;
  l

(* Why a second worker is "46x faster": the rung each side picks. One
   in-process run on the full database and on each shard, with the
   cost model's ranking next to it. *)
let explain_fleet w ~db ~seed l =
  let q = parse Pb.q_fleet in
  let describe label db ~delta ~seed =
    let tracer = Trace.create ~max_spans:1_000_000 () in
    let request = api_request w db ~query:q ~seed ~delta ~trace:tracer () in
    let t0 = now () in
    let r = api_run request in
    let ms = (now () -. t0) *. 1000.0 in
    add_spans l (Trace.summary tracer);
    l.traced_api_ms <- ms :: l.traced_api_ms;
    untraced_twin l request (Ok r);
    let ranking =
      match r.Api.report.Report.cost with
      | None -> ""
      | Some c ->
          String.concat ", "
            (List.filter_map
               (fun (a : Cost.alternative) ->
                 if a.Cost.applicable && a.Cost.guaranteed then
                   Some (Printf.sprintf "%s 2^%.1f" (Cost.rung_name a.Cost.rung) a.Cost.log2_cost)
                 else None)
               (Cost.rank ~eps:(Pb.eps w) ~delta c))
    in
    info "fleet: %-12s |D|=%-5d delta=%-6g rung=%-8s eps_used=%g  %.1f ms  predicted: %s"
      label (Structure.size db) delta
      (Option.value (rung_of r) ~default:"?")
      r.Api.eps_used ms ranking;
    ms
  in
  let single = describe "single-node" db ~delta:(Pb.delta w) ~seed in
  let shards = fleet_shards db in
  let n = Array.length shards in
  let shard_ms =
    Array.mapi
      (fun i s ->
        describe (Printf.sprintf "shard %d/%d" i n) s
          ~delta:(Pb.delta w /. float_of_int n)
          ~seed:(shard_seed ~seed i))
      shards
  in
  info "fleet: single-node / slowest shard = %.1fx (a rung switch, not parallelism)"
    (single /. Array.fold_left max 0.0 shard_ms)

(* ---------- metrics ---------- *)

let per_count l x = if l.counts = 0 then 0.0 else x /. float_of_int l.counts
let per_computed l x = if l.computed = 0 then 0.0 else x /. float_of_int l.computed
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let span l name =
  match Hashtbl.find_opt l.spans name with
  | Some (c, ms) -> (c, if c = 0 then 0.0 else ms /. float_of_int c)
  | None -> (0, 0.0)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let layer_metrics l ~rtt_us ~count_mean_ms ~mutate_p50 ~mutate_tail =
  let us x = x *. 1e6 and ms x = x *. 1e3 in
  let rung_share r =
    per_computed l (float_of_int (Option.value (Hashtbl.find_opt l.rungs r) ~default:0))
  in
  let span_ms name = snd (span l name) in
  let trials, _ = span l "trial" and oracle_calls, _ = span l "oracle" in
  let n_tree_dp = Option.value (Hashtbl.find_opt l.rungs "tree-dp") ~default:0 in
  let per_batch x = if l.batches = 0 then 0.0 else x /. float_of_int l.batches in
  (* the blocking steps of one COUNT, as the client sees it *)
  let covered_ms =
    (rtt_us /. 1000.0)
    +. per_count l
         (ms
            (l.req_codec +. l.resp_codec +. l.parse +. l.resolve +. l.cache +. l.admit +. l.analyze
           +. l.api +. l.view +. l.scatter))
  in
  let coverage = if count_mean_ms > 0.0 then covered_ms /. count_mean_ms else 0.0 in
  let overhead =
    let u = mean l.untraced_api_ms and t = mean l.traced_api_ms in
    if u > 0.0 && t > 0.0 then (t /. u) -. 1.0 else 0.0
  in
  let values =
    [
      ("mutate_p50_ms", mutate_p50);
      ("mutate_tail_ms", mutate_tail);
      ("transport.rtt_us", rtt_us);
      ("wire.request_codec_us", per_count l (us l.req_codec));
      ("wire.response_codec_us", per_count l (us l.resp_codec));
      ("wire.reply_bytes", per_count l (float_of_int l.reply_bytes));
      ("catalog.find_us", per_count l (us l.resolve));
      ("cache.result_hit_ratio", ratio l.result_hits l.result_lookups);
      ("cache.plan_hit_ratio", ratio l.plan_hits l.plan_lookups);
      ("cache.lookup_us", per_count l (us l.cache));
      ("scheduler.admit_us", per_computed l (us l.admit));
      ("scheduler.rejected", float_of_int l.rejected);
      ("analysis.analyze_ms", if l.analyze_calls = 0 then 0.0 else ms l.analyze /. float_of_int l.analyze_calls);
      ("analysis.calls_per_count", ratio l.analyze_calls l.counts);
      ("planner.first_rung_ratio", ratio l.first_rung l.computed);
      ("planner.attempts_per_count", ratio l.attempts l.computed);
      ("rung.exact.share", rung_share "exact");
      ("rung.fpras.share", rung_share "fpras");
      ("rung.tree-dp.share", rung_share "tree-dp");
      ("rung.exact.ms", span_ms "rung:exact");
      ("rung.fpras.ms", span_ms "rung:fpras");
      ("rung.tree-dp.ms", span_ms "rung:tree-dp");
      ("fpras.build_ms", span_ms "fpras:build");
      ("fpras.median_ms", span_ms "fpras:median");
      ("fptras.estimate_ms", span_ms "fptras:estimate");
      ("fptras.oracle_calls", if n_tree_dp = 0 then 0.0 else float_of_int oracle_calls /. float_of_int n_tree_dp);
      ("fptras.oracle_ms", span_ms "oracle");
      ("exec.trials_per_count", ratio trials l.computed);
      ("exec.trial_ms", span_ms "trial");
      ("live.apply_us", per_batch (us l.apply));
      ("live.view_ms", if l.views = 0 then 0.0 else ms l.view /. float_of_int l.views);
      ("live.merge_ms", if l.merges = 0 then 0.0 else ms l.merge /. float_of_int l.merges);
      ("live.persist_ms", if l.merges = 0 then 0.0 else ms l.persist /. float_of_int l.merges);
      ("live.merges", float_of_int l.merges);
      ("live.delta_rows", if l.views = 0 then 0.0 else float_of_int l.delta_rows /. float_of_int l.views);
      ("journal.append_us", per_batch (us l.journal));
      ("journal.bytes_per_batch", per_batch (float_of_int l.journal_bytes));
      ("router.scatter_ms", per_count l (ms l.scatter));
      ("router.shard_max_ms", per_count l l.shard_max);
      ("router.shard_min_ms", per_count l l.shard_min);
      ("router.fallbacks", float_of_int l.fallbacks);
      ("router.exact_shard_share", ratio l.exact_shards l.shard_answers);
      ("partition.split_ms", l.split_ms);
      ("trace.coverage", coverage);
      ("trace.overhead", overhead);
    ]
  in
  (values, covered_ms)

(* ---------- main ---------- *)

(* Median PING round trip, host-normalised with a burst of probes taken
   right before. *)
let ping_rtt_us client =
  let p = probes () in
  burst p;
  let n = 2000 in
  let lat =
    Array.init n (fun _ ->
        let t = now () in
        (match Client.call client Wire.Ping with
        | Ok Wire.Pong -> ()
        | _ -> fail "PING failed");
        (now () -. t) *. 1e6)
  in
  Pb.median lat *. phase_factor p

let main ~workload:w ~seed ~seconds ~trace =
  let end_to_end, per_layer =
    match Pb.load_metric_tables "BENCHMARK.json" with
    | Ok t -> t
    | Error m -> fail "cannot read the metric tables: %s" m
  in
  let pid = Unix.getpid () in
  start_probe_helper ();
  run_dir := Printf.sprintf ".pbrun/%d" pid;
  (try Unix.mkdir ".pbrun" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir !run_dir 0o755;
  db_file := Filename.concat !run_dir "db.txt";
  Structure_io.save !db_file (Pb.database w);
  (* the reference runs see the database exactly as the daemon loads it *)
  let db = Structure.seal (Structure_io.load !db_file) in
  let n = Pb.stream_length w ~seconds in
  let ops = Pb.stream w ~seed ~n in
  info "workload %s: seed %d, %d operations, one client, one connection, closed loop"
    (Pb.workload_name w) seed n;
  let d, client, setup_raw, setup_scaled = setup w ~seed in
  let run = timed_stream w client ops in
  let rss = List.fold_left (fun acc p -> acc +. vm_hwm_mb p) 0.0 d.pids in
  let faults = List.fold_left (fun acc p -> acc + minor_faults p) 0 d.pids in
  info "daemons: peak VmHWM %.1f MB, %d minor page faults since start (%.1f per operation)" rss
    faults
    (float_of_int faults /. float_of_int n);
  let factor = factors run in
  let probe_ms = Array.map (fun s -> s *. 1000.0) (snd run.speed) in
  Array.sort compare probe_ms;
  info "probe: %d runs of the host-speed probe, p10 %.4f, p50 %.4f, p90 %.4f ms"
    (Array.length probe_ms) (Pb.quantile probe_ms 0.1) (Pb.quantile probe_ms 0.5)
    (Pb.quantile probe_ms 0.9);
  let mean_of a = if a = [||] then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let count_mean_raw = mean_of (sorted_latencies run ~scale:(fun _ -> 1.0) Pb.is_count) in
  let count_mean = mean_of (sorted_latencies run ~scale:(fun i -> factor.(i)) Pb.is_count) in
  let c_p50, c_tail, c_rate = summary "count" run ~factor Pb.is_count in
  info "count: stream of %.2f s, mean %.4f ms raw, %.4f ms host-normalised"
    (run.stamps.(n) -. run.stamps.(0)) count_mean_raw count_mean;
  let m_p50, m_tail =
    if Array.for_all Pb.is_count ops then (0.0, 0.0)
    else begin
      let p50, tail, _ = summary "mutate" run ~factor (fun op -> not (Pb.is_count op)) in
      info "mutate: acknowledged after the journal fsync, on the checkout's filesystem";
      (p50, tail)
    end
  in
  let show a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") a)) in
  info "setup: raw %s s" (show setup_raw);
  info "setup: host-normalised %s s (median of %d)" (show setup_scaled) setup_reps;
  let rtt_us = if trace then ping_rtt_us client else 0.0 in
  Client.close client;
  (* checks, untimed; the daemons stay up for the fleet replay *)
  let v = check w ~db run in
  if v.rung_drift > 0 then
    Printf.eprintf "acqbench: warning: %d answers came from another rung than the workload intends\n%!"
      v.rung_drift;
  (match v.first_failure with
  | Some m -> Printf.eprintf "acqbench: %d failed operations; first: %s\n%!" v.failed m
  | None -> ());
  let metrics =
    if not trace then begin
      stop d.pids;
      [
        ("count_p50_ms", c_p50);
        ("count_tail_ms", c_tail);
        ("count_rps", c_rate);
        ("setup_s", Pb.median setup_scaled);
        ("rss_mb", rss);
      ]
    end
    else begin
      let l =
        match w with
        | Pb.Fleet_scatter -> replay_fleet w ~db d ops
        | _ -> replay_local w ~seed ops
      in
      if w = Pb.Fleet_scatter then explain_fleet w ~db ~seed l;
      stop d.pids;
      let values, covered =
        layer_metrics l ~rtt_us ~count_mean_ms:count_mean ~mutate_p50:m_p50
          ~mutate_tail:m_tail
      in
      let values =
        ("daemon.minor_faults_per_op", float_of_int faults /. float_of_int n) :: values
      in
      let cov = List.assoc "trace.coverage" values in
      info "trace: replay probe p50 %.4f ms over %d probes"
        (1000.0 *. Pb.median (snd (recorded l.speed))) l.speed.n;
      info "trace: layers cover %.4f of %.4f ms per COUNT (coverage %.3f)%s" covered
        count_mean cov
        (if cov < 0.9 then Printf.sprintf "; unattributed share %.3f" (1.0 -. cov) else "");
      values
    end
  in
  let table = if trace then per_layer else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Pb.metric) -> m.Pb.name = name) table) then
        fail "metric %s is missing from BENCHMARK.json" name)
    metrics;
  let metrics =
    List.map
      (fun (m : Pb.metric) ->
        match List.assoc_opt m.Pb.name metrics with
        | Some v -> (m, v)
        | None -> fail "BENCHMARK.json names %s, which this run does not measure" m.Pb.name)
      table
  in
  print_endline
    (Pb.result_line ~correct:(v.failed = 0) ~attempted:(Array.length ops)
       ~failed:v.failed metrics)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--probe-helper" then probe_helper ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--acqd", Arg.Set_string acqd, "PATH acqd executable");
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run length on the reference host");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "acqbench [options]";
  let die fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "acqbench: %s\n%!" m;
        cleanup ();
        exit 2)
      fmt
  in
  let w =
    match Pb.workload_of_name !workload with
    | Some w -> w
    | None ->
        die "unknown workload %S (one of %s)" !workload
          (String.concat ", " (List.map Pb.workload_name Pb.workloads))
  in
  if not (Sys.file_exists !acqd) then die "daemon executable %S does not exist" !acqd;
  if !seconds < 1 then die "--seconds must be at least 1";
  at_exit cleanup;
  let on_signal _ =
    Printf.eprintf "acqbench: interrupted\n%!";
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match main ~workload:w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | () -> ()
  | exception Failed m -> die "%s" m
  | exception e -> die "%s" (Printexc.to_string e)
