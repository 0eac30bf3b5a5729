type action = Fail of string | Delay_ms of int | Exhaust

type t = {
  plan : (int, action) Hashtbl.t;
  p_fail : float;
  p_delay : float;
  delay_ms : int;
  budget : Budget.t option;
  rng : Random.State.t;
  mutable count : int;
  mutable log : (int * string * string) list;
}

let create ?(plan = []) ?(p_fail = 0.0) ?(p_delay = 0.0) ?(delay_ms = 1)
    ?budget ~seed () =
  let table = Hashtbl.create 8 in
  List.iter (fun (i, a) -> Hashtbl.replace table i a) plan;
  {
    plan = table;
    p_fail;
    p_delay;
    delay_ms;
    budget;
    rng = Random.State.make [| seed; 0x5eed |];
    count = 0;
    log = [];
  }

let calls t = t.count
let history t = List.rev t.log

let describe = function
  | Fail msg -> "fail: " ^ msg
  | Delay_ms ms -> Printf.sprintf "delay %d ms" ms
  | Exhaust -> "exhaust budget"

let apply t site action =
  t.log <- (t.count, site, describe action) :: t.log;
  match action with
  | Fail msg ->
      Error.raise_e
        (Error.Fault (Printf.sprintf "%s (site %s, call %d)" msg site t.count))
  | Delay_ms ms -> Unix.sleepf (float_of_int ms /. 1000.0)
  | Exhaust -> (
      match t.budget with
      | Some b ->
          Budget.exhaust ~note:(Printf.sprintf "chaos exhaust at %s" site) b;
          Budget.check b
      | None ->
          Error.raise_e
            (Error.Fault
               (Printf.sprintf "chaos exhaust at %s (no budget attached)" site))
      )

let guard t site =
  t.count <- t.count + 1;
  (* draw both randoms unconditionally so the stream position only
     depends on the call count, never on the plan *)
  let r_fail = Random.State.float t.rng 1.0 in
  let r_delay = Random.State.float t.rng 1.0 in
  match Hashtbl.find_opt t.plan t.count with
  | Some action -> apply t site action
  | None ->
      if r_fail < t.p_fail then apply t site (Fail "random fault")
      else if r_delay < t.p_delay then apply t site (Delay_ms t.delay_ms)

(* ---------- wire-level fault plans ---------- *)

type wire_fault =
  | Truncate_frame of int
  | Delay_frame_ms of int
  | Drop_connection
  | Garbage_bytes of int
  | Duplicate_frame

let wire_fault_name = function
  | Truncate_frame n -> Printf.sprintf "truncate(%d)" n
  | Delay_frame_ms ms -> Printf.sprintf "delay(%dms)" ms
  | Drop_connection -> "drop"
  | Garbage_bytes n -> Printf.sprintf "garbage(%d)" n
  | Duplicate_frame -> "duplicate"

module Wire_plan = struct
  type t = {
    plan : (int, wire_fault) Hashtbl.t;
    p_fault : float;
    delay_ms : int;
    rng : Random.State.t;
    mutex : Mutex.t;
    mutable frames : int;
    mutable log : (int * wire_fault) list;
  }

  let create ?(faults = []) ?(p_fault = 0.0) ?(delay_ms = 5) ~seed () =
    let table = Hashtbl.create 8 in
    List.iter (fun (i, f) -> Hashtbl.replace table i f) faults;
    {
      plan = table;
      p_fault;
      delay_ms;
      rng = Random.State.make [| seed; 0x31173 |];
      mutex = Mutex.create ();
      frames = 0;
      log = [];
    }

  (* One decision per frame. As with [guard], every frame advances the
     random stream by a fixed number of draws, so the event sequence
     depends only on the seed and the frame count — never on the plan
     or on which faults actually fired. *)
  let next t =
    Mutex.lock t.mutex;
    t.frames <- t.frames + 1;
    let r_fault = Random.State.float t.rng 1.0 in
    let r_kind = Random.State.int t.rng 5 in
    let decision =
      match Hashtbl.find_opt t.plan t.frames with
      | Some f -> Some f
      | None ->
          if r_fault < t.p_fault then
            Some
              (match r_kind with
              | 0 -> Truncate_frame 3
              | 1 -> Delay_frame_ms t.delay_ms
              | 2 -> Drop_connection
              | 3 -> Garbage_bytes 16
              | _ -> Duplicate_frame)
          else None
    in
    (match decision with
    | Some f -> t.log <- (t.frames, f) :: t.log
    | None -> ());
    Mutex.unlock t.mutex;
    decision

  let frames t =
    Mutex.lock t.mutex;
    let n = t.frames in
    Mutex.unlock t.mutex;
    n

  let history t =
    Mutex.lock t.mutex;
    let l = List.rev t.log in
    Mutex.unlock t.mutex;
    l
end
