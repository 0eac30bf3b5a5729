module Error = Ac_runtime.Error
module Json = Ac_analysis.Json
module Metrics = Ac_obs.Metrics

type address = Unix_socket of string | Tcp of string * int

let address_of_string s =
  if s = "" then Error "empty address"
  else if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Unix_socket (String.sub s 5 (String.length s - 5)))
  else
    let tcp spec =
      match String.rindex_opt spec ':' with
      | None -> Error (Printf.sprintf "%S: expected HOST:PORT" spec)
      | Some i -> (
          let host = String.sub spec 0 i in
          let port = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 ->
              Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
          | _ -> Error (Printf.sprintf "%S: bad port %S" spec port))
    in
    if String.length s > 4 && String.sub s 0 4 = "tcp:" then
      tcp (String.sub s 4 (String.length s - 4))
    else if s.[0] = '/' || s.[0] = '.' || not (String.contains s ':') then
      Ok (Unix_socket s)
    else tcp s

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* Every failure a client surfaces names where it was talking to and
   what it was doing — "connection closed" without an address is a
   debugging dead end in a fleet. *)
let io_error ~address ~verb msg =
  Error.Io
    { file = address_to_string address; msg = Printf.sprintf "%s: %s" verb msg }

let parse_error ~address ~verb msg =
  Error.Parse
    {
      source = address_to_string address;
      msg = Printf.sprintf "%s: %s" verb msg;
    }

(* ---------- the raw connection ---------- *)

type conn = {
  conn_address : address;
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

let dial address =
  let sockaddr =
    match address with
    | Unix_socket path -> Ok (Unix.ADDR_UNIX path)
    | Tcp (host, port) -> (
        match (Unix.gethostbyname host).Unix.h_addr_list.(0) with
        | addr -> Ok (Unix.ADDR_INET (addr, port))
        | exception Not_found -> (
            match Unix.inet_addr_of_string host with
            | addr -> Ok (Unix.ADDR_INET (addr, port))
            | exception Failure _ ->
                Error (Printf.sprintf "cannot resolve host %S" host)))
  in
  match sockaddr with
  | Error msg -> Error (io_error ~address ~verb:"connect" msg)
  | Ok sockaddr -> (
      let domain = Unix.domain_of_sockaddr sockaddr in
      let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd sockaddr with
      | () ->
          Ok
            {
              conn_address = address;
              fd;
              ic = Unix.in_channel_of_descr fd;
              oc = Unix.out_channel_of_descr fd;
            }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (io_error ~address ~verb:"connect" (Unix.error_message e)))

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* [ms = None] disarms the timer; [read_json] surfaces an expired
   SO_RCVTIMEO as [Eof], which the retry layer treats like any other
   dead connection. *)
let set_conn_read_timeout c ms =
  let seconds =
    match ms with None -> 0.0 | Some v -> float_of_int v /. 1000.0
  in
  try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO seconds
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* ---------- the unified client ---------- *)

let m_retries verb =
  Metrics.counter Metrics.global "acq_retries_total"
    ~help:"Client request retries after transport faults"
    ~labels:[ ("verb", verb) ]

type t = {
  policy : Retry_policy.t;
  addr : address;
  rng : Random.State.t;
  mutable conn : conn option;
  mutable seq : int;
  mutable retries_total : int;
  mutable encoded : (Wire.request * string * string) option;
      (* (request, canonical rendering, canonical digest) for the last
         deadline-free request, keyed on physical equality: retries and
         cache-hot replays resend identical bytes, so they skip
         re-encoding and re-hashing *)
}

let create ?(policy = Retry_policy.none) addr =
  {
    policy;
    addr;
    rng = Random.State.make [| policy.Retry_policy.seed; 0xac_c1 |];
    conn = None;
    seq = 0;
    retries_total = 0;
    encoded = None;
  }

let connect ?policy addr =
  let t = create ?policy addr in
  match dial addr with
  | Ok c ->
      t.conn <- Some c;
      Ok t
  | Error e -> Error e

let address t = t.addr
let policy t = t.policy
let retries_total t = t.retries_total

let close t =
  match t.conn with
  | Some c ->
      t.conn <- None;
      close_conn c
  | None -> ()

let drop_conn = close

let conn t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
      match dial t.addr with
      | Ok c ->
          t.conn <- Some c;
          Ok c
      | Error e -> Error e)

(* The idempotency key: a digest of the canonical request JSON (query,
   db reference, eps/delta/method/seed — everything that defines the
   answer) plus the attempt sequence number. Identical retries get
   fresh ids, so a duplicated or delayed frame from an earlier attempt
   can never be mistaken for the current answer. *)
let canonical_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* [remaining_ms = None] means [wire_request == request] (no deadline
   rewriting), so the rendering and digest are cacheable. *)
let encode t ~request ~wire_request ~remaining_ms =
  match t.encoded with
  | Some (r, canonical, digest) when r == request && remaining_ms = None ->
      (canonical, digest)
  | _ ->
      let canonical = Json.to_string (Wire.request_to_json wire_request) in
      let digest = canonical_digest canonical in
      if remaining_ms = None then t.encoded <- Some (request, canonical, digest);
      (canonical, digest)

let now_ms () = Unix.gettimeofday () *. 1000.0

(* Decorrelated jitter (capped): sleep ~ U(base, prev * 3), never more
   than the cap — retries spread out instead of synchronising. *)
let next_backoff t prev =
  let base = t.policy.Retry_policy.backoff_base_ms in
  let hi = Float.max base (prev *. 3.0) in
  let span = hi -. base in
  Float.min t.policy.Retry_policy.backoff_cap_ms
    (base +. Random.State.float t.rng (Float.max span 1.0))

let request_deadline_ms t request =
  let param =
    match request with
    | Wire.Count p | Wire.Sample { params = p; _ } -> p.Wire.deadline_ms
    | _ -> None
  in
  match param with
  | Some d -> Some d
  | None -> t.policy.Retry_policy.deadline_ms

(* Each attempt tells the server how much time is actually left, so
   admission can shed work nobody will wait for. *)
let with_deadline request remaining_ms =
  match (request, remaining_ms) with
  | _, None -> request
  | Wire.Count p, Some ms -> Wire.Count { p with Wire.deadline_ms = Some ms }
  | Wire.Sample { params = p; draws }, Some ms ->
      Wire.Sample { params = { p with Wire.deadline_ms = Some ms }; draws }
  | other, Some _ -> other

(* Read until the frame with our id: a frame carrying a different id is
   a duplicate or delayed answer to an earlier attempt and is discarded
   (bounded, so a babbling peer cannot hold us forever). *)
let read_matching c ~verb ~id ~read_timeout_ms =
  let max_stale = 32 in
  let rec go n =
    if n > max_stale then
      Error
        (parse_error ~address:c.conn_address ~verb
           "too many stale frames (peer out of sync)")
    else begin
      set_conn_read_timeout c read_timeout_ms;
      match Wire.read_json c.ic with
      | Wire.Eof ->
          Error
            (io_error ~address:c.conn_address ~verb
               "connection closed by server (or read timed out)")
      | Wire.Bad msg -> Error (parse_error ~address:c.conn_address ~verb msg)
      | Wire.Msg j -> (
          match Wire.json_id j with
          | Some id' when id' <> id -> go (n + 1)
          | _ -> Ok j)
    end
  in
  go 0

(* One id-tagged attempt of a retrying call. *)
let attempt t ~verb ~remaining_ms request =
  match conn t with
  | Error e -> Error e
  | Ok c -> (
      let read_timeout_ms =
        match (t.policy.Retry_policy.read_timeout_ms, remaining_ms) with
        | Some r, Some d -> Some (min r d)
        | Some r, None -> Some r
        | None, d -> d
      in
      let wire_request = with_deadline request remaining_ms in
      (* Encode once: the rendering feeds the idempotency digest, and
         the id (a fixed-alphabet token, safe to splice verbatim) is
         pasted into that same rendering — the id'd frame costs one
         string concat, not a second Json.to_string of the request. *)
      let canonical, digest = encode t ~request ~wire_request ~remaining_ms in
      t.seq <- t.seq + 1;
      let id = digest ^ "-" ^ string_of_int t.seq in
      let line =
        if String.length canonical > 2 && canonical.[0] = '{' then
          "{\"id\":\"" ^ id ^ "\","
          ^ String.sub canonical 1 (String.length canonical - 1)
        else canonical
      in
      match
        output_string c.oc line;
        output_char c.oc '\n';
        flush c.oc
      with
      | exception Sys_error msg ->
          Error (io_error ~address:c.conn_address ~verb msg)
      | () -> (
          match read_matching c ~verb ~id ~read_timeout_ms with
          | Error e -> Error e
          | Ok j -> (
              match Wire.response_of_json j with
              | Ok r -> Ok r
              | Error msg ->
                  Error (parse_error ~address:c.conn_address ~verb msg))))

(* The single-attempt path: no envelope id, no deadline rewriting —
   byte-identical to the historical plain client, so [Retry_policy.none]
   really is the old [Client.connect]. *)
let call_once t request =
  let verb = Wire.verb_name request in
  match conn t with
  | Error e -> Error e
  | Ok c -> (
      match Wire.write_json c.oc (Wire.request_to_json request) with
      | exception Sys_error msg ->
          drop_conn t;
          Error (io_error ~address:c.conn_address ~verb msg)
      | () -> (
          set_conn_read_timeout c t.policy.Retry_policy.read_timeout_ms;
          match Wire.read_json c.ic with
          | Wire.Eof ->
              drop_conn t;
              Error
                (io_error ~address:c.conn_address ~verb
                   "connection closed by server (or read timed out)")
          | Wire.Bad msg -> Error (parse_error ~address:c.conn_address ~verb msg)
          | Wire.Msg j -> (
              match Wire.response_of_json j with
              | Ok r -> Ok r
              | Error msg ->
                  Error (parse_error ~address:c.conn_address ~verb msg))))

(* Transport faults are retryable; a decoded response — including a
   server-side refusal — is final. A [Parse] failure means the
   connection survived but the stream carried garbage: the framing
   contract has already resynchronised it, so the connection is kept.
   An [Io] failure means the connection is gone. *)
let call_retrying t request =
  let verb = Wire.verb_name request in
  let deadline_abs =
    Option.map
      (fun ms -> now_ms () +. float_of_int ms)
      (request_deadline_ms t request)
  in
  let remaining () =
    Option.map
      (fun d -> int_of_float (Float.ceil (d -. now_ms ())))
      deadline_abs
  in
  let deadline_error () =
    let budget =
      match request_deadline_ms t request with Some d -> d | None -> 0
    in
    Error.Deadline_exceeded
      {
        deadline_ms = budget;
        msg =
          Printf.sprintf "%s to %s gave up after %d retries" verb
            (address_to_string t.addr) t.retries_total;
      }
  in
  let rec go ~attempt_no ~backoff =
    match remaining () with
    | Some r when r <= 0 -> Error (deadline_error ())
    | remaining_ms -> (
        match attempt t ~verb ~remaining_ms request with
        | Ok r -> Ok r
        | Error e ->
            (match e with Error.Io _ -> drop_conn t | _ -> ());
            if attempt_no >= t.policy.Retry_policy.attempts then Error e
            else if not (Wire.idempotent request) then
              Error
                (Error.Retry_unsafe
                   {
                     verb;
                     msg =
                       Printf.sprintf
                         "transport fault (%s) but the request is unseeded — \
                          a retry would answer a different random \
                          experiment; pass an explicit seed to make it \
                          retryable"
                         (Error.message e);
                   })
            else begin
              t.retries_total <- t.retries_total + 1;
              Metrics.incr (m_retries verb);
              let sleep_ms =
                match remaining () with
                | Some r -> Float.min backoff (float_of_int (max r 0))
                | None -> backoff
              in
              if sleep_ms > 0.0 then Unix.sleepf (sleep_ms /. 1000.0);
              go ~attempt_no:(attempt_no + 1) ~backoff:(next_backoff t backoff)
            end)
  in
  go ~attempt_no:1 ~backoff:t.policy.Retry_policy.backoff_base_ms

let call t request =
  if Retry_policy.retrying t.policy then call_retrying t request
  else call_once t request
