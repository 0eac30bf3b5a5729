type limit = Wall_clock | Work | Heap | Cancelled

type trip = {
  limit : limit;
  label : string;
  elapsed_ms : float;
  ticks : int;
  note : string;
}

exception Budget_exceeded of trip

type t = {
  label : string;
  start : float;
  deadline : float; (* absolute seconds; [infinity] when unset *)
  max_ticks : int; (* [max_int] when unset *)
  max_heap_words : int; (* [max_int] when unset *)
  mask : int; (* full check when [count land mask = 0] *)
  armed : bool; (* at least one limit is set *)
  mutable count : int;
  mutable forced : (limit * string) option; (* cancel/exhaust, pre-trip *)
  mutable trip : trip option; (* sticky after the first raise *)
}

let now () = Unix.gettimeofday ()
let now_ms () = now () *. 1000.0

let limit_name = function
  | Wall_clock -> "wall-clock"
  | Work -> "work-ticks"
  | Heap -> "heap"
  | Cancelled -> "cancelled"

let pp_trip fmt (tr : trip) =
  Format.fprintf fmt "budget %S exceeded (%s) after %.0f ms / %d ticks: %s"
    tr.label (limit_name tr.limit) tr.elapsed_ms tr.ticks tr.note

let words_per_mb = 1024 * 1024 / (Sys.word_size / 8)

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let none =
  {
    label = "unlimited";
    start = 0.0;
    deadline = infinity;
    max_ticks = max_int;
    max_heap_words = max_int;
    mask = 4095;
    armed = false;
    count = 0;
    forced = None;
    trip = None;
  }

let create ?(label = "budget") ?deadline_ms ?max_ticks ?max_heap_mb
    ?(check_every = 512) () =
  let start = now () in
  let deadline =
    match deadline_ms with
    | None -> infinity
    | Some ms -> start +. (Float.max 0.0 ms /. 1000.0)
  in
  let max_ticks = match max_ticks with None -> max_int | Some n -> max 0 n in
  let max_heap_words =
    match max_heap_mb with
    | None -> max_int
    | Some mb -> max 1 mb * words_per_mb
  in
  {
    label;
    start;
    deadline;
    max_ticks;
    max_heap_words;
    mask = pow2_at_least (max 1 check_every) 1 - 1;
    armed =
      deadline < infinity || max_ticks < max_int || max_heap_words < max_int;
    count = 0;
    forced = None;
    trip = None;
  }

let limited t = t.armed || t.forced <> None || t.trip <> None
let ticks t = t.count
let elapsed_ms t = (now () -. t.start) *. 1000.0
let tripped t = t.trip

let stop t limit note =
  let tr =
    { limit; label = t.label; elapsed_ms = elapsed_ms t; ticks = t.count; note }
  in
  t.trip <- Some tr;
  raise (Budget_exceeded tr)

let check t =
  match t.trip with
  | Some tr -> raise (Budget_exceeded tr)
  | None -> (
      (match t.forced with
      | Some (limit, note) -> stop t limit note
      | None -> ());
      if t.armed then begin
        if t.count > t.max_ticks then
          stop t Work
            (Printf.sprintf "work-tick ceiling of %d reached" t.max_ticks);
        if now () > t.deadline then
          stop t Wall_clock
            (Printf.sprintf "deadline passed (budget was %.0f ms)"
               ((t.deadline -. t.start) *. 1000.0));
        if t.max_heap_words < max_int then begin
          let st = Gc.quick_stat () in
          if st.Gc.heap_words > t.max_heap_words then
            stop t Heap
              (Printf.sprintf "heap at %d MB crossed the %d MB watermark"
                 (st.Gc.heap_words / words_per_mb)
                 (t.max_heap_words / words_per_mb))
        end
      end)

let tick t =
  t.count <- t.count + 1;
  if
    (t.armed && t.count land t.mask = 0) || t.forced <> None || t.trip <> None
  then check t

(* [k] ticks in one call. Only the ticks landing on a multiple of the
   period can check an unforced budget, so the count jumps from one such
   boundary to the next and checks there — the checks, and so any trip
   and its [ticks], are those of [k] calls to {!tick}. A forced or
   tripped budget checks on the first tick, as {!tick} does. *)
let charge t k =
  if k > 0 then begin
    let target = t.count + k in
    if t.forced <> None || t.trip <> None then begin
      t.count <- t.count + 1;
      check t
    end
    else begin
      let boundary = ref ((t.count lor t.mask) + 1) in
      while !boundary <= target do
        t.count <- !boundary;
        if t.armed || t.forced <> None then check t;
        boundary := !boundary + t.mask + 1
      done;
      t.count <- target
    end
  end

let force t limit note =
  if t == none then
    invalid_arg "Budget: Budget.none is shared and cannot be cancelled";
  if t.forced = None && t.trip = None then t.forced <- Some (limit, note)

let cancel ?(note = "cancelled by caller") t = force t Cancelled note
let exhaust ?(note = "exhaustion injected") t = force t Work note

let slice ?(fraction = 0.5) ?label t =
  if not (limited t) then t
  else begin
    let label = match label with Some l -> l | None -> t.label ^ "/slice" in
    let n = now () in
    let deadline =
      if t.deadline = infinity then infinity
      else n +. (fraction *. Float.max 0.0 (t.deadline -. n))
    in
    let max_ticks =
      if t.max_ticks = max_int then max_int
      else
        Stdlib.max 0
          (int_of_float (fraction *. float_of_int (Stdlib.max 0 (t.max_ticks - t.count))))
    in
    let forced =
      match t.trip with
      | Some tr -> Some (tr.limit, tr.note)
      | None -> t.forced
    in
    {
      t with
      label;
      start = n;
      deadline;
      max_ticks;
      armed = true;
      count = 0;
      forced;
      trip = None;
    }
  end

let absorb t child = if t != child then t.count <- t.count + child.count

let split ?label ~into t =
  let n = max 1 into in
  let child_label i =
    match label with
    | Some l -> Printf.sprintf "%s/%d" l i
    | None -> Printf.sprintf "%s/split%d" t.label i
  in
  if not (limited t) then
    (* unarmed but cancellable children: first-trip cancellation must
       work even when the caller asked for no limits *)
    Array.init n (fun i -> create ~label:(child_label i) ())
  else begin
    let now_ = now () in
    let per_child_ticks =
      if t.max_ticks = max_int then max_int
      else Stdlib.max 1 (Stdlib.max 0 (t.max_ticks - t.count) / n)
    in
    let forced =
      match t.trip with
      | Some tr -> Some (tr.limit, tr.note)
      | None -> t.forced
    in
    Array.init n (fun i ->
        {
          t with
          label = child_label i;
          start = now_;
          (* absolute, shared: the children run concurrently *)
          deadline = t.deadline;
          max_ticks = per_child_ticks;
          armed = true;
          count = 0;
          forced;
          trip = None;
        })
  end
