(* Process-wide kill switch: every update is gated on one Atomic.get so
   the instrumented hot paths cost a load and a branch when disabled —
   the knob the BENCH_obs overhead gate measures. *)
let switch = Atomic.make true
let set_enabled b = Atomic.set switch b
let enabled () = Atomic.get switch

(* Log-scale (powers of two) histogram bounds shared by every
   histogram: 2^-10 .. 2^20, covering sub-microsecond to ~17-minute
   millisecond durations; the final implicit bucket is +Inf. *)
let bucket_bounds =
  Array.init 31 (fun i -> Float.pow 2.0 (float_of_int (i - 10)))

type counter = int Atomic.t
type gauge = int Atomic.t

type histogram = {
  bucket_counts : int Atomic.t array; (* length = |bucket_bounds| + 1 *)
  total : int Atomic.t;
  sum : float Atomic.t; (* CAS loop on the boxed float *)
}

type instrument = C of counter | G of gauge | H of histogram

type registered = {
  name : string;
  help : string;
  labels : (string * string) list; (* sorted by key *)
  instrument : instrument;
}

type t = {
  mutex : Mutex.t;
  table : (string, registered) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); table = Hashtbl.create 64 }
let global = create ()

let render_labels labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)

let key name labels = name ^ "{" ^ render_labels labels ^ "}"

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

(* Registration is get-or-create on (name, sorted labels): the same
   series handed out twice is the same instrument. Mismatched kinds or
   label keys under one family are registration bugs and raise. *)
let register t ~name ~help ~labels make =
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let k = key name labels in
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.table k with
    | Some r -> r
    | None ->
        let r = { name; help; labels; instrument = make () } in
        Hashtbl.replace t.table k r;
        r
  in
  Mutex.unlock t.mutex;
  r

let counter ?(help = "") ?(labels = []) t name =
  match (register t ~name ~help ~labels (fun () -> C (Atomic.make 0))).instrument with
  | C c -> c
  | i -> invalid_arg (Printf.sprintf "Metrics.counter: %s is a %s" name (kind_name i))

let gauge ?(help = "") ?(labels = []) t name =
  match (register t ~name ~help ~labels (fun () -> G (Atomic.make 0))).instrument with
  | G g -> g
  | i -> invalid_arg (Printf.sprintf "Metrics.gauge: %s is a %s" name (kind_name i))

let make_hist () =
  H
    {
      bucket_counts =
        Array.init (Array.length bucket_bounds + 1) (fun _ -> Atomic.make 0);
      total = Atomic.make 0;
      sum = Atomic.make 0.0;
    }

let histogram ?(help = "") ?(labels = []) t name =
  match (register t ~name ~help ~labels make_hist).instrument with
  | H h -> h
  | i ->
      invalid_arg (Printf.sprintf "Metrics.histogram: %s is a %s" name (kind_name i))

let incr c = if Atomic.get switch then Atomic.incr c
let add c n = if Atomic.get switch then ignore (Atomic.fetch_and_add c n)
let counter_value (c : counter) = Atomic.get c

let set g v = if Atomic.get switch then Atomic.set g v
let incr_gauge g = if Atomic.get switch then Atomic.incr g
let decr_gauge g = if Atomic.get switch then Atomic.decr g

let rec add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then add_float a x

let bucket_index x =
  let n = Array.length bucket_bounds in
  let i = ref 0 in
  while !i < n && x > bucket_bounds.(!i) do
    i := !i + 1
  done;
  !i

let observe h x =
  if Atomic.get switch then begin
    Atomic.incr h.total;
    add_float h.sum x;
    Atomic.incr h.bucket_counts.(bucket_index x)
  end

(* ---------- snapshots ---------- *)

type hvalue = { counts : int array; count : int; sum : float }
type value = Counter of int | Gauge of int | Histogram of hvalue

type metric = {
  metric_name : string;
  metric_help : string;
  metric_labels : (string * string) list;
  value : value;
}

let read_instrument = function
  | C c -> Counter (Atomic.get c)
  | G g -> Gauge (Atomic.get g)
  | H h ->
      Histogram
        {
          counts = Array.map Atomic.get h.bucket_counts;
          count = Atomic.get h.total;
          sum = Atomic.get h.sum;
        }

let snapshot t =
  Mutex.lock t.mutex;
  let all = Hashtbl.fold (fun _ r acc -> r :: acc) t.table [] in
  Mutex.unlock t.mutex;
  all
  |> List.map (fun r ->
         {
           metric_name = r.name;
           metric_help = r.help;
           metric_labels = r.labels;
           value = read_instrument r.instrument;
         })
  |> List.sort (fun a b ->
         compare (a.metric_name, a.metric_labels) (b.metric_name, b.metric_labels))

(* ---------- Prometheus text exposition ---------- *)

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* Integral floats render without an exponent or trailing dot ("42", not
   "42."); everything else with enough digits to round-trip. *)
let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

let label_block labels =
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
             labels)
      ^ "}"

let to_prometheus t =
  let metrics = snapshot t in
  let buf = Buffer.create 4096 in
  let last_family = ref "" in
  List.iter
    (fun m ->
      if m.metric_name <> !last_family then begin
        last_family := m.metric_name;
        if m.metric_help <> "" then
          Printf.bprintf buf "# HELP %s %s\n" m.metric_name
            (escape_help m.metric_help);
        let kind =
          match m.value with
          | Counter _ -> "counter"
          | Gauge _ -> "gauge"
          | Histogram _ -> "histogram"
        in
        Printf.bprintf buf "# TYPE %s %s\n" m.metric_name kind
      end;
      match m.value with
      | Counter v ->
          Printf.bprintf buf "%s%s %d\n" m.metric_name
            (label_block m.metric_labels) v
      | Gauge v ->
          Printf.bprintf buf "%s%s %d\n" m.metric_name
            (label_block m.metric_labels) v
      | Histogram h ->
          let cumulative = ref 0 in
          Array.iteri
            (fun i c ->
              cumulative := !cumulative + c;
              let le =
                if i < Array.length bucket_bounds then
                  fmt_float bucket_bounds.(i)
                else "+Inf"
              in
              Printf.bprintf buf "%s_bucket%s %d\n" m.metric_name
                (label_block (m.metric_labels @ [ ("le", le) ]))
                !cumulative)
            h.counts;
          Printf.bprintf buf "%s_sum%s %s\n" m.metric_name
            (label_block m.metric_labels) (fmt_float h.sum);
          Printf.bprintf buf "%s_count%s %d\n" m.metric_name
            (label_block m.metric_labels) h.count)
    metrics;
  Buffer.contents buf

let reset t =
  Mutex.lock t.mutex;
  Hashtbl.iter
    (fun _ r ->
      match r.instrument with
      | C c | G c -> Atomic.set c 0
      | H h ->
          Array.iter (fun b -> Atomic.set b 0) h.bucket_counts;
          Atomic.set h.total 0;
          Atomic.set h.sum 0.0)
    t.table;
  Mutex.unlock t.mutex
