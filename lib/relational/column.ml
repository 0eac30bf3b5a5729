type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n : t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let length (c : t) = Bigarray.Array1.dim c
let get (c : t) i = Bigarray.Array1.get c i
let set (c : t) i v = Bigarray.Array1.set c i v

let of_array a =
  let c = create (Array.length a) in
  Array.iteri (fun i v -> set c i v) a;
  c

let to_array c = Array.init (length c) (get c)

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  Bigarray.Array1.blit
    (Bigarray.Array1.sub src src_pos len)
    (Bigarray.Array1.sub dst dst_pos len)

(* First index in [lo, hi) whose value is >= v; [hi] when none. Reads
   through the [Bigarray] primitive, so the loop is a plain load in
   every build profile; only the call itself may be out of line. *)
let lower_bound (c : t) ~lo ~hi v =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if Bigarray.Array1.unsafe_get c mid < v then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index in [lo, hi) whose value is > v; [hi] when none. *)
let upper_bound (c : t) ~lo ~hi v =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if Bigarray.Array1.unsafe_get c mid <= v then lo := mid + 1 else hi := mid
  done;
  !lo
