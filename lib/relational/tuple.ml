type t = int array

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i >= la then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* FNV-1a over the components; cheap and adequate for dense ints. *)
let hash (a : t) =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor a.(i)) * 0x01000193 land max_int
  done;
  !h

let to_string t =
  "("
  ^ String.concat "," (Array.to_list (Array.map string_of_int t))
  ^ ")"

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let sorted_keys tbl =
  let rows = Array.make (Table.length tbl) [||] in
  let i = ref 0 in
  Table.iter
    (fun t _ ->
      rows.(!i) <- t;
      incr i)
    tbl;
  Array.sort compare rows;
  rows
