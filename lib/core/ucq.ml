module Ecq = Ac_query.Ecq

type t = {
  disjuncts : Ecq.t list;
  num_free : int;
}

let make = function
  | [] -> invalid_arg "Ucq.make: empty union"
  | q :: rest as disjuncts ->
      let num_free = Ecq.num_free q in
      if not (List.for_all (fun q' -> Ecq.num_free q' = num_free) rest) then
        invalid_arg "Ucq.make: disjuncts must share their free variables";
      { disjuncts; num_free }

let disjuncts u = u.disjuncts
let num_free u = u.num_free

let parse text =
  let pieces =
    String.split_on_char ';' text
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  make (List.map Ecq.parse pieces)

let pp fmt u =
  Format.pp_open_vbox fmt 0;
  List.iteri
    (fun i q ->
      if i > 0 then Format.fprintf fmt "@,∪ ";
      Ecq.pp fmt q)
    u.disjuncts;
  Format.pp_close_box fmt ()

let exact_count u db = Sampling.union_count_exact u.disjuncts db

let approx_count ~exec ?engine ?rounds ?kl_rounds ~eps ~delta u db =
  Sampling.union_count_approx ~exec ?engine ?rounds ?kl_rounds ~eps ~delta
    u.disjuncts db

let is_answer u db tau = List.exists (fun q -> Exact.is_answer q db tau) u.disjuncts
