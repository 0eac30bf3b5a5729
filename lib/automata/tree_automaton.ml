type rhs =
  | Stop
  | One of int
  | Two of int * int

module Iset = Set.Make (Int)

type t = {
  num_states : int;
  num_symbols : int;
  initial : int;
  by_symbol : (int, (int * rhs) list ref) Hashtbl.t; (* symbol → (state, rhs) *)
  seen : (int * int * rhs, unit) Hashtbl.t;
}

(* Ltree id → run states of one automaton. *)
type memo = { automaton : t; table : (int, Iset.t) Hashtbl.t }

let memo automaton = { automaton; table = Hashtbl.create 1024 }

let create ~num_states ~num_symbols ~initial =
  if num_states <= 0 || num_symbols <= 0 then invalid_arg "Tree_automaton.create";
  if initial < 0 || initial >= num_states then
    invalid_arg "Tree_automaton.create: initial state out of range";
  {
    num_states;
    num_symbols;
    initial;
    by_symbol = Hashtbl.create 64;
    seen = Hashtbl.create 256;
  }

let num_states a = a.num_states
let num_symbols a = a.num_symbols
let initial a = a.initial

let check_state a s =
  if s < 0 || s >= a.num_states then invalid_arg "Tree_automaton: state out of range"

let add_transition a ~state ~symbol rhs =
  check_state a state;
  if symbol < 0 || symbol >= a.num_symbols then
    invalid_arg "Tree_automaton: symbol out of range";
  (match rhs with
  | Stop -> ()
  | One s -> check_state a s
  | Two (s1, s2) ->
      check_state a s1;
      check_state a s2);
  if not (Hashtbl.mem a.seen (state, symbol, rhs)) then begin
    Hashtbl.replace a.seen (state, symbol, rhs) ();
    let bucket =
      match Hashtbl.find_opt a.by_symbol symbol with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.replace a.by_symbol symbol b;
          b
    in
    bucket := (state, rhs) :: !bucket
  end

let transitions a ~state ~symbol =
  match Hashtbl.find_opt a.by_symbol symbol with
  | None -> []
  | Some b -> List.filter_map (fun (s, r) -> if s = state then Some r else None) !b

let iter_transitions a f =
  Hashtbl.iter
    (fun symbol bucket ->
      List.iter (fun (state, rhs) -> f ~state ~symbol rhs) !bucket)
    a.by_symbol

let rec reach memo (tree : Ltree.t) =
  let a = memo.automaton in
  match Hashtbl.find_opt memo.table tree.Ltree.id with
  | Some r -> r
  | None ->
      let result =
        let candidates =
          match Hashtbl.find_opt a.by_symbol tree.Ltree.label with
          | None -> []
          | Some b -> !b
        in
        match tree.Ltree.children with
        | [] ->
            List.fold_left
              (fun acc (s, r) -> match r with Stop -> Iset.add s acc | _ -> acc)
              Iset.empty candidates
        | [ c ] ->
            let rc = reach memo c in
            List.fold_left
              (fun acc (s, r) ->
                match r with
                | One s1 when Iset.mem s1 rc -> Iset.add s acc
                | _ -> acc)
              Iset.empty candidates
        | [ c1; c2 ] ->
            let r1 = reach memo c1 and r2 = reach memo c2 in
            List.fold_left
              (fun acc (s, r) ->
                match r with
                | Two (s1, s2) when Iset.mem s1 r1 && Iset.mem s2 r2 ->
                    Iset.add s acc
                | _ -> acc)
              Iset.empty candidates
        | _ -> invalid_arg "Tree_automaton: tree node with more than 2 children"
      in
      Hashtbl.replace memo.table tree.Ltree.id result;
      result

let run_states a tree = Iset.elements (reach (memo a) tree)

let accepts_from memo s tree = Iset.mem s (reach memo tree)
let accepts a tree = accepts_from (memo a) a.initial tree
