module Iset = Set.Make (Int)
module Budget = Ac_runtime.Budget

type config = {
  sketch_size : int;
  union_rounds : int;
  rng : Random.State.t;
  budget : Budget.t;
}

let default_config ~seed ?(budget = Budget.none) () =
  { sketch_size = 48; union_rounds = 48; rng = Random.State.make [| seed |]; budget }

(* Median repetitions for confidence 1 - delta: the single-sketch
   estimator is within the accuracy band with constant probability, so
   ~ln(1/δ) independent repetitions around the median amplify it. *)
let repetitions_for ~delta =
  let delta = Float.min 0.49 (Float.max 1e-12 delta) in
  let m = int_of_float (ceil (1.25 *. Float.log (1.0 /. delta))) in
  max 3 ((2 * m) + 1)

(* Sketch size κ(ε) = max κ_min ⌈c/ε²⌉, for both the per-(node, state)
   sample pool and the Karp–Luby union rounds. A single sketch's
   relative error falls like 1/√κ; [c] and [κ_min] are calibrated
   against exact counts by the (ε, δ) conformance test, not proven (see
   DESIGN.md substitution 3). The cap only keeps the conversion to int
   defined: a sketch that large exhausts any budget first. *)
let sketch_constant = 0.12
let sketch_floor = 16

let sketch_size_for ~eps =
  let k = Float.ceil (sketch_constant /. (eps *. eps)) in
  max sketch_floor (int_of_float (Float.min k 1e9))

(* Shape nodes flattened in postorder (children get smaller ids). *)
type snode = { children : int list }

let flatten shape =
  let nodes = ref [] in
  let count = ref 0 in
  let rec go (Ltree.Shape kids) =
    let child_ids = List.map go kids in
    let id = !count in
    incr count;
    nodes := { children = child_ids } :: !nodes;
    id
  in
  let root = go shape in
  let arr = Array.of_list (List.rev !nodes) in
  (arr, root)

(* Per-state transitions grouped by symbol. In the Lemma 52 automata every
   state fires on exactly one symbol, so iterating a state's own groups is
   dramatically cheaper than scanning the whole alphabet. *)
let state_index a =
  let by_state = Array.make (Tree_automaton.num_states a) [] in
  Tree_automaton.iter_transitions a (fun ~state ~symbol rhs ->
      by_state.(state) <- (symbol, rhs) :: by_state.(state));
  Array.map
    (fun pairs ->
      let groups = Hashtbl.create 4 in
      List.iter
        (fun (symbol, rhs) ->
          let bucket =
            match Hashtbl.find_opt groups symbol with
            | Some b -> b
            | None ->
                let b = ref [] in
                Hashtbl.replace groups symbol b;
                b
          in
          bucket := rhs :: !bucket)
        pairs;
      Hashtbl.fold (fun symbol bucket acc -> (symbol, !bucket) :: acc) groups [])
    by_state

(* Bottom-up "possible" state sets: s is possible at a shape node if some
   transition of matching arity exists with possible children states. *)
let possible_sets a index nodes =
  let n = Array.length nodes in
  let possible = Array.make n Iset.empty in
  let states = Tree_automaton.num_states a in
  for u = 0 to n - 1 do
    let kids = nodes.(u).children in
    let ok = ref Iset.empty in
    for s = 0 to states - 1 do
      let fires =
        List.exists
          (fun (_, rhss) ->
            List.exists
              (fun rhs ->
                match (rhs, kids) with
                | Tree_automaton.Stop, [] -> true
                | Tree_automaton.One s1, [ c ] -> Iset.mem s1 possible.(c)
                | Tree_automaton.Two (s1, s2), [ c1; c2 ] ->
                    Iset.mem s1 possible.(c1) && Iset.mem s2 possible.(c2)
                | _ -> false)
              rhss)
          index.(s)
      in
      if fires then ok := Iset.add s !ok
    done;
    possible.(u) <- !ok
  done;
  possible

(* Top-down "needed" states, pruned by possibility. *)
let needed_sets a index nodes root possible =
  let n = Array.length nodes in
  let needed = Array.make n Iset.empty in
  let rec go u states =
    let states = Iset.inter states possible.(u) in
    let fresh = Iset.diff states needed.(u) in
    if not (Iset.is_empty fresh) then begin
      needed.(u) <- Iset.union needed.(u) fresh;
      match nodes.(u).children with
      | [] -> ()
      | [ c ] ->
          let next = ref Iset.empty in
          Iset.iter
            (fun s ->
              List.iter
                (fun (_, rhss) ->
                  List.iter
                    (function
                      | Tree_automaton.One s1 -> next := Iset.add s1 !next
                      | Tree_automaton.Stop | Tree_automaton.Two _ -> ())
                    rhss)
                index.(s))
            fresh;
          go c !next
      | [ c1; c2 ] ->
          let next1 = ref Iset.empty and next2 = ref Iset.empty in
          Iset.iter
            (fun s ->
              List.iter
                (fun (_, rhss) ->
                  List.iter
                    (function
                      | Tree_automaton.Two (s1, s2) ->
                          next1 := Iset.add s1 !next1;
                          next2 := Iset.add s2 !next2
                      | Tree_automaton.Stop | Tree_automaton.One _ -> ())
                    rhss)
                index.(s))
            fresh;
          go c1 !next1;
          go c2 !next2
      | _ -> invalid_arg "Acjr: shape with more than 2 children"
    end
  in
  go root (Iset.singleton (Tree_automaton.initial a));
  needed

(* A cell: estimate + approx-uniform sampler over L(node, state). *)
type cell = {
  est : float;
  draw : unit -> Ltree.t option;
}

let empty_cell = { est = 0.0; draw = (fun () -> None) }

(* A branch of a union: weight, a drawer of candidate child tuples, and a
   membership test. *)
type branch = {
  weight : float;
  draw_children : unit -> Ltree.t list option;
  member : Ltree.t list -> bool;
}

let pick_weighted rng weights total =
  let x = Random.State.float rng total in
  let n = Array.length weights in
  let rec go i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0

(* Karp–Luby over overlapping branches: estimate |∪ branches| and sample
   approximately uniformly from the union. *)
let union_estimate config branches =
  match branches with
  | [] -> (0.0, fun () -> None)
  | [ b ] -> (b.weight, b.draw_children)
  | _ ->
      let arr = Array.of_list branches in
      let weights = Array.map (fun b -> b.weight) arr in
      let total = Array.fold_left ( +. ) 0.0 weights in
      if total <= 0.0 then (0.0, fun () -> None)
      else begin
        let multiplicity x =
          Array.fold_left (fun m b -> if b.member x then m + 1 else m) 0 arr
        in
        let acc = ref 0.0 and used = ref 0 in
        for _ = 1 to config.union_rounds do
          Budget.tick config.budget;
          let i = pick_weighted config.rng weights total in
          match arr.(i).draw_children () with
          | None -> ()
          | Some x ->
              incr used;
              let m = max (multiplicity x) 1 in
              acc := !acc +. (1.0 /. float_of_int m)
        done;
        let estimate =
          if !used = 0 then 0.0 else total *. !acc /. float_of_int !used
        in
        let rec draw attempts =
          if attempts > 64 then None
          else
            let i = pick_weighted config.rng weights total in
            match arr.(i).draw_children () with
            | None -> draw (attempts + 1)
            | Some x ->
                let m = max (multiplicity x) 1 in
                if Random.State.float config.rng 1.0 < 1.0 /. float_of_int m then
                  Some x
                else draw (attempts + 1)
        in
        (estimate, fun () -> draw 0)
      end

let pool_of config draw =
  let samples = ref [] and size = ref 0 in
  let misses = ref 0 in
  while !size < config.sketch_size && !misses < 4 * config.sketch_size do
    Budget.tick config.budget;
    match draw () with
    | Some x ->
        samples := x :: !samples;
        incr size
    | None -> incr misses
  done;
  Array.of_list !samples

let draw_from_pool rng pool () =
  if Array.length pool = 0 then None
  else Some pool.(Random.State.int rng (Array.length pool))

(* Leaves shared per symbol, so the run-state memo pays off on them. *)
let leaf_cache () =
  let cache = Hashtbl.create 16 in
  fun symbol ->
    match Hashtbl.find_opt cache symbol with
    | Some l -> l
    | None ->
        let l = Ltree.leaf symbol in
        Hashtbl.replace cache symbol l;
        l

(* The cell of one (node, state): per fired symbol a union over the
   transitions (state, symbol) built by [branches_of], then a weighted
   choice among the symbols, drawn through a bounded pool so repeated
   child sampling is cheap. [None] when nothing fires. *)
let cell_of_groups config shared_leaf groups branches_of =
  let group_arr =
    Array.of_list
      (List.filter_map
         (fun (symbol, rhss) ->
           match union_estimate config (branches_of rhss) with
           | 0.0, _ -> None
           | est, draw -> Some (symbol, est, draw))
         groups)
  in
  let weights = Array.map (fun (_, est, _) -> est) group_arr in
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then None
  else begin
    let draw_once () =
      let g = pick_weighted config.rng weights total in
      let symbol, _, draw = group_arr.(g) in
      match draw () with
      | None -> None
      | Some [] -> Some (shared_leaf symbol)
      | Some children -> Some (Ltree.node symbol children)
    in
    let rec retry attempts =
      if attempts > 16 then None
      else
        match draw_once () with
        | Some x -> Some x
        | None -> retry (attempts + 1)
    in
    let pool = pool_of config (fun () -> retry 0) in
    let draw =
      if Array.length pool = 0 then fun () -> None
      else draw_from_pool config.rng pool
    in
    Some { est = total; draw }
  end

let process a config shape =
  let nodes, root = flatten shape in
  let index = state_index a in
  let possible = possible_sets a index nodes in
  let needed = needed_sets a index nodes root possible in
  let n = Array.length nodes in
  let cells : (int, cell) Hashtbl.t array = Array.init n (fun _ -> Hashtbl.create 16) in
  let cell_of u s = Option.value ~default:empty_cell (Hashtbl.find_opt cells.(u) s) in
  let memo = Tree_automaton.memo a in
  let shared_leaf = leaf_cache () in
  (* nodes are in postorder already *)
  for u = 0 to n - 1 do
    let kids = nodes.(u).children in
    Iset.iter
      (fun s ->
        Budget.tick config.budget;
        let branches_of =
          List.filter_map (fun rhs ->
              match (rhs, kids) with
              | Tree_automaton.Stop, [] ->
                  Some
                    {
                      weight = 1.0;
                      draw_children = (fun () -> Some []);
                      member = (fun _ -> true);
                    }
              | Tree_automaton.One s1, [ c ] ->
                  let cc = cell_of c s1 in
                  if cc.est <= 0.0 then None
                  else
                    Some
                      {
                        weight = cc.est;
                        draw_children =
                          (fun () ->
                            match cc.draw () with
                            | Some x -> Some [ x ]
                            | None -> None);
                        member =
                          (function
                            | [ x ] -> Tree_automaton.accepts_from memo s1 x
                            | _ -> false);
                      }
              | Tree_automaton.Two (s1, s2), [ c1; c2 ] ->
                  let cc1 = cell_of c1 s1 and cc2 = cell_of c2 s2 in
                  if cc1.est <= 0.0 || cc2.est <= 0.0 then None
                  else
                    Some
                      {
                        weight = cc1.est *. cc2.est;
                        draw_children =
                          (fun () ->
                            match (cc1.draw (), cc2.draw ()) with
                            | Some x1, Some x2 -> Some [ x1; x2 ]
                            | _ -> None);
                        member =
                          (function
                            | [ x1; x2 ] ->
                                Tree_automaton.accepts_from memo s1 x1
                                && Tree_automaton.accepts_from memo s2 x2
                            | _ -> false);
                      }
              | _ -> None)
        in
        Option.iter
          (Hashtbl.replace cells.(u) s)
          (cell_of_groups config shared_leaf index.(s) branches_of))
      needed.(u)
  done;
  (cells, root)

let estimator ~config a shape =
  let cells, root = process a config shape in
  let root_cell =
    Option.value ~default:empty_cell
      (Hashtbl.find_opt cells.(root) (Tree_automaton.initial a))
  in
  (root_cell.est, root_cell.draw)

let estimate_fixed_shape ~config a shape = fst (estimator ~config a shape)

(* The paper's confidence amplification: independent repetitions of the
   whole sketch propagation, combined by median. Each trial re-seeds the
   config from its own stream and ticks its chunk's budget slice, so the
   batch parallelises over domains without sharing any mutable sketch
   state (the automaton itself is read-only here; each trial's process
   call allocates its own run-state memo). *)
let estimate_median ?budget ~config ~exec ~repetitions a shape =
  if repetitions <= 1 then estimate_fixed_shape ~config a shape
  else begin
    let trials =
      Ac_exec.Engine.run ?budget exec ~trials:repetitions
        (fun ~rng ~budget i ->
          ignore i;
          estimate_fixed_shape ~config:{ config with rng; budget } a shape)
    in
    let sorted = Array.copy trials in
    Array.sort Float.compare sorted;
    let n = Array.length sorted in
    if n land 1 = 1 then sorted.(n / 2)
    else 0.5 *. (sorted.((n / 2) - 1) +. sorted.(n / 2))
  end

let sample_fixed_shape ~config a shape =
  let _, draw = estimator ~config a shape in
  draw ()

(* ------------------------------------------------------------------ *)
(* The full N-slice: cells keyed (state, subtree size). Branches of a
   union are per (transition, size split); splits are structurally
   disjoint, so multiplicities only arise across transitions sharing a
   split, which the membership test resolves with a size check plus a
   run check. *)

let slice_estimator ~config a n =
  if n < 1 then (0.0, fun () -> None)
  else begin
    let index = state_index a in
    let states = Tree_automaton.num_states a in
    (* cells.(size - 1) : state -> cell *)
    let cells : (int, cell) Hashtbl.t array =
      Array.init n (fun _ -> Hashtbl.create 16)
    in
    let cell_of size s =
      if size < 1 || size > n then empty_cell
      else Option.value ~default:empty_cell (Hashtbl.find_opt cells.(size - 1) s)
    in
    let memo = Tree_automaton.memo a in
    let shared_leaf = leaf_cache () in
    for size = 1 to n do
      for s = 0 to states - 1 do
        Budget.tick config.budget;
        let branches_of =
          List.concat_map (fun rhs ->
              match rhs with
              | Tree_automaton.Stop ->
                  if size = 1 then
                    [
                      {
                        weight = 1.0;
                        draw_children = (fun () -> Some []);
                        member = (function [] -> true | _ -> false);
                      };
                    ]
                  else []
              | Tree_automaton.One s1 ->
                  let cc = cell_of (size - 1) s1 in
                  if cc.est <= 0.0 then []
                  else
                    [
                      {
                        weight = cc.est;
                        draw_children =
                          (fun () ->
                            match cc.draw () with
                            | Some x -> Some [ x ]
                            | None -> None);
                        member =
                          (function
                            | [ x ] ->
                                Ltree.size x = size - 1
                                && Tree_automaton.accepts_from memo s1 x
                            | _ -> false);
                      };
                    ]
              | Tree_automaton.Two (s1, s2) ->
                  List.filter_map
                    (fun n1 ->
                      let n2 = size - 1 - n1 in
                      if n2 < 1 then None
                      else begin
                        let cc1 = cell_of n1 s1 and cc2 = cell_of n2 s2 in
                        if cc1.est <= 0.0 || cc2.est <= 0.0 then None
                        else
                          Some
                            {
                              weight = cc1.est *. cc2.est;
                              draw_children =
                                (fun () ->
                                  match (cc1.draw (), cc2.draw ()) with
                                  | Some x1, Some x2 -> Some [ x1; x2 ]
                                  | _ -> None);
                              member =
                                (function
                                  | [ x1; x2 ] ->
                                      Ltree.size x1 = n1
                                      && Ltree.size x2 = n2
                                      && Tree_automaton.accepts_from memo s1 x1
                                      && Tree_automaton.accepts_from memo s2 x2
                                  | _ -> false);
                            }
                      end)
                    (List.init (max 0 (size - 2)) (fun i -> i + 1)))
        in
        Option.iter
          (Hashtbl.replace cells.(size - 1) s)
          (cell_of_groups config shared_leaf index.(s) branches_of)
      done
    done;
    let root = cell_of n (Tree_automaton.initial a) in
    (root.est, root.draw)
  end

let estimate_slice ~config a n = fst (slice_estimator ~config a n)
