module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Relation = Ac_relational.Relation
module Bitset = Ac_hypergraph.Bitset
module Nice = Ac_hypergraph.Nice_decomposition
module Generic_join = Ac_join.Generic_join
module Tree_automaton = Ac_automata.Tree_automaton
module Ltree = Ac_automata.Ltree
module Acjr = Ac_automata.Acjr
module Exact_ta = Ac_automata.Exact_ta
module Budget = Ac_runtime.Budget
module Engine = Ac_exec.Engine
module Trace = Ac_obs.Trace

(* A tuple is self-consistent when repeated variables of the scope carry
   equal values. *)
let self_consistent scope tuple =
  let first = Hashtbl.create 4 in
  let ok = ref true in
  Array.iteri
    (fun pos v ->
      match Hashtbl.find_opt first v with
      | None -> Hashtbl.replace first v pos
      | Some p0 -> if tuple.(pos) <> tuple.(p0) then ok := false)
    scope;
  !ok

let bag_solutions ?budget q db bag =
  if not (Ecq.is_cq q) then invalid_arg "Fpras.bag_solutions: CQ required";
  let u = Structure.universe_size db in
  let bag_vars = Array.of_list (Bitset.to_list bag) in
  let index_of = Hashtbl.create 8 in
  Array.iteri (fun i v -> Hashtbl.replace index_of v i) bag_vars;
  let empty_relation = ref false in
  let local_atoms =
    List.filter_map
      (function
        | Ecq.Atom (name, scope) ->
            let rel = Structure.relation db name in
            (* distinct scope variables inside the bag, with their first
               positions *)
            let seen = Hashtbl.create 4 in
            let inter = ref [] in
            Array.iteri
              (fun pos v ->
                if Hashtbl.mem index_of v && not (Hashtbl.mem seen v) then begin
                  Hashtbl.replace seen v pos;
                  inter := (v, pos) :: !inter
                end)
              scope;
            (match List.rev !inter with
            | [] ->
                (* disjoint scope: Definition 47 only needs one
                   self-consistent supporting tuple to exist *)
                let any = ref false in
                Relation.iter
                  (fun tuple -> if self_consistent scope tuple then any := true)
                  rel;
                if not !any then empty_relation := true;
                None
            | inter ->
                let positions = Array.of_list (List.map snd inter) in
                let vars = Array.of_list (List.map fst inter) in
                let projected =
                  Relation.create ~arity:(Array.length positions)
                in
                Relation.iter
                  (fun tuple ->
                    if self_consistent scope tuple then
                      Relation.add projected
                        (Array.map (fun p -> tuple.(p)) positions))
                  rel;
                if Relation.is_empty projected then empty_relation := true;
                Some
                  (Generic_join.atom
                     (Array.map (Hashtbl.find index_of) vars)
                     projected))
        | Ecq.Neg_atom _ | Ecq.Diseq _ ->
            invalid_arg "Fpras.bag_solutions: CQ required")
      (Ecq.atoms q)
  in
  if !empty_relation then None
  else
    Some
      (Generic_join.solutions ~num_vars:(Array.length bag_vars) ~universe_size:u
         ?budget local_atoms)

type build = {
  automaton : Tree_automaton.t;
  shape : Ltree.shape;
  num_states : int;
  num_symbols : int;
  num_nodes : int;
  max_bag_solutions : int;
}

(* Decoding data threaded to [sample_answer]: for every symbol, the bag's
   free variables and their values. *)
type decoder = (int * int array * int array) array
(* symbol -> (node, free vars, values) *)

let build_with_decoder ?(budget = Budget.none) q db =
  if not (Ecq.is_cq q) then invalid_arg "Fpras.build: CQ required";
  if not (Ecq.compatible_with q db) then invalid_arg "Fpras.build: incompatible db";
  let h = Ecq.hypergraph q in
  let nice = Nice.of_hypergraph h in
  let n_nodes = Nice.num_nodes nice in
  let l = Ecq.num_free q in
  (* solutions per node, memoised by bag *)
  let memo = Bitset.Table.create 16 in
  let zero = ref false in
  let sol_of_bag bag =
    match Bitset.Table.find_opt memo bag with
    | Some s -> s
    | None ->
        let s =
          match bag_solutions ~budget q db bag with
          | None ->
              zero := true;
              []
          | Some s -> s
        in
        Bitset.Table.replace memo bag s;
        s
  in
  let bag_vars = Array.map (fun b -> Array.of_list (Bitset.to_list b)) nice.Nice.bags in
  let sols = Array.map sol_of_bag nice.Nice.bags in
  if !zero || Structure.universe_size db = 0 then None
  else begin
    (* state and symbol dictionaries *)
    let state_ids : (int * int list, int) Hashtbl.t = Hashtbl.create 1024 in
    let symbol_ids : (int * int list, int) Hashtbl.t = Hashtbl.create 1024 in
    let symbol_info = ref [] in
    let num_states = ref 0 and num_symbols = ref 0 in
    let state_of node alpha =
      let key = (node, Array.to_list alpha) in
      match Hashtbl.find_opt state_ids key with
      | Some id -> id
      | None ->
          let id = !num_states in
          incr num_states;
          Hashtbl.replace state_ids key id;
          id
    in
    let free_projection node alpha =
      let vars = bag_vars.(node) in
      let fv = ref [] and fval = ref [] in
      Array.iteri
        (fun i v ->
          if v < l then begin
            fv := v :: !fv;
            fval := alpha.(i) :: !fval
          end)
        vars;
      (Array.of_list (List.rev !fv), Array.of_list (List.rev !fval))
    in
    let symbol_of node alpha =
      let fv, fval = free_projection node alpha in
      let key = (node, Array.to_list fval) in
      match Hashtbl.find_opt symbol_ids key with
      | Some id -> id
      | None ->
          let id = !num_symbols in
          incr num_symbols;
          Hashtbl.replace symbol_ids key id;
          symbol_info := (id, node, fv, fval) :: !symbol_info;
          id
    in
    (* enumerate states and symbols first *)
    Array.iteri
      (fun node alphas ->
        List.iter
          (fun alpha ->
            Budget.tick budget;
            ignore (state_of node alpha);
            ignore (symbol_of node alpha))
          alphas)
      sols;
    let max_bag_solutions =
      Array.fold_left (fun acc s -> max acc (List.length s)) 0 sols
    in
    let kids = Nice.children nice in
    let root = nice.Nice.root in
    let root_sols = sols.(root) in
    match root_sols with
    | [] -> None (* Sol(φ, D, ∅) empty: some atom unsatisfiable *)
    | root_alpha :: _ ->
        let initial = state_of root root_alpha in
        let automaton =
          Tree_automaton.create ~num_states:(max 1 !num_states)
            ~num_symbols:(max 1 !num_symbols) ~initial
        in
        (* index of child's solutions by projection, for Forget nodes *)
        let project_drop alpha pos =
          Array.init
            (Array.length alpha - 1)
            (fun i -> if i < pos then alpha.(i) else alpha.(i + 1))
        in
        let position_of vars v =
          let p = ref (-1) in
          Array.iteri (fun i u -> if u = v then p := i) vars;
          if !p < 0 then invalid_arg "Fpras.build: variable not in bag";
          !p
        in
        Array.iteri
          (fun node alphas ->
            let add_t alpha rhs =
              Budget.tick budget;
              Tree_automaton.add_transition automaton ~state:(state_of node alpha)
                ~symbol:(symbol_of node alpha) rhs
            in
            match (nice.Nice.kind.(node), kids.(node)) with
            | Nice.Leaf, [] ->
                List.iter (fun alpha -> add_t alpha Tree_automaton.Stop) alphas
            | Nice.Introduce v, [ c ] ->
                (* bag = child bag + v: project α down *)
                let pos = position_of bag_vars.(node) v in
                List.iter
                  (fun alpha ->
                    let down = project_drop alpha pos in
                    add_t alpha (Tree_automaton.One (state_of c down)))
                  alphas
            | Nice.Forget v, [ c ] ->
                (* child bag = bag + v: all consistent extensions *)
                let cpos = position_of bag_vars.(c) v in
                let buckets = Hashtbl.create 64 in
                List.iter
                  (fun alpha1 ->
                    let key = Array.to_list (project_drop alpha1 cpos) in
                    let b =
                      match Hashtbl.find_opt buckets key with
                      | Some b -> b
                      | None ->
                          let b = ref [] in
                          Hashtbl.replace buckets key b;
                          b
                    in
                    b := alpha1 :: !b)
                  sols.(c);
                List.iter
                  (fun alpha ->
                    match Hashtbl.find_opt buckets (Array.to_list alpha) with
                    | None -> ()
                    | Some b ->
                        List.iter
                          (fun alpha1 ->
                            add_t alpha (Tree_automaton.One (state_of c alpha1)))
                          !b)
                  alphas
            | Nice.Join, [ c1; c2 ] ->
                List.iter
                  (fun alpha ->
                    add_t alpha
                      (Tree_automaton.Two (state_of c1 alpha, state_of c2 alpha)))
                  alphas
            | _ -> invalid_arg "Fpras.build: decomposition is not nice")
          sols;
        (* shape with children in the same order as the transitions *)
        let rec shape_of node =
          Ltree.Shape (List.map shape_of kids.(node))
        in
        let shape = shape_of root in
        let decoder =
          let arr = Array.make !num_symbols (0, [||], [||]) in
          List.iter (fun (id, node, fv, fval) -> arr.(id) <- (node, fv, fval)) !symbol_info;
          arr
        in
        Some
          ( {
              automaton;
              shape;
              num_states = !num_states;
              num_symbols = !num_symbols;
              num_nodes = n_nodes;
              max_bag_solutions;
            },
            (decoder : decoder) )
  end

let build ?budget q db = Option.map fst (build_with_decoder ?budget q db)

(* [budget], when given, governs both the automaton construction and the
   sketch propagation (overriding the config's own budget). *)
let with_budget budget (config : Acjr.config) =
  match budget with
  | None -> config
  | Some b -> { config with Acjr.budget = b }

(* Phase span: [k] receives the span (None when [parent] is — one
   branch on the untraced path). The phase's tick delta on [budget] is
   attributed to the span so "which phase burned the budget" is
   answerable from the trace alone. *)
let phase ?budget parent name k =
  match parent with
  | None -> k None
  | Some _ ->
      let sp = Trace.child parent name in
      let ticks () = match budget with Some b -> Budget.ticks b | None -> 0 in
      let t0 = ticks () in
      Fun.protect
        ~finally:(fun () -> Trace.stop ~ticks:(ticks () - t0) sp)
        (fun () -> k sp)

(* The run's sketch: [config] when given (the A2/E6 ablations size it
   by hand), κ(eps) samples and rounds drawing from [rng] otherwise. *)
let sketch_config ?budget ?config ~eps rng =
  match config with
  | Some c -> with_budget budget c
  | None ->
      let k = Acjr.sketch_size_for ~eps in
      {
        Acjr.sketch_size = k;
        union_rounds = k;
        rng;
        budget = Option.value budget ~default:Budget.none;
      }

(* The automaton is built once (sequential — it is a deterministic
   construction) and shared read-only by the repetitions, each drawing
   from its own stream of [exec]'s seed. [repetitions] defaults to the
   δ=0.05 batch. *)
let approx_count ?budget ?config ~exec ?repetitions ~eps q db =
  let parent = Engine.span exec in
  match phase ?budget parent "fpras:build" (fun _ -> build ?budget q db) with
  | None -> 0.0
  | Some b ->
      let config =
        sketch_config ?budget ?config ~eps (Engine.state exec ~stream:0)
      in
      let repetitions =
        match repetitions with
        | Some r -> max 1 r
        | None -> Acjr.repetitions_for ~delta:0.05
      in
      phase ?budget parent "fpras:median" (fun sp ->
          Acjr.estimate_median ?budget ~config
            ~exec:(Engine.with_span exec sp)
            ~repetitions b.automaton b.shape)

let exact_count_automaton ?budget q db =
  match build ?budget q db with
  | None -> 0
  | Some b -> Exact_ta.count_fixed_shape b.automaton b.shape

let sample_answer ?budget ~config q db =
  match build_with_decoder ?budget q db with
  | None -> None
  | Some (b, decoder) -> (
      match
        Acjr.sample_fixed_shape ~config:(with_budget budget config) b.automaton
          b.shape
      with
      | None -> None
      | Some tree ->
          let l = Ecq.num_free q in
          let answer = Array.make l (-1) in
          let rec walk (t : Ltree.t) =
            let _, fv, fval = decoder.(t.Ltree.label) in
            Array.iteri (fun i v -> answer.(v) <- fval.(i)) fv;
            List.iter walk t.Ltree.children
          in
          walk tree;
          if Array.exists (( = ) (-1)) answer then None else Some answer)
