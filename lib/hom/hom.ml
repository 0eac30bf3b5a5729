module Structure = Ac_relational.Structure
module Relation = Ac_relational.Relation
module Hypergraph = Ac_hypergraph.Hypergraph
module Bitset = Ac_hypergraph.Bitset
module Tree_decomposition = Ac_hypergraph.Tree_decomposition
module Generic_join = Ac_join.Generic_join
module Intset = Ac_kernels.Intset
module Budget = Ac_runtime.Budget

type instance = {
  source : Structure.t;
  target : Structure.t;
}

let fold_facts s f init =
  List.fold_left
    (fun acc name ->
      Relation.fold (fun tuple acc -> f name tuple acc) (Structure.relation s name) acc)
    init (Structure.symbols s)

let hypergraph source =
  let n = Structure.universe_size source in
  let edges =
    fold_facts source
      (fun _ tuple acc -> List.sort_uniq compare (Array.to_list tuple) :: acc)
      []
  in
  let covered = Array.make n false in
  List.iter (List.iter (fun v -> covered.(v) <- true)) edges;
  let singletons =
    List.init n Fun.id
    |> List.filter_map (fun v -> if covered.(v) then None else Some [ v ])
  in
  Hypergraph.create ~num_vertices:n (edges @ singletons)

let to_atoms { source; target } =
  fold_facts source
    (fun name tuple acc ->
      match Structure.relation_opt target name with
      | None ->
          invalid_arg
            (Printf.sprintf "Hom: symbol %s of the source is missing in the target" name)
      | Some rel -> Generic_join.atom (Array.copy tuple) rel :: acc)
    []

let restrict_domains ({ source; target } as inst) =
  let n = Structure.universe_size source in
  let m = Structure.universe_size target in
  let atoms = to_atoms inst in
  let domains = Array.make n None in
  let all = Intset.range m in
  let empty = ref false in
  List.iter
    (fun (a : Generic_join.atom) ->
      (* complement views are dense (almost every value has support), and
         computing their support would sweep U^arity — the join treats
         them as filter atoms instead, so restriction skips them *)
      if Relation.is_complement a.Generic_join.relation then ()
      else begin
      let seen = Hashtbl.create 4 in
      Array.iteri
        (fun pos v -> if not (Hashtbl.mem seen v) then Hashtbl.replace seen v pos)
        a.Generic_join.scope;
      Hashtbl.iter
        (fun v pos ->
          let support = Array.make m false in
          Relation.iter
            (fun tuple ->
              let ok = ref true in
              Array.iteri
                (fun p u ->
                  if tuple.(p) <> tuple.(Hashtbl.find seen u) then ok := false)
                a.Generic_join.scope;
              if !ok then support.(tuple.(pos)) <- true)
            a.Generic_join.relation;
          let current = match domains.(v) with None -> all | Some d -> d in
          let filtered = Intset.filter (fun x -> support.(x)) current in
          if filtered = [||] then empty := true;
          domains.(v) <- Some filtered)
        seen
      end)
    atoms;
  if !empty then None
  else Some (Array.map (function None -> all | Some d -> d) domains)

type strategy = Backtracking | Decomposition

(* A decomposition node compiled for the DP: the bag's variables (sorted),
   the prepared join over the facts assigned to this bag, and the
   positions (in this bag, ascending by variable) of the variables it
   shares with its parent and with each child. *)
type dp_node = {
  vars : int array;
  join : Generic_join.prepared;
  up : int array;
      (* [||] at the root; both DPs memoise a node on the values at these
         positions, so bag solutions never need to be retained *)
  children : (int * int array) list; (* child id, shared positions here *)
}

type dp = {
  nodes : dp_node array;
  root : int;
  key_pool : (int array, bool) Hashtbl.t array list Atomic.t;
      (* recycled per-node memo tables for the decision search: the
         oracle path decides thousands of times per second against one
         [dp], and a fresh 64-bucket table per bag per call would be
         most of the allocation; pooled tables are cleared (bucket
         arrays kept) between calls *)
  base_domains : int array array option;
      (* arc-consistent domains the bag joins start from, computed once
         per prepare ([None]: trivially unsatisfiable). The full join
         needs none: every positive atom holding a variable takes part
         at its level, so its candidates already lie in their support *)
}

type prepared = {
  strat : strategy;
  full_join : Generic_join.prepared;
  dp : dp option; (* [Decomposition] over at least one variable *)
  budget : Budget.t;
}

(* positions in [vars] of the variables [other] also holds; both are
   sorted, so parent and child list a shared variable at the same index *)
let shared_positions vars other =
  Array.to_list vars
  |> List.mapi (fun i v -> (i, v))
  |> List.filter_map (fun (i, v) -> if Array.mem v other then Some i else None)
  |> Array.of_list

let build_dp ~budget inst atoms =
  let h = hypergraph inst.source in
  let d = Tree_decomposition.contract (Tree_decomposition.decompose h) in
  let num_nodes = Tree_decomposition.num_nodes d in
  let capacity = Hypergraph.num_vertices h in
  (* each atom joins in every bag containing its scope: a bag's
     solutions are then as few as its facts allow, so a parent hands
     its children no key they must reject for a fact it holds *)
  let assigned = Array.make num_nodes [] in
  List.iter
    (fun (a : Generic_join.atom) ->
      let scope_set =
        Bitset.of_list ~capacity (Array.to_list a.Generic_join.scope)
      in
      let covering = ref false in
      Array.iteri
        (fun i b ->
          if Bitset.subset scope_set b then begin
            covering := true;
            assigned.(i) <- a :: assigned.(i)
          end)
        d.Tree_decomposition.bags;
      if not !covering then invalid_arg "Hom: invalid decomposition")
    atoms;
  let bag_vars = Array.map (fun b -> Array.of_list (Bitset.to_list b)) d.Tree_decomposition.bags in
  let kids = Tree_decomposition.children d in
  let universe_size = Structure.universe_size inst.target in
  let nodes =
    Array.init num_nodes (fun node ->
        let vars = bag_vars.(node) in
        let index_of = Hashtbl.create 8 in
        Array.iteri (fun i v -> Hashtbl.replace index_of v i) vars;
        let local_atoms =
          List.map
            (fun (a : Generic_join.atom) ->
              Generic_join.atom
                (Array.map (Hashtbl.find index_of) a.Generic_join.scope)
                a.Generic_join.relation)
            assigned.(node)
        in
        let join =
          Generic_join.prepare ~num_vars:(Array.length vars) ~universe_size
            ~budget local_atoms
        in
        let parent = d.Tree_decomposition.parent.(node) in
        {
          vars;
          join;
          up = (if parent < 0 then [||] else shared_positions vars bag_vars.(parent));
          children =
            List.map (fun c -> (c, shared_positions vars bag_vars.(c))) kids.(node);
        })
  in
  {
    nodes;
    root = Tree_decomposition.root d;
    key_pool = Atomic.make [];
    base_domains = restrict_domains inst;
  }

let prepare ~strategy ?(budget = Budget.none) inst =
  let atoms = to_atoms inst in
  let num_vars = Structure.universe_size inst.source in
  let universe_size = Structure.universe_size inst.target in
  let full_join =
    Generic_join.prepare ~num_vars ~universe_size ~budget atoms
  in
  let dp =
    match strategy with
    | Backtracking -> None
    | Decomposition ->
        if num_vars = 0 then None else Some (build_dp ~budget inst atoms)
  in
  { strat = strategy; full_join; dp; budget }

let strategy p = p.strat

let merged_domains dp domains =
  match dp.base_domains with
  | None -> None
  | Some base ->
      let merged =
        match domains with
        | None -> base
        | Some ds ->
            Array.mapi
              (fun v d ->
                match ds.(v) with
                | None -> d
                | Some restriction -> Intset.inter d (Intset.canon restriction))
              base
      in
      if Array.exists (fun d -> d = [||]) merged then None else Some merged

(* Both DPs walk the compiled bags top-down: node [n] is evaluated under
   a [key], the values of its variables shared with the parent, pinned
   in its join's domains; each child is evaluated under the projection
   of a bag solution onto the variables they share. Memoising on
   (node, key) evaluates each pair at most once — the bottom-up DP's
   worst case — while bags never enumerate outside the projections
   their parent reaches. *)
let bag_domains merged n key =
  let local = Array.map (fun v -> Some merged.(v)) n.vars in
  Array.iteri (fun i p -> local.(p) <- Some [| key.(i) |]) n.up;
  local

let project sol positions = Array.map (fun p -> sol.(p)) positions

(* Treiber stack, CAS-retry via recursion (concurrent trial engines
   decide against one shared [dp]). *)
let rec pool_take pool =
  match Atomic.get pool with
  | [] -> None
  | s :: rest as old ->
      if Atomic.compare_and_set pool old rest then Some s else pool_take pool

let rec pool_give pool s =
  let old = Atomic.get pool in
  if not (Atomic.compare_and_set pool old (s :: old)) then pool_give pool s

(* Decision (Theorem 31): does the subtree at [node] have a solution
   agreeing with [key]? Each bag stops at its first witness. *)
let decide_dp ~budget dp merged =
  let memo =
    match pool_take dp.key_pool with
    | Some tables -> tables
    | None -> Array.map (fun _ -> Hashtbl.create 64) dp.nodes
  in
  let rec sat node key =
    match Hashtbl.find_opt memo.(node) key with
    | Some b -> b
    | None ->
        Budget.tick budget;
        let n = dp.nodes.(node) in
        let found = ref false in
        Generic_join.run ~reuse:true ~domains:(bag_domains merged n key) n.join
          ~f:(fun sol ->
            found :=
              List.for_all (fun (child, here) -> sat child (project sol here)) n.children;
            not !found);
        Hashtbl.add memo.(node) key !found;
        !found
  in
  let answer = sat dp.root [||] in
  (* clear (keeping bucket arrays) and recycle; like the generic-join
     cursor pool, states are dropped on the exception path — a budget
     trip mid-search leaves tables in an unknown fill state worth GCing *)
  Array.iter Hashtbl.clear memo;
  pool_give dp.key_pool memo;
  answer

let solve p ?domains () =
  let result = ref None in
  Generic_join.run ?domains p.full_join ~f:(fun a ->
      result := Some a;
      false);
  !result

let decide p ?domains () =
  match p.dp with
  | None -> Option.is_some (solve p ?domains ())
  | Some dp -> (
      match merged_domains dp domains with
      | None -> false
      | Some merged -> decide_dp ~budget:p.budget dp merged)

let iter_solutions ?domains ?reuse ?diseqs ?project p ~f =
  Generic_join.run ?domains ?reuse ?diseqs ?project p.full_join ~f

let count_solutions ?diseqs ?project ?tally p =
  Generic_join.count ?diseqs ?project ?tally p.full_join

let order p = Generic_join.order p.full_join

let is_homomorphism { source; target } h =
  Array.length h = Structure.universe_size source
  && Array.for_all (fun b -> b >= 0 && b < Structure.universe_size target) h
  && fold_facts source
       (fun name tuple acc ->
         acc && Structure.holds target name (Array.map (fun a -> h.(a)) tuple))
       true

let count_brute_force ({ source; target } as inst) =
  let n = Structure.universe_size source in
  let m = Structure.universe_size target in
  let h = Array.make (max n 1) 0 in
  let count = ref 0 in
  let rec go i =
    if i = n then begin
      if is_homomorphism inst h then incr count
    end
    else
      for b = 0 to m - 1 do
        h.(i) <- b;
        go (i + 1)
      done
  in
  if n = 0 then count := 1 else go 0;
  !count

(* First non-injective endomorphism, if any. *)
let non_injective_endomorphism s =
  let n = Structure.universe_size s in
  if n <= 1 then None
  else begin
    let p = prepare ~strategy:Backtracking { source = s; target = s } in
    let found = ref None in
    iter_solutions p ~f:(fun h ->
        let image = Hashtbl.create n in
        Array.iter (fun v -> Hashtbl.replace image v ()) h;
        if Hashtbl.length image < n then begin
          found := Some h;
          false
        end
        else true);
    !found
  end

let is_core s = non_injective_endomorphism s = None

let rec core s =
  match non_injective_endomorphism s with
  | None -> s
  | Some h ->
      let image =
        Array.to_list h |> List.sort_uniq Int.compare
      in
      core (Structure.induced s image)

(* Exact #Hom (Dalmau–Jonsson): the number of assignments to the
   subtree at [node] that agree with [key] is the sum, over the bag's
   solutions, of the product of the children's counts at their
   projections. *)
let count_dp ?(budget = Budget.none) inst =
  if Structure.universe_size inst.source = 0 then 1
  else
    let dp = build_dp ~budget inst (to_atoms inst) in
    match merged_domains dp None with
    | None -> 0
    | Some merged ->
        let memo = Array.map (fun _ -> Hashtbl.create 64) dp.nodes in
        let rec count node key =
          match Hashtbl.find_opt memo.(node) key with
          | Some c -> c
          | None ->
              Budget.tick budget;
              let n = dp.nodes.(node) in
              let total = ref 0 in
              Generic_join.run ~reuse:true ~domains:(bag_domains merged n key)
                n.join ~f:(fun sol ->
                  total :=
                    !total
                    + List.fold_left
                        (fun acc (child, here) ->
                          if acc = 0 then 0 else acc * count child (project sol here))
                        1 n.children;
                  true);
              Hashtbl.add memo.(node) key !total;
              !total
        in
        count dp.root [||]
