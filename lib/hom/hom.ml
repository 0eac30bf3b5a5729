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
   the prepared join over the facts assigned to this bag, and for each
   child the positions of the shared variables in both bags. *)
type dp_node = {
  vars : int array;
  join : Generic_join.prepared;
  children : (int * int array * int array) list;
      (* child id, positions of shared vars in this bag, in child bag *)
  mutable up : int array;
      (* positions (in this bag) of the vars shared with the parent;
         [||] at the root — the decision DP keys its tables on this
         projection, so bag solutions never need to be retained *)
}

type dp = {
  nodes : dp_node array;
  postorder : int array;
  root : int;
  fast_keys : bool;
      (* every shared-var projection encodes into one int (u^w fits) *)
  key_pool : (int, bool) Hashtbl.t array list Atomic.t;
      (* recycled per-node memo tables for the fast decision search:
         the oracle path decides thousands of times per second against
         one [dp], and a fresh 64-bucket table per bag per call would
         be most of the allocation; pooled tables are cleared (bucket
         arrays kept) between calls *)
  base_domains : int array array option;
      (* arc-consistent domains the bag joins start from, computed once
         per prepare ([None]: trivially unsatisfiable). The full join
         needs none: every positive atom holding a variable takes part
         at its level, so its candidates already lie in their support *)
}

type prepared = {
  strat : strategy;
  universe_size : int;
  full_join : Generic_join.prepared;
  dp : dp option; (* [Decomposition] over at least one variable *)
  budget : Budget.t;
}

(* Does [u^w] fit an OCaml int? Decides whether a shared-variable tuple
   can be semijoin-hashed as a single int instead of an allocated key. *)
let pow_fits u w =
  let u = max u 2 in
  let rec go acc i = i = 0 || (acc <= max_int / u && go (acc * u) (i - 1)) in
  go u (w - 1)

let build_dp ~budget inst atoms =
  let h = hypergraph inst.source in
  let d = Tree_decomposition.decompose h in
  let num_nodes = Tree_decomposition.num_nodes d in
  let capacity = Hypergraph.num_vertices h in
  (* assign each atom to the first bag containing its scope *)
  let assigned = Array.make num_nodes [] in
  List.iter
    (fun (a : Generic_join.atom) ->
      let scope_set =
        Bitset.of_list ~capacity (Array.to_list a.Generic_join.scope)
      in
      let node = ref (-1) in
      (try
         Array.iteri
           (fun i b ->
             if Bitset.subset scope_set b then begin
               node := i;
               raise Exit
             end)
           d.Tree_decomposition.bags
       with Exit -> ());
      if !node < 0 then invalid_arg "Hom: invalid decomposition";
      assigned.(!node) <- a :: assigned.(!node))
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
        let children =
          List.map
            (fun child ->
              let cvars = bag_vars.(child) in
              let shared =
                Array.to_list vars
                |> List.filter (fun v -> Array.exists (( = ) v) cvars)
              in
              let pos_in arr v =
                let p = ref (-1) in
                Array.iteri (fun i u -> if u = v then p := i) arr;
                !p
              in
              ( child,
                Array.of_list (List.map (pos_in vars) shared),
                Array.of_list (List.map (pos_in cvars) shared) ))
            kids.(node)
        in
        { vars; join; children; up = [||] })
  in
  (* a child's upward projection is [there] as seen from its parent *)
  Array.iter
    (fun n ->
      List.iter (fun (child, _, there) -> nodes.(child).up <- there) n.children)
    nodes;
  let fast_keys =
    Array.for_all
      (fun n ->
        List.for_all
          (fun (_, _, there) -> pow_fits universe_size (Array.length there))
          n.children)
      nodes
  in
  let root = Tree_decomposition.root d in
  let order = ref [] in
  let rec visit node =
    List.iter visit kids.(node);
    order := node :: !order
  in
  visit root;
  {
    nodes;
    postorder = Array.of_list (List.rev !order);
    root;
    fast_keys;
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
  { strat = strategy; universe_size; full_join; dp; budget }

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

(* Decision DP over the tree decomposition. Fast path (every shared-var
   projection encodes into one int): each bag keeps only the set of
   upward projections of its surviving solutions, the semijoin against
   the children is an int-hashtable probe inside the join callback, and
   no solution array is ever copied out of the join — the root
   early-exits on its first surviving solution. The slow path (huge
   universes) keeps full solutions keyed by allocated projections. *)
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

let decide_dp_fast ~budget ~universe dp merged =
  let num_nodes = Array.length dp.nodes in
  let memo =
    match pool_take dp.key_pool with
    | Some tables -> tables
    | None -> Array.init num_nodes (fun _ -> Hashtbl.create 64)
  in
  (* Top-down with memoization: [sat node key] — does the subtree rooted
     at [node] have a solution whose shared-with-parent projection
     decodes [key]? Each (node, key) pair is evaluated at most once (the
     bottom-up DP's worst case), but the search early-exits at every
     level: the root stops at its first satisfiable solution, and bags
     never enumerate outside the parent's surviving projections. *)
  let encode sol positions =
    let acc = ref 0 in
    for idx = 0 to Array.length positions - 1 do
      acc := (!acc * universe) + sol.(positions.(idx))
    done;
    !acc
  in
  let rec sat node key =
    match Hashtbl.find_opt memo.(node) key with
    | Some b -> b
    | None ->
        Budget.tick budget;
        let n = dp.nodes.(node) in
        let local = Array.map (fun v -> Some merged.(v)) n.vars in
        (* pin the shared positions to [key]'s digits (base [universe],
           most-significant first — the encoding order of [encode]) *)
        let k = ref key in
        for idx = Array.length n.up - 1 downto 0 do
          local.(n.up.(idx)) <- Some [| !k mod universe |];
          k := !k / universe
        done;
        let found = ref false in
        Generic_join.run ~reuse:true ~domains:local n.join ~f:(fun sol ->
            if
              List.for_all
                (fun (child, here, _) -> sat child (encode sol here))
                n.children
            then begin
              found := true;
              false
            end
            else true);
        Hashtbl.add memo.(node) key !found;
        !found
  in
  let answer = sat dp.root 0 (* root: [up = [||]], key 0, no pins *) in
  (* clear (keeping bucket arrays) and recycle; like the generic-join
     cursor pool, states are dropped on the exception path — a budget
     trip mid-search leaves tables in an unknown fill state worth GCing *)
  Array.iter Hashtbl.clear memo;
  pool_give dp.key_pool memo;
  answer

let decide_dp_exact ~budget dp merged =
  let num_nodes = Array.length dp.nodes in
  let solutions = Array.make num_nodes [] in
  let alive = ref true in
  Array.iter
    (fun node ->
      Budget.tick budget;
      if !alive then begin
        let n = dp.nodes.(node) in
        let local_domains = Array.map (fun v -> Some merged.(v)) n.vars in
        (* child projections hashed for the semijoin *)
        let child_tables =
          List.map
            (fun (child, here, there) ->
              let table = Hashtbl.create 64 in
              List.iter
                (fun sol ->
                  Hashtbl.replace table
                    (Array.to_list (Array.map (fun p -> sol.(p)) there))
                    ())
                solutions.(child);
              (here, table))
            n.children
        in
        let keep = ref [] in
        Generic_join.run ~domains:local_domains n.join ~f:(fun sol ->
            let ok =
              List.for_all
                (fun (here, table) ->
                  Hashtbl.mem table
                    (Array.to_list (Array.map (fun p -> sol.(p)) here)))
                child_tables
            in
            if ok then keep := sol :: !keep;
            true);
        solutions.(node) <- !keep;
        if !keep = [] then alive := false
      end)
    dp.postorder;
  !alive && solutions.(dp.root) <> []

let decide_dp ~budget ~universe dp merged =
  if dp.fast_keys then decide_dp_fast ~budget ~universe dp merged
  else decide_dp_exact ~budget dp merged

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
      | Some merged ->
          decide_dp ~budget:p.budget ~universe:p.universe_size dp merged)

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

module Nice = Ac_hypergraph.Nice_decomposition

(* Exact #Hom by DP over a nice tree decomposition of H(A) (Dalmau &
   Jonsson). Tables map bag assignments (over the bag's sorted variable
   list) to the number of extensions below the node. Constraints are
   enforced by filtering at every node whose bag contains an atom's whole
   scope — filtering is idempotent, so enforcing at several nodes is
   harmless; multiplicities arise only from forget-sums. *)
let count_dp ?(budget = Budget.none) ({ source; target = _ } as inst) =
  let n = Structure.universe_size source in
  if n = 0 then 1
  else begin
    match restrict_domains inst with
    | None -> 0
    | Some domains ->
        let atoms = to_atoms inst in
        let h = hypergraph source in
        let nice = Nice.of_hypergraph h in
        let bag_vars =
          Array.map (fun b -> Array.of_list (Bitset.to_list b)) nice.Nice.bags
        in
        (* atoms indexed by scope sets for the per-node filter *)
        let capacity = Hypergraph.num_vertices h in
        let atom_scopes =
          List.map
            (fun (a : Generic_join.atom) ->
              ( Bitset.of_list ~capacity (Array.to_list a.Generic_join.scope),
                a ))
            atoms
        in
        let satisfies_bag node (alpha : int array) =
          let vars = bag_vars.(node) in
          let value_of v =
            let p = ref (-1) in
            Array.iteri (fun i u -> if u = v then p := i) vars;
            alpha.(!p)
          in
          List.for_all
            (fun (scope_set, (a : Generic_join.atom)) ->
              (not (Bitset.subset scope_set nice.Nice.bags.(node)))
              || Ac_relational.Relation.mem a.Generic_join.relation
                   (Array.map value_of a.Generic_join.scope))
            atom_scopes
        in
        let tables :
            (int list, int) Hashtbl.t array =
          Array.make (Nice.num_nodes nice) (Hashtbl.create 1)
        in
        let kids = Nice.children nice in
        let bump table key count =
          Budget.tick budget;
          if count > 0 then
            Hashtbl.replace table key
              (count + Option.value ~default:0 (Hashtbl.find_opt table key))
        in
        Array.iter
          (fun node ->
            let table = Hashtbl.create 64 in
            (match (nice.Nice.kind.(node), kids.(node)) with
            | Nice.Leaf, [] -> Hashtbl.replace table [] 1
            | Nice.Introduce v, [ c ] ->
                (* position of v in this bag's sorted variable list *)
                let vars = bag_vars.(node) in
                let pos = ref 0 in
                Array.iteri (fun i u -> if u = v then pos := i) vars;
                Hashtbl.iter
                  (fun key count ->
                    let key = Array.of_list key in
                    Array.iter
                      (fun x ->
                        let alpha =
                          Array.init (Array.length vars) (fun i ->
                              if i < !pos then key.(i)
                              else if i = !pos then x
                              else key.(i - 1))
                        in
                        if satisfies_bag node alpha then
                          bump table (Array.to_list alpha) count)
                      domains.(v))
                  tables.(c)
            | Nice.Forget v, [ c ] ->
                let cvars = bag_vars.(c) in
                let pos = ref 0 in
                Array.iteri (fun i u -> if u = v then pos := i) cvars;
                Hashtbl.iter
                  (fun key count ->
                    let key = Array.of_list key in
                    let projected =
                      Array.to_list
                        (Array.init
                           (Array.length key - 1)
                           (fun i -> if i < !pos then key.(i) else key.(i + 1)))
                    in
                    bump table projected count)
                  tables.(c)
            | Nice.Join, [ c1; c2 ] ->
                Hashtbl.iter
                  (fun key count1 ->
                    match Hashtbl.find_opt tables.(c2) key with
                    | Some count2 -> bump table key (count1 * count2)
                    | None -> ())
                  tables.(c1)
            | _ -> invalid_arg "Hom.count_dp: decomposition is not nice");
            tables.(node) <- table)
          (Nice.postorder nice);
        Option.value ~default:0 (Hashtbl.find_opt tables.(nice.Nice.root) [])
  end
