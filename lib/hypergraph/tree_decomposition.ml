type t = {
  bags : Bitset.t array;
  parent : int array;
}

let num_nodes d = Array.length d.bags

let root d =
  let r = ref (-1) in
  Array.iteri (fun i p -> if p = -1 then r := i) d.parent;
  if !r < 0 then invalid_arg "Tree_decomposition.root: no root";
  !r

let children d =
  let kids = Array.make (num_nodes d) [] in
  Array.iteri (fun i p -> if p >= 0 then kids.(p) <- i :: kids.(p)) d.parent;
  kids

let contract d =
  let n = num_nodes d in
  let bags = Array.copy d.bags and parent = Array.copy d.parent in
  let alive = Array.make n true in
  let kids = children d in
  (* children first, so a bag is compared with its parent only after
     every bag below it has been merged into it *)
  let rec visit i =
    List.iter visit kids.(i);
    let p = parent.(i) in
    if p >= 0 && (Bitset.subset bags.(i) bags.(p) || Bitset.subset bags.(p) bags.(i))
    then begin
      bags.(p) <- Bitset.union bags.(p) bags.(i);
      alive.(i) <- false;
      Array.iteri (fun c q -> if q = i then parent.(c) <- p) parent
    end
  in
  visit (root d);
  let keep = List.filter (fun i -> alive.(i)) (List.init n Fun.id) in
  let index = Array.make n (-1) in
  List.iteri (fun k i -> index.(i) <- k) keep;
  {
    bags = Array.of_list (List.map (fun i -> bags.(i)) keep);
    parent =
      Array.of_list
        (List.map (fun i -> if parent.(i) < 0 then -1 else index.(parent.(i))) keep);
  }

let width d =
  Array.fold_left (fun acc b -> max acc (Bitset.cardinal b - 1)) (-1) d.bags

let is_valid h d =
  let n = num_nodes d in
  n > 0
  && (* exactly one root, parents in range, acyclic by increasing depth *)
  (let roots = Array.to_list d.parent |> List.filter (fun p -> p = -1) in
   List.length roots = 1)
  && Array.for_all (fun p -> p = -1 || (p >= 0 && p < n)) d.parent
  && (* acyclicity: following parents terminates *)
  (let ok = ref true in
   Array.iteri
     (fun i _ ->
       let steps = ref 0 and cur = ref i in
       while !cur <> -1 && !steps <= n do
         cur := d.parent.(!cur);
         incr steps
       done;
       if !steps > n then ok := false)
     d.parent;
   !ok)
  && (* (i) every hyperedge inside some bag *)
  List.for_all
    (fun e -> Array.exists (fun b -> Bitset.subset e b) d.bags)
    (Hypergraph.edges h)
  && (* (ii) bags containing each vertex form a connected subtree: the
        nodes containing v, minus one "highest" node, must each have a
        parent also containing v. *)
  (let ok = ref true in
   for v = 0 to Hypergraph.num_vertices h - 1 do
     let holders = ref [] in
     Array.iteri (fun i b -> if Bitset.mem b v then holders := i :: !holders) d.bags;
     let tops =
       List.filter
         (fun i -> d.parent.(i) = -1 || not (Bitset.mem d.bags.(d.parent.(i)) v))
         !holders
     in
     if !holders <> [] && List.length tops <> 1 then ok := false
   done;
   !ok)

(* Adjacency-matrix view of the primal graph, mutated to hold fill edges
   while simulating an elimination order. *)
let fill_matrix h =
  let n = Hypergraph.num_vertices h in
  let adj = Array.make_matrix n n false in
  List.iter
    (fun e ->
      let vs = Bitset.to_list e in
      List.iter
        (fun u -> List.iter (fun v -> if u <> v then adj.(u).(v) <- true) vs)
        vs)
    (Hypergraph.edges h);
  adj

let of_elimination_order h order =
  let n = Hypergraph.num_vertices h in
  if Array.length order <> n then invalid_arg "of_elimination_order: bad order";
  if n = 0 then invalid_arg "of_elimination_order: empty hypergraph";
  let adj = fill_matrix h in
  let position = Array.make n 0 in
  Array.iteri (fun i v -> position.(v) <- i) order;
  let bags = Array.make n (Bitset.create ~capacity:n) in
  let parent = Array.make n (-1) in
  let eliminated = Array.make n false in
  Array.iteri
    (fun step v ->
      let later =
        List.init n Fun.id
        |> List.filter (fun u -> u <> v && (not eliminated.(u)) && adj.(v).(u))
      in
      bags.(step) <- Bitset.of_list ~capacity:n (v :: later);
      (* connect later neighbours into a clique (fill edges) *)
      List.iter
        (fun u ->
          List.iter
            (fun w ->
              if u <> w then begin
                adj.(u).(w) <- true;
                adj.(w).(u) <- true
              end)
            later)
        later;
      eliminated.(v) <- true;
      (* parent = node of the earliest-eliminated later neighbour *)
      match later with
      | [] -> parent.(step) <- (if step = n - 1 then -1 else step + 1)
      | _ ->
          let u =
            List.fold_left
              (fun best u -> if position.(u) < position.(best) then u else best)
              (List.hd later) later
          in
          parent.(step) <- position.(u))
    order;
  parent.(n - 1) <- -1;
  { bags; parent }

let min_fill_order h =
  let n = Hypergraph.num_vertices h in
  let adj = fill_matrix h in
  let eliminated = Array.make n false in
  let order = Array.make n 0 in
  let live_neighbours v =
    List.init n Fun.id
    |> List.filter (fun u -> u <> v && (not eliminated.(u)) && adj.(v).(u))
  in
  let fill_cost v =
    let ns = live_neighbours v in
    let missing = ref 0 in
    List.iter
      (fun u -> List.iter (fun w -> if u < w && not adj.(u).(w) then incr missing) ns)
      ns;
    !missing
  in
  for step = 0 to n - 1 do
    let best = ref (-1) and best_cost = ref max_int in
    for v = 0 to n - 1 do
      if not eliminated.(v) then begin
        let c = fill_cost v in
        if c < !best_cost then begin
          best := v;
          best_cost := c
        end
      end
    done;
    let v = !best in
    let ns = live_neighbours v in
    List.iter
      (fun u ->
        List.iter
          (fun w ->
            if u <> w then begin
              adj.(u).(w) <- true;
              adj.(w).(u) <- true
            end)
          ns)
      ns;
    eliminated.(v) <- true;
    order.(step) <- v
  done;
  order

let primal_adj_masks h =
  let n = Hypergraph.num_vertices h in
  let adj = Array.make n 0 in
  List.iter
    (fun e ->
      let vs = Bitset.to_list e in
      List.iter
        (fun u ->
          List.iter (fun v -> if u <> v then adj.(u) <- adj.(u) lor (1 lsl v)) vs)
        vs)
    (Hypergraph.edges h);
  adj

(* Exact f-width by Held–Karp style DP over subsets of eliminated vertices.
   g(S) = min over v in S of max(g(S \ v), cost(bag(S \ v, v))) where
   bag(S, v) = {v} ∪ {w ∉ S, w ≠ v | v~w via a path with interior in S}. *)
let exact_f_width h ~cost =
  let n = Hypergraph.num_vertices h in
  if n > 22 then invalid_arg "exact_f_width: too many vertices";
  if n = 0 then invalid_arg "exact_f_width: empty hypergraph";
  let adj = primal_adj_masks h in
  let bag_of s v =
    (* BFS from v allowed to traverse vertices in s *)
    let visited = ref (1 lsl v) in
    let frontier = ref (1 lsl v) in
    let reached = ref 0 in
    while !frontier <> 0 do
      let next = ref 0 in
      for u = 0 to n - 1 do
        if !frontier land (1 lsl u) <> 0 then begin
          let nbrs = adj.(u) land lnot !visited in
          visited := !visited lor nbrs;
          (* vertices in s propagate the search; others are endpoints *)
          next := !next lor (nbrs land s);
          reached := !reached lor (nbrs land lnot s)
        end
      done;
      frontier := !next
    done;
    (1 lsl v) lor (!reached land lnot (1 lsl v))
  in
  let to_bitset mask =
    let rec collect i acc =
      if i >= n then acc
      else collect (i + 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc)
    in
    Bitset.of_list ~capacity:n (collect 0 [])
  in
  let bag_cost_cache = Hashtbl.create 1024 in
  let bag_cost mask =
    match Hashtbl.find_opt bag_cost_cache mask with
    | Some c -> c
    | None ->
        let c = cost (to_bitset mask) in
        Hashtbl.add bag_cost_cache mask c;
        c
  in
  let size = 1 lsl n in
  let g = Array.make size infinity in
  let choice = Array.make size (-1) in
  g.(0) <- neg_infinity;
  for s = 1 to size - 1 do
    let best = ref infinity and best_v = ref (-1) in
    for v = 0 to n - 1 do
      if s land (1 lsl v) <> 0 then begin
        let s' = s land lnot (1 lsl v) in
        let candidate = Float.max g.(s') (bag_cost (bag_of s' v)) in
        (* accept any first vertex so the witness order stays total even
           when all costs are infinite (e.g. isolated-vertex fcn) *)
        if candidate < !best || !best_v < 0 then begin
          best := candidate;
          best_v := v
        end
      end
    done;
    g.(s) <- !best;
    choice.(s) <- !best_v
  done;
  (* reconstruct elimination order *)
  let order = Array.make n 0 in
  let s = ref (size - 1) in
  for step = n - 1 downto 0 do
    let v = choice.(!s) in
    order.(step) <- v;
    s := !s land lnot (1 lsl v)
  done;
  (g.(size - 1), order)

let min_degree_order h =
  let n = Hypergraph.num_vertices h in
  let adj = fill_matrix h in
  let eliminated = Array.make n false in
  let order = Array.make n 0 in
  let live_neighbours v =
    List.init n Fun.id
    |> List.filter (fun u -> u <> v && (not eliminated.(u)) && adj.(v).(u))
  in
  for step = 0 to n - 1 do
    let best = ref (-1) and best_degree = ref max_int in
    for v = 0 to n - 1 do
      if not eliminated.(v) then begin
        let d = List.length (live_neighbours v) in
        if d < !best_degree then begin
          best := v;
          best_degree := d
        end
      end
    done;
    let v = !best in
    let ns = live_neighbours v in
    List.iter
      (fun u ->
        List.iter
          (fun w ->
            if u <> w then begin
              adj.(u).(w) <- true;
              adj.(w).(u) <- true
            end)
          ns)
      ns;
    eliminated.(v) <- true;
    order.(step) <- v
  done;
  order

let treewidth_exact h =
  let cost b = float_of_int (Bitset.cardinal b - 1) in
  let value, order = exact_f_width h ~cost in
  let d = of_elimination_order h order in
  (int_of_float value, d)

let decompose ?(exact_limit = 14) h =
  if Hypergraph.num_vertices h <= exact_limit then snd (treewidth_exact h)
  else begin
    (* best of the two classic greedy orderings *)
    let d_fill = of_elimination_order h (min_fill_order h) in
    let d_degree = of_elimination_order h (min_degree_order h) in
    if width d_fill <= width d_degree then d_fill else d_degree
  end

let pp fmt d =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun i b ->
      Format.fprintf fmt "node %d (parent %d): %a@," i d.parent.(i) Bitset.pp b)
    d.bags;
  Format.fprintf fmt "@]"
