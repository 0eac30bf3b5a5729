(* The cover LP has 0/1 coefficients and unit bounds, so the exact
   rational simplex applies verbatim and certifies values like 3/2
   without float tolerances. [None] encodes an uncoverable vertex. *)
let fcn_rational h x =
  let edges = Hypergraph.induced_edges h x in
  let m = List.length edges in
  let vertices = Bitset.to_list x in
  if vertices = [] then Some (Ac_lp.Rat.zero, [||])
  else if
    List.exists
      (fun v -> not (List.exists (fun e -> Bitset.mem e v) edges))
      vertices
  then None
  else begin
    let edge_array = Array.of_list edges in
    let objective = Array.make m Ac_lp.Rat.one in
    let constraints =
      List.map
        (fun v ->
          let coeffs =
            Array.map
              (fun e -> if Bitset.mem e v then Ac_lp.Rat.one else Ac_lp.Rat.zero)
              edge_array
          in
          Ac_lp.Simplex_exact.constr coeffs Ac_lp.Simplex_exact.Ge Ac_lp.Rat.one)
        vertices
    in
    match Ac_lp.Simplex_exact.minimize ~num_vars:m ~objective constraints with
    | Ac_lp.Simplex_exact.Optimal { value; point } -> Some (value, point)
    | Ac_lp.Simplex_exact.Infeasible | Ac_lp.Simplex_exact.Unbounded ->
        (* cannot happen: γ ≡ 1 is feasible and the objective is ≥ 0 *)
        None
  end

let fcn h x =
  match fcn_rational h x with
  | None -> (infinity, [||])
  | Some (value, point) ->
      (Ac_lp.Rat.to_float value, Array.map Ac_lp.Rat.to_float point)

let integral_cover_number h x =
  if Bitset.is_empty x then 0
  else begin
    let edges =
      Hypergraph.edges h
      |> List.filter_map (fun e ->
             let e' = Bitset.inter e x in
             if Bitset.is_empty e' then None else Some e')
    in
    let edges =
      (* deduplicate; keep only maximal intersections *)
      let arr = List.sort_uniq Bitset.compare edges in
      List.filter
        (fun e -> not (List.exists (fun e' -> (not (Bitset.equal e e')) && Bitset.subset e e') arr))
        arr
    in
    let m = List.length edges in
    if m = 0 then max_int
    else if m <= 20 then begin
      (* exact branch and bound over subsets, smallest-first *)
      let arr = Array.of_list edges in
      let best = ref max_int in
      let rec search idx chosen covered =
        if Bitset.subset x covered then best := min !best chosen
        else if idx < m && chosen + 1 < !best then begin
          search (idx + 1) (chosen + 1) (Bitset.union covered arr.(idx));
          search (idx + 1) chosen covered
        end
      in
      search 0 0 (Bitset.create ~capacity:(Bitset.capacity x));
      if !best = max_int then max_int else !best
    end
    else begin
      (* greedy set cover *)
      let remaining = ref x and count = ref 0 in
      let continue_ = ref true in
      while (not (Bitset.is_empty !remaining)) && !continue_ do
        let best_edge = ref None and best_gain = ref 0 in
        List.iter
          (fun e ->
            let gain = Bitset.cardinal (Bitset.inter e !remaining) in
            if gain > !best_gain then begin
              best_gain := gain;
              best_edge := Some e
            end)
          edges;
        match !best_edge with
        | None -> continue_ := false
        | Some e ->
            remaining := Bitset.diff !remaining e;
            incr count
      done;
      if Bitset.is_empty !remaining then !count else max_int
    end
  end

let fhw_of_decomposition h (d : Tree_decomposition.t) =
  Array.fold_left (fun acc b -> Float.max acc (fst (fcn h b))) 0.0 d.bags

let fhw_exact h =
  if Hypergraph.num_vertices h > 18 then invalid_arg "Widths.fhw_exact: too large";
  let cost b = fst (fcn h b) in
  let value, order = Tree_decomposition.exact_f_width h ~cost in
  (value, Tree_decomposition.of_elimination_order h order)

let fhw_upper h =
  let d = Tree_decomposition.of_elimination_order h (Tree_decomposition.min_fill_order h) in
  fhw_of_decomposition h d

let hw_of_decomposition h (d : Tree_decomposition.t) =
  Array.fold_left (fun acc b -> max acc (integral_cover_number h b)) 0 d.bags

let ghw_exact h =
  if Hypergraph.num_vertices h > 18 then invalid_arg "Widths.ghw_exact: too large";
  let cost b =
    let c = integral_cover_number h b in
    if c = max_int then infinity else float_of_int c
  in
  fst (Tree_decomposition.exact_f_width h ~cost)

(* Same 0/1 LP shape as the cover LP, so the exact simplex solves it
   too and the value is converted at the boundary, as in [fcn]. *)
let max_fractional_independent_set h =
  let n = Hypergraph.num_vertices h in
  if n = 0 then (0.0, [||])
  else begin
    let open Ac_lp in
    let row mem =
      Simplex_exact.constr
        (Array.init n (fun v -> if mem v then Rat.one else Rat.zero))
        Simplex_exact.Le Rat.one
    in
    let constraints =
      List.map (fun e -> row (Bitset.mem e)) (Hypergraph.edges h)
      @ List.init n (fun v -> row (Int.equal v))
    in
    match
      Simplex_exact.maximize ~num_vars:n ~objective:(Array.make n Rat.one)
        constraints
    with
    | Simplex_exact.Optimal { value; point } ->
        (Rat.to_float value, Array.map Rat.to_float point)
    | Simplex_exact.Infeasible | Simplex_exact.Unbounded ->
        (* cannot happen: μ ≡ 0 is feasible and the boxes bound μ *)
        (0.0, Array.make n 0.0)
  end

let is_fractional_independent_set ?(tolerance = 1e-6) h mu =
  Array.length mu = Hypergraph.num_vertices h
  && Array.for_all (fun w -> w >= -.tolerance && w <= 1.0 +. tolerance) mu
  && List.for_all
       (fun e ->
         Bitset.fold (fun v acc -> acc +. mu.(v)) e 0.0 <= 1.0 +. tolerance)
       (Hypergraph.edges h)

let mu_width h mu =
  if Hypergraph.num_vertices h > 18 then invalid_arg "Widths.mu_width: too large";
  let cost b = Bitset.fold (fun v acc -> acc +. mu.(v)) b 0.0 in
  fst (Tree_decomposition.exact_f_width h ~cost)

let adaptive_width_bounds h =
  let n = Hypergraph.num_vertices h in
  if n = 0 then (0.0, 0.0)
  else begin
    let upper = fst (fhw_exact h) in
    (* candidate fractional independent sets *)
    let arity = max 1 (Hypergraph.arity h) in
    let uniform = Array.make n (1.0 /. float_of_int arity) in
    let per_vertex =
      Array.init n (fun v ->
          match Hypergraph.incident h v with
          | [] -> 1.0
          | es ->
              let m =
                List.fold_left (fun acc e -> max acc (Bitset.cardinal e)) 1 es
              in
              1.0 /. float_of_int m)
    in
    let lp_opt = snd (max_fractional_independent_set h) in
    let candidates =
      List.filter (is_fractional_independent_set h) [ uniform; per_vertex; lp_opt ]
    in
    let lower =
      List.fold_left (fun acc mu -> Float.max acc (mu_width h mu)) 0.0 candidates
    in
    (Float.min lower upper, upper)
  end
