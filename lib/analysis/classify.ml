module Ecq = Ac_query.Ecq
module Hypergraph = Ac_hypergraph.Hypergraph
module Tree_decomposition = Ac_hypergraph.Tree_decomposition
module Widths = Ac_hypergraph.Widths
module Bitset = Ac_hypergraph.Bitset
open Classification

let exact_width_limit = 14
let width_warn_threshold = 5
let fhw_warn_threshold = 3.0
let star_warn_threshold = 4

(* Union-find over variables; atoms and disequalities both connect. *)
let components q =
  let n = Ecq.num_vars q in
  let uf = Array.init n Fun.id in
  let rec find v = if uf.(v) = v then v else (uf.(v) <- find uf.(v); uf.(v)) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then uf.(ra) <- rb
  in
  let link vs =
    Array.iteri (fun i v -> if i > 0 then union vs.(0) v) vs
  in
  List.iter
    (function
      | Ecq.Atom (_, vs) | Ecq.Neg_atom (_, vs) -> link vs
      | Ecq.Diseq (i, j) -> union i j)
    (Ecq.atoms q);
  let buckets = Hashtbl.create 8 in
  for v = n - 1 downto 0 do
    let r = find v in
    Hashtbl.replace buckets r (v :: (Option.value ~default:[] (Hashtbl.find_opt buckets r)))
  done;
  Hashtbl.fold (fun _ vs acc -> vs :: acc) buckets []
  |> List.sort compare

(* Quantified star size (Durand–Mengel style bound): group the
   existential variables into connected components (through atoms whose
   every link passes an existential variable), then count the free
   variables sharing an atom with each component. The worst star governs
   how many free variables one colour-coded trial must pin down. *)
let star q =
  let n = Ecq.num_vars q in
  let free = Ecq.num_free q in
  if n = free then (0, None)
  else begin
    let uf = Array.init n Fun.id in
    let rec find v = if uf.(v) = v then v else (uf.(v) <- find uf.(v); uf.(v)) in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then uf.(ra) <- rb
    in
    (* connect existential variables co-occurring in an atom *)
    List.iter
      (function
        | Ecq.Atom (_, vs) | Ecq.Neg_atom (_, vs) ->
            let ex = Array.to_list vs |> List.filter (fun v -> v >= free) in
            List.iteri (fun i v -> if i > 0 then union (List.hd ex) v) ex
        | Ecq.Diseq (i, j) -> if i >= free && j >= free then union i j)
      (Ecq.atoms q);
    (* free leaves attached to each existential component *)
    let attached : (int, int list) Hashtbl.t = Hashtbl.create 8 in
    let attach root v =
      let cur = Option.value ~default:[] (Hashtbl.find_opt attached root) in
      if not (List.mem v cur) then Hashtbl.replace attached root (v :: cur)
    in
    List.iter
      (function
        | Ecq.Atom (_, vs) | Ecq.Neg_atom (_, vs) ->
            let vs = Array.to_list vs in
            let roots =
              List.filter_map
                (fun v -> if v >= free then Some (find v) else None)
                vs
              |> List.sort_uniq compare
            in
            List.iter
              (fun root ->
                List.iter (fun v -> if v < free then attach root v) vs)
              roots
        | Ecq.Diseq (i, j) ->
            if i >= free && j < free then attach (find i) j;
            if j >= free && i < free then attach (find j) i)
      (Ecq.atoms q);
    let best = ref (0, None) in
    for v = free to n - 1 do
      if find v = v then begin
        let leaves =
          List.sort compare (Option.value ~default:[] (Hashtbl.find_opt attached v))
        in
        let core =
          List.init (n - free) (fun i -> i + free)
          |> List.filter (fun w -> find w = v)
        in
        if List.length leaves > fst !best then
          best :=
            ( List.length leaves,
              Some { existential_core = core; free_leaves = leaves } )
      end
    done;
    !best
  end

(* A negated atom whose positive twin (same symbol, same argument tuple)
   also occurs is unsatisfiable: the query is statically empty. *)
let empty_witness q =
  let atoms = Array.of_list (Ecq.atoms q) in
  let n = Array.length atoms in
  let found = ref None in
  (try
     for i = 0 to n - 1 do
       match atoms.(i) with
       | Ecq.Atom (name, vs) ->
           for j = 0 to n - 1 do
             match atoms.(j) with
             | Ecq.Neg_atom (name', vs') when name = name' && vs = vs' ->
                 found := Some { relation = name; pos_index = i; neg_index = j };
                 raise Exit
             | _ -> ()
           done
       | _ -> ()
     done
   with Exit -> ());
  !found

let classify q =
  let h = Ecq.hypergraph q in
  let exact_widths = Hypergraph.num_vertices h <= exact_width_limit in
  let treewidth, certificate =
    if exact_widths then
      let tw, d = Tree_decomposition.treewidth_exact h in
      (tw, d)
    else
      let d = Tree_decomposition.decompose h in
      (Tree_decomposition.width d, d)
  in
  let fhw =
    if exact_widths then fst (Widths.fhw_exact h) else Widths.fhw_upper h
  in
  let width_certificate =
    Array.to_list certificate.Tree_decomposition.bags
    |> List.map Bitset.to_list
  in
  let arity = Hypergraph.arity h in
  let query_class =
    if Ecq.is_cq q then Cq else if Ecq.is_dcq q then Dcq else Ecq_full
  in
  let star_size, max_star = star q in
  let always_empty = empty_witness q in
  let regime =
    match always_empty with
    | Some _ -> Rung.Exact
    | None -> (
        match query_class with
        | Cq -> Rung.Fpras
        | Dcq ->
            if arity <= 2 && treewidth <= 3 then Rung.Tree_dp
            else Rung.Generic_join
        | Ecq_full -> Rung.Tree_dp)
  in
  {
    query_class;
    num_vars = Ecq.num_vars q;
    num_free = Ecq.num_free q;
    arity;
    treewidth;
    fhw;
    exact_widths;
    width_certificate;
    components = components q;
    star_size;
    max_star;
    quantifier_free = Ecq.num_existential q = 0;
    diseq_free = Ecq.delta q = [];
    always_empty;
    regime;
  }
