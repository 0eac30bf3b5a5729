module Structure = Ac_relational.Structure

type t = {
  num_vertices : int;
  edges : (int * int) list;
  adjacency : int list array;
}

let create ~num_vertices raw_edges =
  if num_vertices < 0 then invalid_arg "Graph.create";
  let seen = Hashtbl.create 64 in
  let edges = ref [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= num_vertices || v < 0 || v >= num_vertices then
        invalid_arg "Graph.create: vertex out of range";
      if u <> v then begin
        let e = (min u v, max u v) in
        if not (Hashtbl.mem seen e) then begin
          Hashtbl.replace seen e ();
          edges := e :: !edges
        end
      end)
    raw_edges;
  let edges = List.rev !edges in
  let adjacency = Array.make num_vertices [] in
  List.iter
    (fun (u, v) ->
      adjacency.(u) <- v :: adjacency.(u);
      adjacency.(v) <- u :: adjacency.(v))
    edges;
  { num_vertices; edges; adjacency }

let num_vertices g = g.num_vertices
let edges g = g.edges
let num_edges g = List.length g.edges
let neighbours g v = g.adjacency.(v)
let degree g v = List.length g.adjacency.(v)
let has_edge g u v = u <> v && List.mem v g.adjacency.(u)

let common_neighbour_pairs g =
  let seen = Hashtbl.create 64 in
  for c = 0 to g.num_vertices - 1 do
    let ns = g.adjacency.(c) in
    List.iter
      (fun u ->
        List.iter
          (fun v -> if u < v then Hashtbl.replace seen (u, v) ())
          ns)
      ns
  done;
  Hashtbl.fold (fun p () acc -> p :: acc) seen [] |> List.sort compare

let to_structure ?(symbol = "E") g =
  let s = Structure.create ~universe_size:g.num_vertices in
  Structure.declare s symbol ~arity:2;
  List.iter
    (fun (u, v) ->
      Structure.add_fact s symbol [| u; v |];
      Structure.add_fact s symbol [| v; u |])
    g.edges;
  s

let path n =
  create ~num_vertices:n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Graph.cycle";
  create ~num_vertices:n (List.init n (fun i -> (i, (i + 1) mod n)))

let clique n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  create ~num_vertices:n !edges

let star n = create ~num_vertices:(n + 1) (List.init n (fun i -> (0, i + 1)))

let grid rows cols =
  let idx i j = (i * cols) + j in
  let edges = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if j + 1 < cols then edges := (idx i j, idx i (j + 1)) :: !edges;
      if i + 1 < rows then edges := (idx i j, idx (i + 1) j) :: !edges
    done
  done;
  create ~num_vertices:(rows * cols) !edges

let binary_tree ~depth =
  if depth < 0 then invalid_arg "Graph.binary_tree";
  let n = (1 lsl (depth + 1)) - 1 in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := ((v - 1) / 2, v) :: !edges
  done;
  create ~num_vertices:n !edges

let random_gnp ~rng n p =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then edges := (i, j) :: !edges
    done
  done;
  create ~num_vertices:n !edges

let random_gnm ~rng n m =
  let all = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      all := (i, j) :: !all
    done
  done;
  let arr = Array.of_list !all in
  let total = Array.length arr in
  if m > total then invalid_arg "Graph.random_gnm: too many edges";
  (* partial Fisher–Yates *)
  for i = 0 to m - 1 do
    let j = i + Random.State.int rng (total - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  create ~num_vertices:n (Array.to_list (Array.sub arr 0 m))

let count_hamiltonian_paths g =
  let n = g.num_vertices in
  if n > 20 then invalid_arg "Graph.count_hamiltonian_paths: too large";
  if n = 0 then 0
  else if n = 1 then 1
  else begin
    (* dp.(mask).(v) = number of ordered paths visiting exactly [mask],
       ending at [v] *)
    let size = 1 lsl n in
    let dp = Array.make_matrix size n 0 in
    for v = 0 to n - 1 do
      dp.(1 lsl v).(v) <- 1
    done;
    for mask = 1 to size - 1 do
      for v = 0 to n - 1 do
        let c = dp.(mask).(v) in
        if c > 0 && mask land (1 lsl v) <> 0 then
          List.iter
            (fun u ->
              if mask land (1 lsl u) = 0 then
                dp.(mask lor (1 lsl u)).(u) <- dp.(mask lor (1 lsl u)).(u) + c)
            g.adjacency.(v)
      done
    done;
    Array.fold_left ( + ) 0 dp.(size - 1)
  end

let count_locally_injective_brute g g' =
  let n = num_vertices g and m = num_vertices g' in
  let h = Array.make (max n 1) 0 in
  let count = ref 0 in
  let locally_injective () =
    let ok = ref true in
    for v = 0 to n - 1 do
      let ns = neighbours g v in
      let images = List.map (fun u -> h.(u)) ns in
      let sorted = List.sort_uniq Int.compare images in
      if List.length sorted <> List.length images then ok := false
    done;
    !ok
  in
  let is_hom () =
    List.for_all (fun (u, v) -> has_edge g' h.(u) h.(v)) g.edges
  in
  let rec go i =
    if i = n then begin
      if is_hom () && locally_injective () then incr count
    end
    else
      for b = 0 to m - 1 do
        h.(i) <- b;
        go (i + 1)
      done
  in
  if n = 0 then count := 1 else if m > 0 then go 0;
  !count
