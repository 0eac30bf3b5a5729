module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Tuple = Ac_relational.Tuple
module Partite = Ac_dlm.Partite
module Edge_count = Ac_dlm.Edge_count
module Budget = Ac_runtime.Budget
module Engine = Ac_exec.Engine

(* Estimate the number of answers inside the box given by [pins]:
   [pins.(i) = Some values] confines free variable [i], an unpinned class
   spans the whole universe. [rng] drives both the estimator and the
   oracle's colouring probes, so a draw is a pure function of the RNG
   state handed to it. *)
let pinned_estimate ~rng ~eps ~delta oracle space pins =
  let box =
    Array.mapi
      (fun i size ->
        match pins.(i) with Some p -> p | None -> Array.init size Fun.id)
      space.Partite.class_sizes
  in
  (Edge_count.estimate ~source:(Edge_count.Stream rng) ~within:box
     ~epsilon:eps ~delta space
     (Colour_oracle.seeded_oracle oracle))
    .Edge_count.value

(* One JVV draw over a prepared oracle. Every random choice — the
   halving decisions, the counting estimates behind them and the oracle
   colourings — comes from [rng], so independent draws on disjoint RNG
   streams are independent trials for the parallel engine. *)
let draw_one ~rng ~budget ~eps ~delta oracle ~num_free ~universe_size =
  let l = num_free and u = universe_size in
  if l = 0 then
    if Colour_oracle.has_answer_in_box ~rng oracle [||] then Some [||] else None
  else begin
    let space = Colour_oracle.space oracle in
    let pins = Array.make l None in
    let estimate () = pinned_estimate ~rng ~eps ~delta oracle space pins in
    let ok = ref true in
    (* JVV: pin classes one by one, choosing by recursive halving so that
       each class costs O(log |U|) counting calls. *)
    for i = 0 to l - 1 do
      if !ok then begin
        let candidates = ref (Array.init u Fun.id) in
        while !ok && Array.length !candidates > 1 do
          Budget.tick budget;
          let n = Array.length !candidates in
          let left = Array.sub !candidates 0 (n / 2) in
          let right = Array.sub !candidates (n / 2) (n - (n / 2)) in
          pins.(i) <- Some left;
          let n_left = estimate () in
          pins.(i) <- Some right;
          let n_right = estimate () in
          let total = n_left +. n_right in
          if total <= 0.0 then ok := false
          else if Random.State.float rng total < n_left then begin
            candidates := left;
            pins.(i) <- Some left
          end
          else begin
            candidates := right;
            pins.(i) <- Some right
          end
        done;
        if !ok then begin
          match !candidates with
          | [| v |] -> pins.(i) <- Some [| v |]
          | _ -> ok := false
        end
      end
    done;
    if not !ok then None
    else begin
      let tau = Array.map (function Some [| v |] -> v | _ -> -1) pins in
      if Array.exists (( = ) (-1)) tau then None
      else begin
        (* final verification: the pinned box must contain an answer *)
        let parts = Array.map (fun v -> [| v |]) tau in
        if Colour_oracle.has_answer_in_box ~rng oracle parts then Some tau
        else None
      end
    end
  end

let make_sampler ?budget ~rng ?(engine = Colour_oracle.Tree_dp) ?rounds ~eps
    ~delta q db =
  let checkpoint = match budget with None -> Budget.none | Some b -> b in
  let oracle = Colour_oracle.create ?rounds ?budget ~engine q db in
  let num_free = Ecq.num_free q and universe_size = Structure.universe_size db in
  fun () ->
    draw_one ~rng ~budget:checkpoint ~eps ~delta oracle ~num_free ~universe_size

let sample ?budget ~rng ?engine ?rounds ~eps ~delta q db =
  make_sampler ?budget ~rng ?engine ?rounds ~eps ~delta q db ()

(* Independent draws fanned out over the engine: the oracle and solver
   are built once (read-only afterwards), draw [i] runs on stream [i],
   and the returned array is in draw order — bit-identical for any jobs
   count. *)
let sample_many ?budget ?(engine = Colour_oracle.Tree_dp) ?rounds ~exec ~draws
    ~eps ~delta q db =
  let oracle =
    Colour_oracle.create ?rounds ?budget ~span:(Engine.span exec) ~engine q db
  in
  let num_free = Ecq.num_free q and universe_size = Structure.universe_size db in
  Engine.run ?budget exec ~trials:draws (fun ~rng ~budget i ->
      ignore i;
      draw_one ~rng ~budget ~eps ~delta oracle ~num_free ~universe_size)

(* §6 first bullet: answers are the hyperedges of H(φ, D), so the
   DLM-style edge sampler applied to the colour-coded oracle samples an
   answer directly. *)
let sample_dlm ?budget ~rng ?(engine = Colour_oracle.Tree_dp) ?rounds ~eps
    ~delta q db =
  let oracle = Colour_oracle.create ?rounds ?budget ~engine q db in
  if Ecq.num_free q = 0 then
    if Colour_oracle.has_answer_in_box ~rng oracle [||] then Some [||] else None
  else
    Edge_count.sample_edge ~rng ~epsilon:eps ~delta (Colour_oracle.space oracle)
      (Colour_oracle.seeded_oracle oracle)

let sample_exact ~rng q db =
  match Exact.answers q db with
  | [] -> None
  | answers ->
      let arr = Array.of_list answers in
      Some arr.(Random.State.int rng (Array.length arr))

let check_same_arity queries =
  match queries with
  | [] -> invalid_arg "Sampling: empty union"
  | q :: rest ->
      let l = Ecq.num_free q in
      if not (List.for_all (fun q' -> Ecq.num_free q' = l) rest) then
        invalid_arg "Sampling: union queries must share their free variables"

let union_count_exact queries db =
  check_same_arity queries;
  let seen = Tuple.Table.create 256 in
  List.iter
    (fun q -> List.iter (fun t -> Tuple.Table.replace seen t ()) (Exact.answers q db))
    queries;
  Tuple.Table.length seen

let union_count_karp_luby ~rng ?(rounds = 2000) queries db =
  check_same_arity queries;
  let pools =
    List.map
      (fun q ->
        let answers = Array.of_list (Exact.answers q db) in
        let table = Tuple.Table.create (max 16 (Array.length answers)) in
        Array.iter (fun t -> Tuple.Table.replace table t ()) answers;
        (answers, table))
      queries
    |> Array.of_list
  in
  let weights = Array.map (fun (a, _) -> float_of_int (Array.length a)) pools in
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then 0.0
  else begin
    let pick () =
      let x = Random.State.float rng total in
      let rec go i acc =
        if i = Array.length weights - 1 then i
        else
          let acc = acc +. weights.(i) in
          if x < acc then i else go (i + 1) acc
      in
      go 0 0.0
    in
    let acc = ref 0.0 in
    for _ = 1 to rounds do
      let i = pick () in
      let answers, _ = pools.(i) in
      let tau = answers.(Random.State.int rng (Array.length answers)) in
      let m =
        Array.fold_left
          (fun m (_, table) -> if Tuple.Table.mem table tau then m + 1 else m)
          0 pools
      in
      acc := !acc +. (1.0 /. float_of_int (max m 1))
    done;
    total *. !acc /. float_of_int rounds
  end

let union_count_approx ~exec ?(engine = Colour_oracle.Tree_dp) ?rounds
    ?(kl_rounds = 60) ~eps ~delta queries db =
  check_same_arity queries;
  let rng = Engine.state exec ~stream:0 in
  let queries = Array.of_list queries in
  let oracles =
    Array.map (fun q -> Colour_oracle.create ?rounds ~engine q db) queries
  in
  let member j tau =
    Colour_oracle.has_answer_in_box ~rng oracles.(j)
      (Array.map (fun v -> [| v |]) tau)
  in
  let counts =
    Array.mapi
      (fun j q ->
        (Fptras.approx_count ~exec:(Engine.split exec (j + 1)) ~engine ?rounds
           ~eps ~delta q db)
          .Fptras.estimate)
      queries
  in
  let samplers =
    Array.map
      (fun q -> make_sampler ~rng ~engine ?rounds ~eps ~delta q db)
      queries
  in
  let total = Array.fold_left ( +. ) 0.0 counts in
  if total <= 0.0 then 0.0
  else begin
    let pick () =
      let x = Random.State.float rng total in
      let rec go i acc =
        if i = Array.length counts - 1 then i
        else
          let acc = acc +. counts.(i) in
          if x < acc then i else go (i + 1) acc
      in
      go 0 0.0
    in
    let acc = ref 0.0 and used = ref 0 in
    for _ = 1 to kl_rounds do
      let i = pick () in
      match samplers.(i) () with
      | None -> ()
      | Some tau ->
          incr used;
          let m = ref 0 in
          Array.iteri (fun j _ -> if member j tau then incr m) queries;
          (* the drawing query always contains its own sample *)
          acc := !acc +. (1.0 /. float_of_int (max !m 1))
    done;
    if !used = 0 then 0.0 else total *. !acc /. float_of_int !used
  end
