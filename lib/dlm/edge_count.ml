type edge = int array

exception Limit_reached

let enumerate space oracle ?within ?(limit = max_int) () =
  let parts = match within with Some p -> p | None -> Partite.all space in
  let edges = ref [] in
  let found = ref 0 in
  let complete = ref true in
  (* Split the largest part in two and recurse; a sub-box with all parts
     singleton and a non-edge-free oracle answer is exactly one edge. *)
  let rec go parts =
    if Partite.is_empty_part parts then ()
    else if oracle parts then ()
    else begin
      let widest = ref 0 in
      Array.iteri
        (fun i p ->
          if Array.length p > Array.length parts.(!widest) then widest := i)
        parts;
      if Array.length parts.(!widest) = 1 then begin
        if !found >= limit then begin
          complete := false;
          raise Limit_reached
        end;
        edges := Array.map (fun p -> p.(0)) parts :: !edges;
        incr found
      end
      else begin
        let p = parts.(!widest) in
        let mid = Array.length p / 2 in
        let left = Array.sub p 0 mid in
        let right = Array.sub p mid (Array.length p - mid) in
        let with_part part =
          let copy = Array.copy parts in
          copy.(!widest) <- part;
          copy
        in
        go (with_part left);
        go (with_part right)
      end
    end
  in
  (try go parts with Limit_reached -> ());
  (List.rev !edges, !complete)

let exact_count space oracle ?within () =
  let edges, complete = enumerate space oracle ?within () in
  assert complete;
  List.length edges

type result = {
  value : float;
  exact : bool;
  level : int;
  repetitions : int;
}

(* Median repetitions giving confidence 1 - delta (Chernoff on the
   majority of trials landing inside the per-trial error band). *)
let repetitions_for ~delta =
  let m = int_of_float (ceil (2.5 *. Float.log (1.0 /. delta))) in
  (2 * max 2 m) + 1

(* Keep probability at subsampling level [j]: every vertex survives with
   probability [2^{-j/l}], so an l-vertex edge survives with [2^{-j}]. *)
let keep_probability ~classes j =
  Float.exp (-.(float_of_int j) *. Float.log 2.0 /. float_of_int classes)

(* |E| ≤ ∏|U_i|; beyond log2 of that, survivors are ~0. *)
let top_level space =
  int_of_float
    (Float.log (Float.max 2.0 (Partite.tuple_count (Partite.all space)))
    /. Float.log 2.0)
  + 2

let quartiles values =
  let sorted = List.sort Float.compare values in
  let n = List.length sorted in
  (List.nth sorted (n / 4), List.nth sorted (n / 2), List.nth sorted (3 * n / 4))

(* Random aligned subsample where each vertex is kept independently with
   probability [p]. *)
let subsample rng (space : Partite.space) p : Partite.aligned =
  Array.map
    (fun size ->
      let kept = ref [] in
      for v = size - 1 downto 0 do
        if Random.State.float rng 1.0 < p then kept := v :: !kept
      done;
      Array.of_list !kept)
    space.Partite.class_sizes

(* Oracle whose probes may themselves be randomized (the Lemma 22
   colourful oracle re-colours per call): the estimator hands it the
   stream of the phase or trial that issues the probe, so results never
   depend on global mutable RNG state or on the jobs count. *)
type seeded_oracle = rng:Random.State.t -> Partite.aligned -> bool

let restrict (space : Partite.space) (box : Partite.aligned)
    (oracle : seeded_oracle) =
  if Array.length box <> Partite.num_classes space then
    invalid_arg "Edge_count.restrict: wrong class count";
  let space' = Partite.space (Array.map Array.length box) in
  let oracle' ~rng (parts' : Partite.aligned) =
    oracle ~rng
      (Array.mapi (fun i part -> Array.map (fun k -> box.(i).(k)) part) parts')
  in
  (space', oracle')

type source = Stream of Random.State.t | Engine of Ac_exec.Engine.t

let rec estimate ?budget ?within ~source ~epsilon ~delta space
    (oracle : seeded_oracle) =
  match within with
  | Some box ->
      let space', oracle' = restrict space box oracle in
      estimate ?budget ~source ~epsilon ~delta space' oracle'
  | None ->
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Edge_count.estimate: epsilon";
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Edge_count.estimate: delta";
  let phase_rng stream =
    match source with
    | Stream rng -> rng
    | Engine exec -> Ac_exec.Engine.state exec ~stream
  in
  let l = Partite.num_classes space in
  (* target survivor count: per-trial relative error ≈ 1/sqrt(target) *)
  let target = max 24 (int_of_float (ceil (8.0 /. (epsilon *. epsilon)))) in
  let cap = 8 * target in
  (* exact when the hypergraph is already small *)
  let all_edges, complete =
    enumerate space (oracle ~rng:(phase_rng 0)) ~limit:(2 * target) ()
  in
  if complete then
    { value = float_of_int (List.length all_edges); exact = true; level = 0; repetitions = 1 }
  else begin
    let capped_count ~rng ~limit j =
      let parts = subsample rng space (keep_probability ~classes:l j) in
      let edges, complete = enumerate space (oracle ~rng) ~within:parts ~limit () in
      (List.length edges, complete)
    in
    (* Locate the smallest level whose survivors fit the target, probing
       DOWNWARD from the sparsest level: probes above the boundary see few
       survivors and are cheap, and the first over-full probe stops the
       descent (expected total work ~ 2·target enumerated edges). *)
    let locate_rng = phase_rng 1 in
    let max_level = top_level space in
    let rec locate j =
      if j <= 1 then 1
      else
        let c, complete = capped_count ~rng:locate_rng ~limit:target j in
        if complete && c <= target then locate (j - 1) else j + 1
    in
    let level = min max_level (locate max_level) in
    (* fresh unbiased trials at the located level; median for confidence *)
    let repetitions = repetitions_for ~delta in
    let run_trials ~round ~cap level =
      let trial rng =
        let c, complete = capped_count ~rng ~limit:cap level in
        let c = if complete then c else cap in
        float_of_int c *. Float.pow 2.0 (float_of_int level)
      in
      match source with
      | Stream rng -> List.init repetitions (fun _ -> trial rng)
      | Engine exec ->
          Array.to_list
            (Ac_exec.Engine.run ?budget
               (Ac_exec.Engine.split exec (2 + round))
               ~trials:repetitions
               (fun ~rng ~budget:_ _i -> trial rng))
    in
    (* The located level can be too sparse: the single-probe descent may
       overshoot, and overlapping hyperedges (answers sharing free-variable
       values) correlate survival, inflating the per-trial variance beyond
       the 1/sqrt(survivors) of independent edges. Refine adaptively: if
       the trials' interquartile spread exceeds the accuracy target (or
       they see far fewer survivors than planned), descend two levels —
       quadrupling expected survivors and the enumeration cap — and redo,
       up to three times. *)
    let rec refine ~round level cap attempts =
      let trials = run_trials ~round ~cap level in
      let q1, med, q3 = quartiles trials in
      let dispersion = (q3 -. q1) /. Float.max med 1.0 in
      let raw = med /. Float.pow 2.0 (float_of_int level) in
      if
        attempts > 0 && level > 1
        && (dispersion > epsilon || raw < float_of_int target /. 3.0)
      then refine ~round:(round + 1) (max 1 (level - 2)) (cap * 4) (attempts - 1)
      else (level, med)
    in
    let level, value = refine ~round:0 level cap 3 in
    { value; exact = false; level; repetitions }
  end

let sample_edge ~rng ~epsilon ~delta space oracle =
  (* Descend boxes by halving the widest class, weighting each half by its
     (estimated) edge count; a box whose edges the estimator can list
     exactly finishes with a uniform draw among them. *)
  let rec descend box =
    let space', oracle' = restrict space box oracle in
    let edges, complete = enumerate space' (oracle' ~rng) ~limit:64 () in
    if complete then begin
      match edges with
      | [] -> None
      | _ ->
          let arr = Array.of_list edges in
          let local = arr.(Random.State.int rng (Array.length arr)) in
          (* translate local ids back through the box *)
          Some (Array.mapi (fun i k -> box.(i).(k)) local)
    end
    else begin
      let widest = ref 0 in
      Array.iteri
        (fun i p -> if Array.length p > Array.length box.(!widest) then widest := i)
        box;
      let p = box.(!widest) in
      let mid = Array.length p / 2 in
      let with_part part =
        let copy = Array.copy box in
        copy.(!widest) <- part;
        copy
      in
      let left = with_part (Array.sub p 0 mid) in
      let right = with_part (Array.sub p mid (Array.length p - mid)) in
      let count within =
        (estimate ~source:(Stream rng) ~within ~epsilon ~delta space oracle).value
      in
      let n_left = count left in
      let n_right = count right in
      let total = n_left +. n_right in
      if total <= 0.0 then None
      else if Random.State.float rng total < n_left then descend left
      else descend right
    end
  in
  descend (Partite.all space)
