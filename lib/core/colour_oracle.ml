module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Hom = Ac_hom.Hom
module Partite = Ac_dlm.Partite
module Generic_join = Ac_join.Generic_join
module Intset = Ac_kernels.Intset
module Budget = Ac_runtime.Budget
module Trace = Ac_obs.Trace

type engine = Tree_dp | Generic | Direct

(* Box-answer cache keyed by the parts themselves. The polymorphic hash
   only inspects a prefix of a nested array, and DLM boxes frequently
   share prefixes, so hash every element. *)
module Box_key = struct
  type t = int array array

  let equal (a : t) b =
    Array.length a = Array.length b
    && (let ok = ref true in
        Array.iteri (fun i p -> if !ok && p <> b.(i) then ok := false) a;
        !ok)

  let hash (parts : t) =
    let h = ref 0x9e3779b9 in
    Array.iter
      (fun p ->
        h := (!h * 31) + 0x85ebca6b;
        Array.iter (fun x -> h := (!h * 31) + x) p)
      parts;
    !h land max_int
end

module Box_cache = Hashtbl.Make (Box_key)

type t = {
  query : Ecq.t;
  universe_size : int;
  instance : Hom.instance;
  solver : Hom.prepared;
  delta : (int * int) list;
  engine : engine;
  full : int array; (* 0..universe-1, shared by every domain filter *)
  base_budget : int; (* colouring rounds per remaining disequality = base_budget · 4^{|Δ'|} *)
  probe : bool; (* colour-free witness search before any colouring round *)
  budget : Budget.t; (* cooperative cancellation: ticked per oracle call and per colouring round *)
  homs : int Atomic.t; (* atomic: probed concurrently from parallel trial domains *)
  oracles : int Atomic.t;
  span : Trace.span option; (* parent for per-call "oracle" spans; None = untraced *)
  cache : bool Box_cache.t; (* deterministic box verdicts; see [answer_in_box] *)
  cache_lock : Mutex.t;
}

let hom_calls t = Atomic.get t.homs
let oracle_calls t = Atomic.get t.oracles

let factorial n =
  let rec go acc i = if i <= 1 then acc else go (acc * i) (i - 1) in
  go 1 n

let rounds_for ~delta ~ell ~num_diseq ~expected_oracle_calls =
  let t = float_of_int (max 1 expected_oracle_calls) in
  let lfact = float_of_int (factorial (max 1 (min ell 12))) in
  let budget = Float.log (2.0 *. t *. lfact /. delta) in
  let base = max 1 (int_of_float (ceil budget)) in
  base * int_of_float (Float.pow 4.0 (float_of_int num_diseq))

let default_base q db =
  let t = float_of_int (max 1 (100 * Structure.universe_size db)) in
  let lfact = float_of_int (factorial (max 1 (min (Ecq.num_free q) 12))) in
  max 1 (int_of_float (ceil (Float.log (2.0 *. t *. lfact /. 0.05))))

let budget_cap = 65536

let create ?rounds ?(probe = true) ?(budget = Budget.none) ?(span = None)
    ~engine q db =
  let base_budget =
    match rounds with None -> default_base q db | Some r -> max 1 r
  in
  let instance = Assoc.hom_instance q db in
  let strategy =
    match engine with
    | Tree_dp -> Hom.Decomposition
    | Generic | Direct -> Hom.Backtracking
  in
  {
    query = q;
    universe_size = Structure.universe_size db;
    full = Intset.range (Structure.universe_size db);
    instance;
    solver = Hom.prepare ~strategy ~budget instance;
    delta = Ecq.delta q;
    engine;
    base_budget;
    probe;
    budget;
    homs = Atomic.make 0;
    oracles = Atomic.make 0;
    span;
    cache = Box_cache.create 1024;
    cache_lock = Mutex.create ();
  }

let space t =
  let l = Ecq.num_free t.query in
  if l = 0 then
    invalid_arg "Colour_oracle.space: Boolean query (no free variables)";
  Partite.space (Array.make l t.universe_size)

(* Base domains from the parts: free variable i is confined to V_i. *)
let base_domains t parts =
  let n = Ecq.num_vars t.query in
  let l = Ecq.num_free t.query in
  let domains = Array.make n None in
  for i = 0 to min l (Array.length parts) - 1 do
    (* Partite parts arrive sorted, so canon aliases without copying *)
    domains.(i) <- Some (Intset.canon parts.(i))
  done;
  domains

exception Unsatisfiable

(* Deterministic propagation: a disequality whose endpoint is pinned to a
   single value removes that value from the other endpoint's domain and
   disappears; a disequality whose endpoint domains are provably disjoint
   disappears. This is a deterministic refinement of the colour-coding —
   only the surviving disequalities need random colours, shrinking the
   4^{|Δ|} budget. Raises [Unsatisfiable] when a domain empties. *)
(* Owns [domains]: callers pass a fresh array ([base_domains] output)
   that is refined in place. *)
let propagate t domains delta =
  let delta = ref delta and progress = ref true in
  let singleton v =
    match domains.(v) with Some [| x |] -> Some x | _ -> None
  in
  let remove_value v x =
    let current = match domains.(v) with Some a -> a | None -> t.full in
    let filtered = Intset.remove current x in
    if filtered = [||] then raise Unsatisfiable;
    domains.(v) <- Some filtered
  in
  let disjoint i j =
    match (domains.(i), domains.(j)) with
    | Some a, Some b -> Intset.disjoint a b
    | _ -> false
  in
  while !progress do
    progress := false;
    delta :=
      List.filter
        (fun (i, j) ->
          match (singleton i, singleton j) with
          | Some x, Some y ->
              if x = y then raise Unsatisfiable;
              progress := true;
              false
          | Some x, None ->
              remove_value j x;
              progress := true;
              false
          | None, Some y ->
              remove_value i y;
              progress := true;
              false
          | None, None ->
              if disjoint i j then begin
                progress := true;
                false
              end
              else true)
        !delta
  done;
  (domains, !delta)

let decide t domains =
  Atomic.incr t.homs;
  Hom.decide t.solver ~domains ()

(* Direct engine: enumerate join solutions, accept the first satisfying
   all remaining disequalities. No colour-coding, no width guarantee. *)
let decide_direct t domains delta =
  Atomic.incr t.homs;
  if delta = [] then Hom.decide t.solver ~domains ()
  else begin
    let found = ref false in
    Hom.iter_solutions t.solver ~domains ~reuse:true
      ~diseqs:(Array.of_list delta)
      ~f:(fun _ ->
        found := true;
        false);
    !found
  end

(* Probe outcomes depend only on [rng], the stream of the phase or trial
   issuing the probe (everything else in [t] is read-only during one).

   Every path below except the colouring rounds is deterministic in
   [parts] alone — propagation, the probe shortcut and the engine
   decisions never touch [rng] — so those verdicts are cached per box.
   The DLM split revisits boxes heavily, and a cache hit provably
   returns the same verdict recomputation would (and consumes no
   randomness, exactly like the computation it replaces), so estimates
   are bit-identical with and without the cache, at any [--jobs]. *)
let answer_in_box_uncached ~rng t parts =
  if Array.exists (fun p -> Array.length p = 0) parts then (false, true)
  else begin
    let domains0 = base_domains t parts in
    match propagate t domains0 t.delta with
    | exception Unsatisfiable -> (false, true)
    | domains, remaining -> (
        match t.engine with
        | Direct -> (decide_direct t domains remaining, true)
        | Tree_dp | Generic ->
            if remaining = [] then (decide t domains, true)
            else begin
              (* Colour-free shortcut: colourings only restrict domains,
                 so one generic-join search with the remaining
                 disequalities pushed into it (violating subtrees pruned
                 as the second endpoint binds) settles the box exactly —
                 first surviving witness means an edge, exhaustion means
                 provably none. The colouring rounds below only run when
                 the probe is disabled ([probe = false], the ablation
                 knob) — they use the chosen engine, preserving the width
                 guarantees where they matter. *)
              if t.probe then begin
                Atomic.incr t.homs;
                let found = ref false in
                Hom.iter_solutions t.solver ~domains ~reuse:true
                  ~diseqs:(Array.of_list remaining)
                  ~f:(fun _ ->
                    found := true;
                    false);
                (!found, true)
              end
              else
              let budget =
                let scaled =
                  float_of_int t.base_budget
                  *. Float.pow 4.0 (float_of_int (List.length remaining))
                in
                (* the paper's bound is exponential in ‖φ‖²; the hard cap
                   keeps single oracle calls bounded in practice and is an
                   explicit knob documented in DESIGN.md *)
                if scaled > float_of_int budget_cap then budget_cap
                else int_of_float scaled
              in
              let found = ref false in
              let round = ref 0 in
              while (not !found) && !round < budget do
                Budget.tick t.budget;
                incr round;
                let coloured = Array.copy domains in
                let dead = ref false in
                List.iter
                  (fun (i, j) ->
                    let f =
                      Array.init t.universe_size (fun _ -> Random.State.bool rng)
                    in
                    let keep v pred =
                      let current =
                        match coloured.(v) with Some a -> a | None -> t.full
                      in
                      let filtered = Intset.filter pred current in
                      if filtered = [||] then dead := true;
                      coloured.(v) <- Some filtered
                    in
                    keep i (fun w -> f.(w));
                    keep j (fun w -> not f.(w)))
                  remaining;
                if (not !dead) && decide t coloured then found := true
              done;
              (* one-sided Monte Carlo over [rng]: not a deterministic
                 fact about the box, so never cached *)
              (!found, false)
            end)
  end

let answer_in_box ~rng t parts =
  Budget.tick t.budget;
  Atomic.incr t.oracles;
  let cached =
    Mutex.lock t.cache_lock;
    let c = Box_cache.find_opt t.cache parts in
    Mutex.unlock t.cache_lock;
    c
  in
  match cached with
  | Some answer -> answer
  | None ->
      let answer, cacheable = answer_in_box_uncached ~rng t parts in
      if cacheable then begin
        (* keys are copied: callers may reuse their part buffers. A
           racing duplicate add is benign (same deterministic value). *)
        let key = Array.map Array.copy parts in
        Mutex.lock t.cache_lock;
        Box_cache.add t.cache key answer;
        Mutex.unlock t.cache_lock
      end;
      answer

(* Oracle-call spans sit at the bottom of the hierarchy (plan → rung →
   trial → oracle call). Untraced oracles ([span = None], the default)
   pay one branch per call; traced calls are recorded up to the
   collector's [max_spans] cap (a governed run can issue thousands). *)
let has_answer_in_box ~rng t parts =
  match t.span with
  | None -> answer_in_box ~rng t parts
  | Some _ ->
      let sp = Trace.child t.span "oracle" in
      Fun.protect
        ~finally:(fun () -> Trace.stop sp)
        (fun () -> answer_in_box ~rng t parts)

let seeded_oracle t ~rng parts = not (has_answer_in_box ~rng t parts)
