module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Tuple = Ac_relational.Tuple
module Hom = Ac_hom.Hom
module Budget = Ac_runtime.Budget

let brute_force ?(budget = Budget.none) q db =
  let n = Ecq.num_vars q in
  let u = Structure.universe_size db in
  let l = Ecq.num_free q in
  let assignment = Array.make n 0 in
  let seen = Tuple.Table.create 64 in
  let rec go i =
    if i = n then begin
      Budget.tick budget;
      if Ecq.satisfied_by q db assignment then
        Tuple.Table.replace seen (Array.sub assignment 0 l) ()
    end
    else
      for v = 0 to u - 1 do
        assignment.(i) <- v;
        go (i + 1)
      done
  in
  if u > 0 then go 0;
  Tuple.Table.length seen

let prepared_solver ?budget q db =
  Hom.prepare ~strategy:Hom.Backtracking ?budget (Assoc.hom_instance q db)

let by_hom_dp ?budget q db =
  if Ecq.num_existential q > 0 || Ecq.delta q <> [] then None
  else Some (Hom.count_dp ?budget (Assoc.hom_instance q db))

(* The one enumeration behind the join entry points: the generic join
   over A(φ) → B(φ, D), cut by [~project:l] to one solution per distinct
   order prefix ending at the deepest free variable. When the free
   variables are that prefix each report is a new answer and is only
   counted; otherwise, or when [keep] wants the answers, a table
   deduplicates the projections (it sees first occurrences in the
   uncut order, so its iteration order is unchanged). Returns the count,
   the table and whether the run completed; a tripped budget propagates
   unless [partial]. *)
let enumerate ?budget ~keep ~partial q db =
  let l = Ecq.num_free q in
  let solver = prepared_solver ?budget q db in
  let diseqs = Array.of_list (Ecq.delta q) in
  let count_only =
    (not keep) && Array.for_all (fun v -> v < l) (Array.sub (Hom.order solver) 0 l)
  in
  let seen = Tuple.Table.create (if count_only then 1 else 256) in
  let n = ref 0 in
  let completed =
    match
      if count_only then
        ignore (Hom.count_solutions solver ~diseqs ~project:l ~tally:n)
      else
        Hom.iter_solutions solver ~reuse:true ~diseqs ~project:l
          ~f:(fun sol ->
            Tuple.Table.replace seen (Array.sub sol 0 l) ();
            true)
    with
    | () -> true
    | exception Budget.Budget_exceeded _ when partial -> false
  in
  ((if count_only then !n else Tuple.Table.length seen), seen, completed)

let by_join_projection ?budget q db =
  let n, _, _ = enumerate ?budget ~keep:false ~partial:false q db in
  n

let answers ?budget q db =
  let _, seen, _ = enumerate ?budget ~keep:true ~partial:false q db in
  Tuple.Table.fold (fun t () acc -> t :: acc) seen []

let partial_count ?budget q db =
  let n, _, completed = enumerate ?budget ~keep:false ~partial:true q db in
  (n, completed)

(* Shared decision core: does [tau] (over the free variables) extend to a
   solution? [diseqs] and [domains] are built once per query by
   {!decider}; only the free variables' singleton domains change. *)
let decider q solver =
  let l = Ecq.num_free q in
  let diseqs = Array.of_list (Ecq.delta q) in
  let domains = Array.make (Ecq.num_vars q) None in
  fun tau ->
    for i = 0 to l - 1 do
      domains.(i) <- Some [| tau.(i) |]
    done;
    let found = ref false in
    Hom.iter_solutions solver ~domains ~reuse:true ~diseqs ~f:(fun _ ->
        found := true;
        false);
    !found

let is_answer ?budget q db tau =
  if Array.length tau <> Ecq.num_free q then
    invalid_arg "Exact.is_answer: wrong arity";
  decider q (prepared_solver ?budget q db) tau

let by_free_enumeration ?budget q db =
  let l = Ecq.num_free q in
  let u = Structure.universe_size db in
  let is_answer = decider q (prepared_solver ?budget q db) in
  let tau = Array.make l 0 in
  let count = ref 0 in
  let decide () = if is_answer tau then incr count in
  let rec go i =
    if i = l then decide ()
    else
      for v = 0 to u - 1 do
        tau.(i) <- v;
        go (i + 1)
      done
  in
  if l = 0 then decide () else if u > 0 then go 0;
  !count
