type step = { rung : Cost.rung; eps : float; relaxed : bool }

let default_max_relax = 2
let eps_cap = 0.5

let is_sampling = function
  | Cost.Fpras | Cost.Tree_dp | Cost.Generic_join -> true
  | Cost.Exact | Cost.Partial -> false

let build ?(max_relax = default_max_relax) ~eps ~delta cost =
  let ranked = Cost.rank ~eps ~delta cost in
  let base =
    List.filter_map
      (fun (a : Cost.alternative) ->
        if a.Cost.applicable && a.Cost.guaranteed && a.Cost.rung <> Cost.Partial
        then Some { rung = a.Cost.rung; eps; relaxed = false }
        else None)
      ranked
  in
  (* Relaxed steps reuse the cheapest guaranteed sampling rung at
     doubled ε: when every rung tripped the budget at the requested
     accuracy, a coarser estimate with an intact δ guarantee beats the
     guarantee-free partial sweep. The rung keeps its ordinal, so a
     relaxed attempt still draws its own seed split deterministically. *)
  let relaxed =
    match
      List.find_opt
        (fun (a : Cost.alternative) ->
          a.Cost.applicable && a.Cost.guaranteed && is_sampling a.Cost.rung)
        ranked
    with
    | None -> []
    | Some a ->
        List.filter_map
          (fun i ->
            let e = eps *. Float.pow 2.0 (float_of_int i) in
            if e <= eps_cap then Some { rung = a.Cost.rung; eps = e; relaxed = true }
            else None)
          (List.init max_relax (fun i -> i + 1))
  in
  base @ relaxed @ [ { rung = Cost.Partial; eps; relaxed = false } ]

let to_json steps =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("rung", Json.String (Cost.rung_name s.rung));
             ("eps", Json.Float s.eps);
             ("relaxed", Json.Bool s.relaxed);
           ])
       steps)
