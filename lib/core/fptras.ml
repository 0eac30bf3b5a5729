module Ecq = Ac_query.Ecq
module Edge_count = Ac_dlm.Edge_count
module Budget = Ac_runtime.Budget
module Engine = Ac_exec.Engine
module Trace = Ac_obs.Trace

type result = {
  estimate : float;
  exact : bool;
  level : int;
  repetitions : int;
  oracle_calls : int;
  hom_calls : int;
}

let boolean_result ~rng oracle =
  let found = Colour_oracle.has_answer_in_box ~rng oracle [||] in
  {
    estimate = (if found then 1.0 else 0.0);
    exact = true;
    level = 0;
    repetitions = 1;
    oracle_calls = Colour_oracle.oracle_calls oracle;
    hom_calls = Colour_oracle.hom_calls oracle;
  }

let of_edge_count oracle (r : Edge_count.result) =
  {
    estimate = r.Edge_count.value;
    exact = r.Edge_count.exact;
    level = r.Edge_count.level;
    repetitions = r.Edge_count.repetitions;
    oracle_calls = Colour_oracle.oracle_calls oracle;
    hom_calls = Colour_oracle.hom_calls oracle;
  }

(* Every probe receives the stream of the trial (or sequential phase)
   that issued it, so the estimate is bit-identical for any jobs
   count. *)
let approx_count ?budget ~exec ?(engine = Colour_oracle.Tree_dp) ?rounds ?probe
    ~eps ~delta q db =
  let parent = Engine.span exec in
  let oracle =
    Colour_oracle.create ?rounds ?probe ?budget ~span:parent ~engine q db
  in
  if Ecq.num_free q = 0 then
    boolean_result ~rng:(Engine.state exec ~stream:0) oracle
  else
    let space = Colour_oracle.space oracle in
    let seeded = Colour_oracle.seeded_oracle oracle in
    let estimate exec =
      Edge_count.estimate ?budget ~source:(Edge_count.Engine exec)
        ~epsilon:eps ~delta space seeded
    in
    of_edge_count oracle
      (match parent with
      | None -> estimate exec
      | Some _ ->
          (* Phase span for the DLM edge-count loop; its tick delta
             answers "which phase burned the budget". Trials nest
             under it via the re-spanned engine context. *)
          let sp = Trace.child parent "fptras:estimate" in
          let ticks () =
            match budget with Some b -> Budget.ticks b | None -> 0
          in
          let t0 = ticks () in
          Fun.protect
            ~finally:(fun () -> Trace.stop ~ticks:(ticks () - t0) sp)
            (fun () -> estimate (Engine.with_span exec sp)))

let exact_count_via_oracle ?budget ~rng ?(engine = Colour_oracle.Tree_dp)
    ?rounds q db =
  let oracle = Colour_oracle.create ?rounds ?budget ~engine q db in
  if Ecq.num_free q = 0 then boolean_result ~rng oracle
  else begin
    let space = Colour_oracle.space oracle in
    let count =
      Edge_count.exact_count space (Colour_oracle.seeded_oracle oracle ~rng) ()
    in
    {
      estimate = float_of_int count;
      exact = true;
      level = 0;
      repetitions = 1;
      oracle_calls = Colour_oracle.oracle_calls oracle;
      hom_calls = Colour_oracle.hom_calls oracle;
    }
  end
