(** [Planner.count_governed] on the classification and the cost
    analysis of [Report.analyze ~db q] — what [Api.run]'s [Auto] path
    hands the planner. *)
val count :
  ?budget:Ac_runtime.Budget.t ->
  ?strict:bool ->
  ?chaos:Ac_runtime.Chaos.t ->
  exec:Ac_exec.Engine.t ->
  eps:float ->
  delta:float ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  (Approxcount.Planner.governed, Ac_runtime.Error.t) result
