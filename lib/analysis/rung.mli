(** The one rung vocabulary: the algorithms the governed planner can
    run. Figure 1's regime ({!Classification.regime}), the cost model's
    alternatives ({!Cost.rung}) and the planner's ladder steps are all
    this variant. *)

type t =
  | Fpras         (** Theorem 16 FPRAS (tree-automaton pipeline), CQs only *)
  | Exact         (** exact join + projection; Figure 1's rung for a
                      statically empty query *)
  | Tree_dp       (** Theorem 5 FPTRAS, tree-decomposition DP engine *)
  | Generic_join  (** Theorem 13 FPTRAS, generic-join engine *)
  | Partial       (** best-effort partial enumeration, lower bound *)

(** The wire name: [fpras], [exact], [tree-dp], [generic-join],
    [partial]. *)
val name : t -> string

(** Stable seed ordinal (Fpras 0, Exact 1, Tree_dp 2, Generic_join 3,
    Partial 4): a governed rung runs on [Engine.split exec (ordinal r)],
    so its estimate depends on [(rung, seed, ε, δ)] only and a degraded
    retry never replays a failed rung's random choices. *)
val ordinal : t -> int

(** [Cost.rank]'s tie-break among equally priced rungs (lower first):
    Exact, Fpras, Tree_dp, Generic_join, Partial. *)
val priority : t -> int
