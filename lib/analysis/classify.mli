(** Computing the {!Classification} of a query.

    This is the single place in the system that reads Figure 1: the
    governed planner's strict mode runs {!classify}'s regime instead of
    re-deriving it, and [acq explain]/[acq lint] render the same
    record. Widths are exact for queries of ≤ {!exact_width_limit}
    variables (the subset DP), heuristic upper bounds beyond. *)

(** Variable-count ceiling for exact width computation (14, matching the
    historical planner threshold). *)
val exact_width_limit : int

(** Treewidth at or above which QL008 (width blow-up) fires. *)
val width_warn_threshold : int

(** fhw at or above which QL008 fires. *)
val fhw_warn_threshold : float

(** Quantified star size at or above which QL007 fires. *)
val star_warn_threshold : int

val classify : Ac_query.Ecq.t -> Classification.t
