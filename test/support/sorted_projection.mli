(** The tuple-sorting build of a sealed relation's projection, the
    reference {!Ac_relational.Relation.projection} is checked against:
    every row passing the equality pattern is copied out as a tuple,
    the tuples are sorted with [Tuple.compare] and deduplicated, and
    the result is sealed. *)
val build :
  Ac_relational.Relation.t ->
  positions:int array ->
  equalities:(int * int) array ->
  Ac_relational.Relation.cols
