module Column = Ac_relational.Column

(* Column reads go through the [Bigarray] primitive, not [Column]'s
   accessors: the dev profile compiles every library [-opaque], so a
   call into [Column] is never inlined, while the primitive on the
   statically known element kind always compiles to a load. Reads are
   unchecked: every index below is bracketed by a [lo, hi) run. *)
let uget (c : Column.t) i = Bigarray.Array1.unsafe_get c i

(* Galloping (exponential) search: the join kernels advance cursors that
   usually move a short distance, so probe 1, 2, 4, … steps from [lo]
   before handing the bracketed range to plain binary search. *)

let lower col ~lo ~hi x =
  if lo >= hi || uget col lo >= x then lo
  else begin
    let prev = ref lo and cur = ref (lo + 1) and step = ref 1 in
    while !cur < hi && uget col !cur < x do
      prev := !cur;
      step := !step * 2;
      cur := !cur + !step
    done;
    Column.lower_bound col ~lo:(!prev + 1) ~hi:(min (!cur + 1) hi) x
  end

let upper col ~lo ~hi x =
  if lo >= hi || uget col lo > x then lo
  else begin
    let prev = ref lo and cur = ref (lo + 1) and step = ref 1 in
    while !cur < hi && uget col !cur <= x do
      prev := !cur;
      step := !step * 2;
      cur := !cur + !step
    done;
    Column.upper_bound col ~lo:(!prev + 1) ~hi:(min (!cur + 1) hi) x
  end

(* Mutable bounds so callers can keep one cursor array per join level
   and rewrite [lo]/[hi] per search node instead of allocating. *)
type run = { mutable col : Column.t; mutable lo : int; mutable hi : int }

(* A level with one participant: its run's distinct values are the
   common values, so walk them directly — no head scan, no seek. *)
let intersect1 scratch a f =
  let p = ref a.lo and go = ref true in
  while !go && !p < a.hi do
    let v = uget a.col !p in
    let e = upper a.col ~lo:!p ~hi:a.hi v in
    scratch.(0) <- !p;
    scratch.(1) <- e;
    go := f v scratch;
    p := e
  done

(* The two-run case dominates real joins (one run per already-visited
   occurrence of the variable, usually two): a bespoke two-pointer loop
   saves the generic version's per-value head scan. *)
let intersect2 scratch a b f =
  let pa = ref a.lo and pb = ref b.lo and go = ref true in
  while !go && !pa < a.hi && !pb < b.hi do
    let va = uget a.col !pa and vb = uget b.col !pb in
    if va < vb then pa := lower a.col ~lo:(!pa + 1) ~hi:a.hi vb
    else if vb < va then pb := lower b.col ~lo:(!pb + 1) ~hi:b.hi va
    else begin
      let ea = upper a.col ~lo:!pa ~hi:a.hi va in
      let eb = upper b.col ~lo:!pb ~hi:b.hi va in
      scratch.(0) <- !pa;
      scratch.(1) <- ea;
      scratch.(2) <- !pb;
      scratch.(3) <- eb;
      go := f va scratch;
      pa := ea;
      pb := eb
    end
  done

let intersect_into ~pos ~bounds runs f =
  let k = Array.length runs in
  if k = 1 then intersect1 bounds runs.(0) f
  else if k = 2 then intersect2 bounds runs.(0) runs.(1) f
  else if k > 0 && Array.for_all (fun r -> r.lo < r.hi) runs then begin
    (* cursor per run; [runs] itself is never mutated here, so the
       caller may reuse the same array across nested nodes *)
    for i = 0 to k - 1 do
      pos.(i) <- runs.(i).lo
    done;
    (* per-value bounds handed to [f] as a flat [lo0; hi0; lo1; …]
       scratch, overwritten on the next value — copy to keep *)
    let scratch = bounds in
    let exhausted = ref false in
    while not !exhausted do
      (* leapfrog: every cursor seeks the max of the current heads;
         they all land on it exactly when it is a common value *)
      let v = ref min_int in
      for i = 0 to k - 1 do
        let x = uget runs.(i).col pos.(i) in
        if x > !v then v := x
      done;
      let all_match = ref true in
      for i = 0 to k - 1 do
        let r = runs.(i) in
        let p = lower r.col ~lo:pos.(i) ~hi:r.hi !v in
        pos.(i) <- p;
        if p >= r.hi then begin
          exhausted := true;
          all_match := false
        end
        else if uget r.col p <> !v then all_match := false
      done;
      if (not !exhausted) && !all_match then begin
        for i = 0 to k - 1 do
          let r = runs.(i) in
          let e = upper r.col ~lo:pos.(i) ~hi:r.hi !v in
          scratch.(2 * i) <- pos.(i);
          scratch.((2 * i) + 1) <- e;
          pos.(i) <- e
        done;
        if not (f !v scratch) then exhausted := true;
        for i = 0 to k - 1 do
          if pos.(i) >= runs.(i).hi then exhausted := true
        done
      end
    done
  end
