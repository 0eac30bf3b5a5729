module Budget = Ac_runtime.Budget
module Trace = Ac_obs.Trace
module Metrics = Ac_obs.Metrics

type t = { seed : int; jobs : int; span : Trace.span option }

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let resolve_jobs = function Some j -> max 1 j | None -> default_jobs ()

let make ?jobs ~seed () = { seed; jobs = resolve_jobs jobs; span = None }

let sequential ~seed = { seed; jobs = 1; span = None }
let jobs t = t.jobs
let seed t = t.seed
let split t i = { t with seed = Seeds.derive ~seed:t.seed i }
let state t ~stream = Seeds.state ~seed:t.seed ~stream
let with_span t span = { t with span }
let span t = t.span

let trials_total =
  lazy
    (Metrics.counter Metrics.global "acq_trials_total"
       ~help:"Independent estimation trials executed by the engine")

let trial_duration =
  lazy
    (Metrics.histogram Metrics.global "acq_trial_duration_ms"
       ~help:"Wall-clock duration of traced engine trials (milliseconds)")

(* One trial, with observability. Untraced ([t.span = None], the default)
   this is one branch and one atomic increment on top of [k]; traced it
   opens a per-trial span, attributes the trial's tick delta on [slice]
   to it and feeds the wall duration to the latency histogram. Nothing
   here touches [k]'s randomness — traced and untraced runs are
   bit-identical. *)
let observed_trial t ~slice i k =
  Metrics.incr (Lazy.force trials_total);
  match t.span with
  | None -> k ()
  | Some _ ->
      let sp = Trace.child ~tags:[ ("trial", string_of_int i) ] t.span "trial" in
      let ticks0 = Budget.ticks slice in
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          Trace.stop ~ticks:(Budget.ticks slice - ticks0) sp;
          Metrics.observe
            (Lazy.force trial_duration)
            ((Unix.gettimeofday () -. t0) *. 1000.0))
        k

let run_sequential ~budget t ~trials f =
  Array.init trials (fun i ->
      Budget.tick budget;
      observed_trial t ~slice:budget i (fun () ->
          f ~rng:(Seeds.state ~seed:t.seed ~stream:i) ~budget i))

(* Rank failures so the re-raised error is deterministic: a sibling
   cancelled by the first trip must never shadow the trip itself. *)
let is_cancellation = function
  | Budget.Budget_exceeded { limit = Budget.Cancelled; _ } -> true
  | _ -> false

let run ?(budget = Budget.none) t ~trials f =
  if trials <= 0 then [||]
  else begin
    let jobs = min t.jobs trials in
    if jobs <= 1 || Pool.in_worker () then run_sequential ~budget t ~trials f
    else begin
      let slices = Budget.split ~into:jobs budget in
      let results = Array.make trials None in
      let failures = Array.make jobs None in
      let cancel_siblings me =
        Array.iteri
          (fun c slice ->
            if c <> me && slice != budget then
              Budget.cancel ~note:"sibling trial chunk failed" slice)
          slices
      in
      (* contiguous chunks: chunk c owns [c*q + min c r, ...) — same
         index→trial mapping for every jobs count *)
      let q = trials / jobs and r = trials mod jobs in
      let chunk c =
        let lo = (c * q) + min c r in
        let hi = lo + q + (if c < r then 1 else 0) in
        (lo, hi)
      in
      let task c () =
        let lo, hi = chunk c in
        let slice = slices.(c) in
        try
          for i = lo to hi - 1 do
            Budget.tick slice;
            results.(i) <-
              Some
                (observed_trial t ~slice i (fun () ->
                     f ~rng:(Seeds.state ~seed:t.seed ~stream:i) ~budget:slice i))
          done
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          failures.(c) <- Some (e, bt);
          cancel_siblings c
      in
      (* force the metric handles here: two workers forcing one
         [Lazy.t] at once raise [CamlinternalLazy.Undefined] *)
      ignore (Lazy.force trials_total);
      if t.span <> None then ignore (Lazy.force trial_duration);
      Pool.run_tasks (Pool.shared ()) (Array.init jobs task);
      (* every worker has joined: account the children's work, then
         surface the first real failure (cancellations only echo it) *)
      Array.iter
        (fun slice -> if slice != budget then Budget.absorb budget slice)
        slices;
      let first_failure =
        let pick best c =
          match (best, failures.(c)) with
          | None, f -> f
          | Some (e, _), Some ((e', _) as f) when is_cancellation e && not (is_cancellation e') ->
              Some f
          | best, _ -> best
        in
        List.fold_left pick None (List.init jobs Fun.id)
      in
      match first_failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          Array.map
            (function
              | Some v -> v
              | None -> invalid_arg "Engine.run: missing trial result")
            results
    end
  end
