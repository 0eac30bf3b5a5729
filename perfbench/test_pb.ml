(* The benchmark's own checks: seeded streams are byte-identical, the
   tail-percentile rule keeps ten samples beyond, the host-speed window
   picks the nearest probes, metric names are well-formed. *)

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let () =
  List.iter
    (fun w ->
      let name = Pb.workload_name w in
      let n = 300 in
      let a = Pb.render_stream w (Pb.stream w ~seed:7 ~n) in
      let b = Pb.render_stream w (Pb.stream w ~seed:7 ~n) in
      let c = Pb.render_stream w (Pb.stream w ~seed:8 ~n) in
      expect (name ^ ": same seed, same bytes") (String.equal a b);
      expect (name ^ ": other seed, other bytes") (not (String.equal a c));
      expect (name ^ ": one line per operation")
        (List.length (String.split_on_char '\n' a) = n + 1))
    Pb.workloads;
  (* tail rule: at least ten and at least sqrt n samples beyond the
     chosen rank, and no higher grid percentile qualifies *)
  let beyond p n = n - int_of_float (Float.ceil (p *. float_of_int n)) in
  expect "tail: 19 samples have no tail" (Pb.tail_percentile 19 = None);
  expect "tail: 20 samples -> p50" (Pb.tail_percentile 20 = Some 0.5);
  expect "tail: 100 samples -> p90" (Pb.tail_percentile 100 = Some 0.90);
  expect "tail: 360 samples -> p90 (p95 has 18 beyond, sqrt 360 > 18)"
    (Pb.tail_percentile 360 = Some 0.90);
  expect "tail: 720 samples -> p95" (Pb.tail_percentile 720 = Some 0.95);
  expect "tail: 3000 samples -> p95 (p99 has 30 beyond, sqrt 3000 > 54)"
    (Pb.tail_percentile 3000 = Some 0.95);
  expect "tail: 480000 samples -> p99 (the grid's top)" (Pb.tail_percentile 480_000 = Some 0.99);
  for n = 20 to 20_000 do
    match Pb.tail_percentile n with
    | None -> expect (Printf.sprintf "tail: %d has a tail" n) false
    | Some p ->
        if beyond p n < 10 || float_of_int (beyond p n) < Float.sqrt (float_of_int n) then
          expect (Printf.sprintf "tail: %d samples, %g has %d beyond" n p (beyond p n)) false;
        List.iter
          (fun q ->
            if q > p && beyond q n >= Pb.tail_floor n then
              expect (Printf.sprintf "tail: %d samples, %g qualifies above %g" n q p) false)
          Pb.tail_grid
  done;
  (* host-speed window: the probe_window probes nearest the time,
     centred on the last probe at or before it, kept inside the array *)
  let at = Array.init 20 float_of_int in
  let dur = Array.init 20 (fun i -> float_of_int (100 + i)) in
  let wm t = Pb.window_median ~at ~dur t in
  expect "window: centred" (Pb.probe_window = 5 && wm 10.5 = 110.0);
  expect "window: before the first probe" (wm (-3.0) = 102.0);
  expect "window: after the last probe" (wm 99.0 = 117.0);
  expect "window: odd values out" (Pb.window_median ~at:[| 0.; 1.; 2.; 3.; 4. |]
    ~dur:[| 1.0; 50.0; 2.0; 3.0; 2.5 |] 2.0 = 2.5);
  expect "window: fewer probes than the window"
    (Pb.window_median ~at:[| 0.; 1. |] ~dur:[| 1.0; 3.0 |] 5.0 = 2.0);
  expect "window: no probes" (Float.is_nan (Pb.window_median ~at:[||] ~dur:[||] 1.0));
  let sorted = Array.init 100 (fun i -> float_of_int (i + 1)) in
  expect "quantile: nearest rank p50" (Pb.quantile sorted 0.5 = 50.0);
  expect "quantile: nearest rank p90" (Pb.quantile sorted 0.9 = 90.0);
  (* metric names, as BENCHMARK.json lists them *)
  (match Pb.load_metric_tables "../BENCHMARK.json" with
  | Error m -> expect ("BENCHMARK.json: " ^ m) false
  | Ok (end_to_end, per_layer) ->
      let names = List.map (fun (m : Pb.metric) -> m.Pb.name) (end_to_end @ per_layer) in
      expect "metric tables are not empty" (end_to_end <> [] && per_layer <> []);
      List.iter
        (fun n -> expect ("metric name " ^ n) (Pb.valid_name n && String.length n <= 64))
        names;
      expect "metric names are unique"
        (List.length (List.sort_uniq compare names) = List.length names);
      List.iter
        (fun (m : Pb.metric) ->
          expect ("unit " ^ m.Pb.unit_) (Pb.valid_name m.Pb.unit_ || m.Pb.unit_ = "1/s"))
        (end_to_end @ per_layer);
      expect "setup_s is an end-to-end metric"
        (List.exists (fun (m : Pb.metric) -> m.Pb.name = "setup_s") end_to_end));
  expect "workload names" (List.for_all (fun w -> Pb.valid_name (Pb.workload_name w)) Pb.workloads);
  if !failures > 0 then exit 1;
  print_endline "perfbench: all checks passed"
