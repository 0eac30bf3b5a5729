(* Frequency assignment via locally injective homomorphisms (Corollary 6).

   Locally injective homomorphisms model interference-free frequency
   assignments (Fiala–Kratochvíl): map a requirement pattern G into a
   frequency-compatibility graph G' such that adjacent pattern vertices
   get compatible frequencies and no two neighbours of a transmitter share
   a frequency.

   The pattern here is a transmitter chain (a path, treewidth 1), the host
   a random compatibility graph; we count assignments exactly and with the
   Corollary 6 FPTRAS, and show the encoding query.

   Run with: dune exec examples/frequency_assignment.exe *)

module G = Ac_workload.Graph
module Lihom = Approxcount.Lihom

let () =
  let rng = Random.State.make [| 7 |] in
  (* pattern: a chain of 4 transmitters; host: 12 frequencies with random
     compatibility *)
  let pattern = G.path 4 in
  let host = G.random_gnp ~rng 12 0.5 in
  Format.printf "pattern: chain of %d transmitters (treewidth 1)@."
    (G.num_vertices pattern);
  Format.printf "host: %d frequencies, %d compatible pairs@."
    (G.num_vertices host) (G.num_edges host);

  let q = Lihom.query_of pattern in
  Format.printf "@.encoding query (Corollary 6):@.  %a@." Ac_query.Ecq.pp q;
  Format.printf "  disequalities (common-neighbour pairs cn(G)): %d@."
    (List.length (Ac_query.Ecq.delta q));

  let exact = Lihom.exact_count ~pattern ~host in
  let brute = Lihom.exact_count_brute ~pattern ~host in
  Format.printf "@.exact #LIHom (query encoding) = %d (graph brute force: %d)@."
    exact brute;

  let exec = Ac_exec.Engine.sequential ~seed:7 in
  let r = Lihom.approx_count ~exec ~eps:0.2 ~delta:0.1 ~pattern host in
  Format.printf "FPTRAS estimate = %.1f (%s; %d hom calls)@."
    r.Approxcount.Fptras.estimate
    (if r.exact then "exact path" else Printf.sprintf "level %d" r.level)
    r.hom_calls;

  (* a bigger host where brute force is hopeless but the FPTRAS is fine *)
  let host2 = G.random_gnp ~rng 40 0.3 in
  let exact2 = Lihom.exact_count ~pattern ~host:host2 in
  let r2 = Lihom.approx_count ~exec ~eps:0.3 ~delta:0.1 ~pattern host2 in
  Format.printf "@.40-frequency host: exact=%d fptras=%.1f (%s)@." exact2
    r2.Approxcount.Fptras.estimate
    (if r2.exact then "exact path" else Printf.sprintf "level %d" r2.level)
