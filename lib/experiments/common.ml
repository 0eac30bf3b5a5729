let rng name =
  Random.State.make (Array.of_seq (Seq.map Char.code (String.to_seq name)))

let engine rng = Ac_exec.Engine.sequential ~seed:(Random.State.bits rng)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let rel_err ~estimate ~truth =
  if truth = 0.0 then if estimate = 0.0 then 0.0 else infinity
  else Float.abs (estimate -. truth) /. truth

let table fmt ~title ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun c cell -> cell ^ String.make (List.nth widths c - String.length cell) ' ')
         row)
  in
  Format.fprintf fmt "@.== %s@." title;
  Format.fprintf fmt "%s@." (line header);
  Format.fprintf fmt "%s@."
    (String.make (List.fold_left ( + ) (2 * (cols - 1)) widths) '-');
  List.iter (fun row -> Format.fprintf fmt "%s@." (line row)) rows

let f1 x = Printf.sprintf "%.1f" x
let f3 x = Printf.sprintf "%.3f" x

type t = {
  id : string;
  claim : string;
  queries : (string * Ac_query.Ecq.t) list;
  run : Format.formatter -> unit;
}
