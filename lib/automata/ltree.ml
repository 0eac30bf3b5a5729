type t = {
  id : int;
  label : int;
  children : t list;
}

(* Ids key the automaton's run-state memo (Tree_automaton.memo), where a
   duplicated id would silently corrupt it. The counter is atomic because
   parallel sketch trials build trees on several domains at once. *)
let counter = Atomic.make 0

let node label children =
  if List.length children > 2 then invalid_arg "Ltree.node: more than 2 children";
  { id = Atomic.fetch_and_add counter 1 + 1; label; children }

let leaf label = node label []

let rec size t = 1 + List.fold_left (fun acc c -> acc + size c) 0 t.children

let rec equal a b =
  a.label = b.label
  && List.length a.children = List.length b.children
  && List.for_all2 equal a.children b.children

let rec compare a b =
  let c = Int.compare a.label b.label in
  if c <> 0 then c
  else
    let c = Int.compare (List.length a.children) (List.length b.children) in
    if c <> 0 then c
    else
      List.fold_left2
        (fun acc x y -> if acc <> 0 then acc else compare x y)
        0 a.children b.children

let rec hash t =
  List.fold_left
    (fun acc c -> ((acc * 0x01000193) lxor hash c) land max_int)
    ((t.label + 0x9e3779b9) land max_int)
    t.children

type shape = Shape of shape list

let rec shape_of t = Shape (List.map shape_of t.children)

let rec shape_size (Shape kids) =
  1 + List.fold_left (fun acc s -> acc + shape_size s) 0 kids

let rec shapes_with_size n =
  if n <= 0 then []
  else if n = 1 then [ Shape [] ]
  else
    (* one child *)
    let unary = List.map (fun s -> Shape [ s ]) (shapes_with_size (n - 1)) in
    (* two children: split n-1 nodes *)
    let binary = ref [] in
    for left = 1 to n - 2 do
      List.iter
        (fun ls ->
          List.iter
            (fun rs -> binary := Shape [ ls; rs ] :: !binary)
            (shapes_with_size (n - 1 - left)))
        (shapes_with_size left)
    done;
    unary @ List.rev !binary

let rec labelings ~alphabet (Shape kids) =
  let child_choices =
    List.fold_right
      (fun kid acc ->
        let options = labelings ~alphabet kid in
        List.concat_map (fun rest -> List.map (fun o -> o :: rest) options) acc)
      kids [ [] ]
  in
  List.concat_map
    (fun children -> List.init alphabet (fun a -> node a children))
    child_choices

let rec pp fmt t =
  match t.children with
  | [] -> Format.fprintf fmt "%d" t.label
  | kids ->
      Format.fprintf fmt "%d(%a)" t.label
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
           pp)
        kids
