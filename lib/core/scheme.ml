type impl = Serial | Parallel

type t =
  | Thread of int
  | Merge of { kind : Scheme_kind.t; impl : impl; inputs : t list }

let thread i = Thread i

let smt a b = Merge { kind = Scheme_kind.Smt; impl = Serial; inputs = [ a; b ] }

let csmt a b = Merge { kind = Scheme_kind.Csmt; impl = Serial; inputs = [ a; b ] }

let csmt_parallel inputs =
  assert (List.length inputs >= 2);
  Merge { kind = Scheme_kind.Csmt; impl = Parallel; inputs }

let cascade mk n =
  assert (n >= 1);
  let rec build acc i =
    if i >= n then acc else build (mk acc (Thread i)) (i + 1)
  in
  build (Thread 0) 1

let smt_cascade n = cascade smt n

let csmt_cascade n = cascade csmt n

let csmt_par n =
  assert (n >= 2);
  csmt_parallel (List.init n thread)

let rec leaf_ids = function
  | Thread i -> [ i ]
  | Merge { inputs; _ } -> List.concat_map leaf_ids inputs

let n_threads t = List.length (leaf_ids t)

let validate t =
  let ids = leaf_ids t in
  let n = List.length ids in
  let sorted = List.sort compare ids in
  let expected = List.init n Fun.id in
  let rec structure = function
    | Thread _ -> Ok ()
    | Merge { impl = Parallel; kind = Scheme_kind.Smt; _ } ->
      Error "parallel SMT merge control is not implementable"
    | Merge { inputs; _ } when List.length inputs < 2 ->
      Error "merge node needs at least two inputs"
    | Merge { inputs; _ } ->
      List.fold_left
        (fun acc input -> match acc with Error _ -> acc | Ok () -> structure input)
        (Ok ()) inputs
  in
  if sorted <> expected then Error "thread ids must be 0..n-1, each exactly once"
  else structure t

(* Children first, so a spliced first input is already flat. *)
let rec canonical = function
  | Thread _ as t -> t
  | Merge { kind; impl = _; inputs } ->
    let inputs =
      match List.map canonical inputs with
      | Merge { kind = k; inputs = first; _ } :: rest when k = kind -> first @ rest
      | inputs -> inputs
    in
    Merge { kind; impl = Serial; inputs }

let rec levels = function
  | Thread _ -> 0
  | Merge { inputs; _ } ->
    1 + List.fold_left (fun acc i -> max acc (levels i)) 0 inputs

let rec block_count kind = function
  | Thread _ -> 0
  | Merge { kind = k; inputs; _ } ->
    let self = if k = kind then 1 else 0 in
    List.fold_left (fun acc i -> acc + block_count kind i) self inputs

let rec equal a b =
  match (a, b) with
  | Thread i, Thread j -> i = j
  | Merge ma, Merge mb ->
    ma.kind = mb.kind && ma.impl = mb.impl
    && List.length ma.inputs = List.length mb.inputs
    && List.for_all2 equal ma.inputs mb.inputs
  | Thread _, Merge _ | Merge _, Thread _ -> false

let rec pp ppf = function
  | Thread i -> Format.fprintf ppf "T%d" i
  | Merge { kind; impl; inputs } ->
    let tag =
      match (kind, impl) with
      | Scheme_kind.Smt, _ -> "S"
      | Scheme_kind.Csmt, Serial -> "C"
      | Scheme_kind.Csmt, Parallel -> "Cp"
    in
    Format.fprintf ppf "%s(%a)" tag
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         pp)
      inputs

let to_string t = Format.asprintf "%a" pp t
