(* Shared QCheck generators for randomized tests. *)

module Isa = Vliw_isa
module Q = QCheck

let machine = Isa.Machine.default

(* A well-formed per-cluster operation list: respects the slot limits of
   one cluster (<=1 mem, <=2 mul, <=1 branch, total <= issue width). *)
let cluster_ops_gen ?(allow_branch = false) () =
  let open Q.Gen in
  let* n_mem = int_bound machine.n_lsu in
  let* n_mul = int_bound machine.n_mul in
  let* n_br = if allow_branch then int_bound machine.n_branch else pure 0 in
  let remaining = machine.issue_width - n_mem - n_mul - n_br in
  let* n_alu = int_bound (max 0 remaining) in
  let make klass count start =
    List.init count (fun i -> Isa.Op.make klass (start + i))
  in
  pure
    (make Isa.Op.Load n_mem 0
    @ make Isa.Op.Mul n_mul 10
    @ make Isa.Op.Branch n_br 20
    @ make Isa.Op.Alu n_alu 30)

(* A sparser distribution closer to real schedules: most clusters hold
   few ops, many are empty. *)
let sparse_cluster_ops_gen () =
  let open Q.Gen in
  let* density = int_bound 3 in
  if density = 0 then pure []
  else
    let* ops = cluster_ops_gen () in
    let* keep = int_bound (List.length ops) in
    pure (List.filteri (fun i _ -> i < keep) ops)

let instr_gen ?(sparse = true) () =
  let open Q.Gen in
  let cluster = if sparse then sparse_cluster_ops_gen () else cluster_ops_gen () in
  let* clusters = array_repeat machine.clusters cluster in
  pure (Isa.Instr.of_cluster_ops ~addr:0 clusters)

let instr_arb ?sparse () =
  Q.make
    ~print:(fun i -> Format.asprintf "%a" (Isa.Instr.pp machine) i)
    (instr_gen ?sparse ())

(* Candidate instruction sets for an n-thread merge engine: each thread
   offers an instruction, a NOP-only instruction, or is stalled. *)
let avail_gen n =
  let open Q.Gen in
  let slot =
    frequency
      [
        (6, map Option.some (instr_gen ()));
        (1, pure (Some (Isa.Instr.make ~clusters:machine.clusters ~addr:0)));
        (2, pure None);
      ]
  in
  array_repeat n slot

let avail_arb n =
  Q.make
    ~print:(fun avail ->
      String.concat ";\n"
        (Array.to_list
           (Array.map
              (function
                | None -> "stalled"
                | Some i -> Format.asprintf "%a" (Isa.Instr.pp machine) i)
              avail)))
    (avail_gen n)

(* Random well-formed schemes over n threads, mixing kinds, shapes and
   parallel CSMT nodes. Half the merges take a same-kind left child (a
   left spine, with either CSMT implementation at every level), the
   shape {!Vliw_merge.Scheme.canonical} flattens. *)
let scheme_gen n =
  let open Q.Gen in
  let module S = Vliw_merge.Scheme in
  let rec build ?family leaves =
    match leaves with
    | [] -> assert false
    | [ x ] -> pure x
    | _ ->
      let* split = int_range 1 (List.length leaves - 1) in
      let left = List.filteri (fun i _ -> i < split) leaves in
      let right = List.filteri (fun i _ -> i >= split) leaves in
      let* kind =
        match family with
        | Some `Smt -> pure `Smt
        | Some `Csmt -> oneofl [ `Csmt; `Cpar ]
        | None -> oneofl [ `Smt; `Csmt; `Cpar ]
      in
      let* spine = bool in
      let* l =
        if spine then build ~family:(if kind = `Smt then `Smt else `Csmt) left
        else build left
      in
      let* r = build right in
      (match kind with
      | `Smt -> pure (S.smt l r)
      | `Csmt -> pure (S.csmt l r)
      | `Cpar -> pure (S.csmt_parallel [ l; r ]))
  in
  build (List.init n S.thread)

let scheme_arb n = Q.make ~print:Vliw_merge.Scheme.to_string (scheme_gen n)

let to_alcotest = QCheck_alcotest.to_alcotest
