(* A reconstruction of the paper's Figure 1: three pairs of VLIW
   instructions on a 4-cluster, 2-issue-per-cluster machine, showing
   which pairs SMT and CSMT can merge and the routed execution packet.

   Run with: dune exec examples/merge_visualizer.exe *)

module Isa = Vliw_isa
module M = Vliw_merge

(* Figure 1's machine: 8-issue, 4 clusters x 2 issue, one LSU and one
   multiplier per cluster, no branch slot (the example instructions have
   no branches). *)
let machine = Isa.Machine.make ~clusters:4 ~issue_width:2 ~n_lsu:1 ~n_mul:1 ~n_branch:0 ()

let ops klasses = List.mapi (fun i k -> Isa.Op.make k i) klasses

let instr klass_lists =
  Isa.Instr.of_cluster_ops ~addr:0 (Array.of_list (List.map ops klass_lists))

let show_pair title (t0, t1) =
  Format.printf "@.%s@." title;
  Format.printf "  Thread 0: %a@." (Isa.Instr.pp machine) t0;
  Format.printf "  Thread 1: %a@." (Isa.Instr.pp machine) t1;
  let p0 = M.Packet.of_instr machine ~thread:0 t0 in
  let p1 = M.Packet.of_instr machine ~thread:1 t1 in
  let csmt = M.Conflict.csmt_compatible p0 p1 in
  let smt = M.Conflict.smt_compatible machine p0 p1 in
  Format.printf "  CSMT (cluster-level): %s@."
    (if csmt then "merge" else "conflict");
  Format.printf "  SMT (operation-level): %s@."
    (if smt then "merge" else "conflict");
  if smt then begin
    match M.Routing.route machine (M.Packet.union p0 p1) with
    | Some routed ->
      Format.printf "  Execution packet (op[thread]):@.   %a@."
        (M.Routing.pp machine) routed
    | None -> assert false
  end

let () =
  Format.printf "Instruction merging at the two granularities (paper Fig. 1)@.";
  Format.printf "Machine: %a@." Isa.Machine.pp machine;

  (* Pair I: conflicts at both levels — the two instructions need the
     same fixed memory slot on cluster 0. *)
  show_pair "Pair I: merging not possible"
    ( instr [ [ Isa.Op.Load; Isa.Op.Alu ]; [ Isa.Op.Alu ]; []; [ Isa.Op.Alu ] ],
      instr [ [ Isa.Op.Load ]; [ Isa.Op.Alu ]; []; [ Isa.Op.Alu ] ] );

  (* Pair II: both threads use clusters 0-3 (cluster-level conflict),
     but the operations fit side by side, so only SMT merges. *)
  show_pair "Pair II: SMT merges, CSMT cannot"
    ( instr [ [ Isa.Op.Alu ]; [ Isa.Op.Load ]; [ Isa.Op.Alu ]; [ Isa.Op.Alu ] ],
      instr [ [ Isa.Op.Copy ]; [ Isa.Op.Mul ]; [ Isa.Op.Store ]; [ Isa.Op.Alu ] ] );

  (* Pair III: thread 0 uses clusters 1-2, thread 1 uses clusters 0 and
     3 — disjoint, so even cluster-level merging succeeds. *)
  show_pair "Pair III: both SMT and CSMT merge"
    ( instr [ []; [ Isa.Op.Load; Isa.Op.Alu ]; [ Isa.Op.Store ]; [] ],
      instr [ [ Isa.Op.Alu; Isa.Op.Copy ]; []; []; [ Isa.Op.Alu; Isa.Op.Mul ] ] );

  (* Bonus: the same three pairs through the 2-thread SMT merge engine,
     cycle by cycle, showing the skip semantics. *)
  Format.printf "@.Through the 1S merge engine (priority port = thread 0):@.";
  let pairs =
    [
      ( "Pair I",
        instr [ [ Isa.Op.Load; Isa.Op.Alu ]; [ Isa.Op.Alu ]; []; [ Isa.Op.Alu ] ],
        instr [ [ Isa.Op.Load ]; [ Isa.Op.Alu ]; []; [ Isa.Op.Alu ] ] );
      ( "Pair II",
        instr [ [ Isa.Op.Alu ]; [ Isa.Op.Load ]; [ Isa.Op.Alu ]; [ Isa.Op.Alu ] ],
        instr [ [ Isa.Op.Copy ]; [ Isa.Op.Mul ]; [ Isa.Op.Store ]; [ Isa.Op.Alu ] ] );
    ]
  in
  List.iter
    (fun (name, t0, t1) ->
      let sel =
        M.Engine.select_batched machine (M.Catalog.find_exn "1S").scheme
          [|
            Some (M.Packet.of_instr machine ~thread:0 t0);
            Some (M.Packet.of_instr machine ~thread:1 t1);
          |]
      in
      Format.printf "  %s: issued threads %s@." name
        (String.concat "," (List.map string_of_int sel.issued)))
    pairs
