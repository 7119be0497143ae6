(* The merge engine: selection semantics, equivalences, and the paper's
   Figure 1 merging example. *)
module Isa = Vliw_isa
module M = Vliw_merge
module Q = QCheck

let m = Isa.Machine.default

let ops klasses = List.mapi (fun i k -> Isa.Op.make k i) klasses

let instr_of klass_lists =
  Isa.Instr.of_cluster_ops ~addr:0 (Array.of_list (List.map ops klass_lists))

let avail_of instrs =
  Array.of_list
    (List.mapi (fun t i -> Some (M.Packet.of_instr m ~thread:t i)) instrs)

let scheme name = (M.Catalog.find_exn name).scheme

let issued scheme_ ?(rotation = 0) avail =
  (M.Engine.select_batched m scheme_ ~rotation avail).issued

let select_named name instrs =
  M.Engine.select_batched m (scheme name) (avail_of instrs)

(* --- basic semantics --- *)

let test_all_stalled () =
  let sel = M.Engine.select_batched m (scheme "3SSS") (Array.make 4 None) in
  Alcotest.(check (list int)) "nothing issues" [] sel.issued;
  Alcotest.(check bool) "no packet" true (sel.packet = None)

let test_single_available () =
  let i = instr_of [ [ Isa.Op.Alu ]; []; []; [] ] in
  let avail = [| None; Some (M.Packet.of_instr m ~thread:1 i); None; None |] in
  Alcotest.(check (list int)) "only thread 1" [ 1 ]
    (issued (scheme "3CCC") avail)

let test_cascade_skip () =
  (* T0 and T1 collide on cluster 0 at cluster level; T2 is disjoint:
     the CSMT cascade skips T1 and still merges T2. *)
  let t0 = instr_of [ [ Isa.Op.Alu ]; []; []; [] ] in
  let t1 = instr_of [ [ Isa.Op.Alu ]; []; []; [] ] in
  let t2 = instr_of [ []; [ Isa.Op.Alu ]; []; [] ] in
  let t3 = instr_of [ [ Isa.Op.Alu ]; []; []; [] ] in
  let sel = select_named "3CCC" [ t0; t1; t2; t3 ] in
  Alcotest.(check (list int)) "skip conflicting, keep later" [ 0; 2 ] sel.issued

let test_smt_merges_what_csmt_cannot () =
  (* Two single-ALU instructions on the same cluster: the 2-thread CSMT
     merge fails, the 2-thread SMT merge (1S) packs both. *)
  let t0 = instr_of [ [ Isa.Op.Alu ]; []; []; [] ] in
  let t1 = instr_of [ [ Isa.Op.Alu ]; []; []; [] ] in
  let csmt2 = M.Scheme.csmt (M.Scheme.thread 0) (M.Scheme.thread 1) in
  let sel_csmt = M.Engine.select_batched m csmt2 (avail_of [ t0; t1 ]) in
  Alcotest.(check (list int)) "csmt: one" [ 0 ] sel_csmt.issued;
  let sel_smt = select_named "1S" [ t0; t1 ] in
  Alcotest.(check (list int)) "smt: both" [ 0; 1 ] sel_smt.issued

let test_empty_instr_merges_freely () =
  let nop = Isa.Instr.make ~clusters:4 ~addr:0 in
  let busy = instr_of [ [ Isa.Op.Alu; Isa.Op.Alu; Isa.Op.Alu; Isa.Op.Alu ]; []; []; [] ] in
  let sel = select_named "3CCC" [ busy; nop; busy; nop ] in
  (* NOP instructions conflict with nothing; the second busy thread
     collides with the first. *)
  Alcotest.(check (list int)) "nops merge" [ 0; 1; 3 ] sel.issued

let test_rotation_remaps_priority () =
  (* Two threads that conflict: with rotation 0, hardware thread 0 wins;
     with rotation 1, hardware thread 1 is wired to the priority port. *)
  let i = instr_of [ [ Isa.Op.Load ]; []; []; [] ] in
  let avail =
    [| Some (M.Packet.of_instr m ~thread:0 i); Some (M.Packet.of_instr m ~thread:1 i) |]
  in
  Alcotest.(check (list int)) "rot 0" [ 0 ] (issued (scheme "1S") ~rotation:0 avail);
  Alcotest.(check (list int)) "rot 1" [ 1 ] (issued (scheme "1S") ~rotation:1 avail)

let test_tree_indivisibility () =
  (* Pair (T2,T3) merges into a two-cluster packet that conflicts with
     (T0,T1)'s packet; a cascade would have squeezed T2 alone in. *)
  let t0 = instr_of [ [ Isa.Op.Alu ]; []; []; [] ] in
  let t1 = instr_of [ []; [ Isa.Op.Alu ]; []; [] ] in
  let t2 = instr_of [ []; []; [ Isa.Op.Alu ]; [] ] in
  let t3 = instr_of [ [ Isa.Op.Alu ]; []; []; [] ] in
  (* 2CC: C(C(T0,T1), C(T2,T3)). C(T2,T3) = {T2,T3} using clusters 2 and
     0; the top merge fails against {T0,T1} on clusters 0,1. *)
  let tree = select_named "2CC" [ t0; t1; t2; t3 ] in
  Alcotest.(check (list int)) "tree drops both" [ 0; 1 ] tree.issued;
  (* The cascade 3CCC issues T2 as well. *)
  let cascade = select_named "3CCC" [ t0; t1; t2; t3 ] in
  Alcotest.(check (list int)) "cascade keeps T2" [ 0; 1; 2 ] cascade.issued

let test_packet_matches_issued () =
  let t0 = instr_of [ [ Isa.Op.Alu ]; []; []; [] ] in
  let t1 = instr_of [ []; [ Isa.Op.Mul ]; []; [] ] in
  let sel = select_named "3SSS" [ t0; t1; t0; t1 ] in
  match sel.packet with
  | None -> Alcotest.fail "expected packet"
  | Some p ->
    Alcotest.(check (list int)) "packet threads = issued" sel.issued
      (M.Packet.thread_list p)

(* --- Figure 1 (reconstruction): 4-cluster, 2-issue machine --- *)

let m8 = Isa.Machine.make ~clusters:4 ~issue_width:2 ~n_lsu:1 ~n_mul:1 ~n_branch:0 ()

let fig1_select name instrs =
  let avail =
    Array.of_list
      (List.mapi (fun t i -> Some (M.Packet.of_instr m ~thread:t i)) instrs)
  in
  (M.Engine.select_batched m8 (M.Catalog.find_exn name).scheme avail).issued

let fig1_instr cl = Isa.Instr.of_cluster_ops ~addr:0 (Array.of_list (List.map ops cl))

let test_fig1_pair1_no_merge () =
  (* Conflicts at both granularities: two loads on cluster 0. *)
  let t0 = fig1_instr [ [ Isa.Op.Load; Isa.Op.Alu ]; [ Isa.Op.Alu ]; []; [ Isa.Op.Alu ] ] in
  let t1 = fig1_instr [ [ Isa.Op.Load ]; [ Isa.Op.Alu ]; []; [ Isa.Op.Alu ] ] in
  Alcotest.(check (list int)) "SMT cannot merge" [ 0 ] (fig1_select "1S" [ t0; t1 ]);
  let p0 = M.Packet.of_instr m ~thread:0 t0 and p1 = M.Packet.of_instr m ~thread:1 t1 in
  Alcotest.(check bool) "CSMT cannot merge" false (M.Conflict.csmt_compatible p0 p1)

let test_fig1_pair2_smt_only () =
  (* Same clusters used, but operations fit together at op level. *)
  let t0 = fig1_instr [ [ Isa.Op.Alu ]; [ Isa.Op.Load ]; [ Isa.Op.Alu ]; [ Isa.Op.Alu ] ] in
  let t1 = fig1_instr [ [ Isa.Op.Copy ]; [ Isa.Op.Mul ]; [ Isa.Op.Store ]; [ Isa.Op.Alu ] ] in
  Alcotest.(check (list int)) "SMT merges" [ 0; 1 ] (fig1_select "1S" [ t0; t1 ]);
  let p0 = M.Packet.of_instr m ~thread:0 t0 and p1 = M.Packet.of_instr m ~thread:1 t1 in
  Alcotest.(check bool) "CSMT conflicts at cluster level" false
    (M.Conflict.csmt_compatible p0 p1)

let test_fig1_pair3_both () =
  (* Disjoint clusters: both granularities merge. *)
  let t0 = fig1_instr [ []; [ Isa.Op.Load; Isa.Op.Alu ]; [ Isa.Op.Store ]; [] ] in
  let t1 = fig1_instr [ [ Isa.Op.Alu; Isa.Op.Copy ]; []; []; [ Isa.Op.Alu; Isa.Op.Mul ] ] in
  let p0 = M.Packet.of_instr m ~thread:0 t0 and p1 = M.Packet.of_instr m ~thread:1 t1 in
  Alcotest.(check bool) "CSMT merges" true (M.Conflict.csmt_compatible p0 p1);
  Alcotest.(check bool) "SMT merges" true (M.Conflict.smt_compatible m8 p0 p1);
  Alcotest.(check (list int)) "issued" [ 0; 1 ] (fig1_select "1S" [ t0; t1 ])

(* --- properties --- *)

let prop_equiv name_a name_b =
  Q.Test.make
    ~name:(Printf.sprintf "%s selects like %s" name_a name_b)
    ~count:400 (Tgen.avail_arb 4)
    (fun instrs ->
      let avail =
        Array.mapi
          (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i)
          instrs
      in
      issued (scheme name_a) avail = issued (scheme name_b) avail)

let prop_c4_equiv_3ccc = prop_equiv "C4" "3CCC"
let prop_2sc3_equiv_3scc = prop_equiv "2SC3" "3SCC"
let prop_2c3s_equiv_3ccs = prop_equiv "2C3S" "3CCS"

let prop_issued_subset_available =
  Q.Test.make ~name:"issued threads were available" ~count:300
    Q.(pair (Tgen.scheme_arb 4) (Tgen.avail_arb 4))
    (fun (s, instrs) ->
      Q.assume (M.Scheme.validate s = Ok ());
      let avail =
        Array.mapi (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i) instrs
      in
      List.for_all (fun t -> avail.(t) <> None) (issued s avail))

let prop_merged_packet_routable =
  Q.Test.make ~name:"merged packets always route" ~count:400
    Q.(pair (Tgen.scheme_arb 4) (Tgen.avail_arb 4))
    (fun (s, instrs) ->
      Q.assume (M.Scheme.validate s = Ok ());
      let avail =
        Array.mapi (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i) instrs
      in
      match (M.Engine.select_batched m s avail).packet with
      | None -> true
      | Some p ->
        (match M.Routing.route m p with
        | None -> false
        | Some routed -> M.Routing.occupancy routed = M.Packet.op_count p))

let prop_csmt_one_thread_per_cluster =
  Q.Test.make ~name:"CSMT-only schemes: one thread per cluster" ~count:400
    (Tgen.avail_arb 4) (fun instrs ->
      let avail =
        Array.mapi (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i) instrs
      in
      match (M.Engine.select_batched m (scheme "3CCC") avail).packet with
      | None -> true
      | Some p ->
        let ok = ref true in
        for c = 0 to 3 do
          if List.length (M.Packet.cluster_threads p c) > 1 then ok := false
        done;
        !ok)

let prop_smt_issues_at_least_priority =
  Q.Test.make ~name:"some thread always issues when available" ~count:300
    Q.(pair (Tgen.scheme_arb 4) (Tgen.avail_arb 4))
    (fun (s, instrs) ->
      Q.assume (M.Scheme.validate s = Ok ());
      Q.assume (Array.exists Option.is_some instrs);
      let avail =
        Array.mapi (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i) instrs
      in
      issued s avail <> [])

let suite =
  ( "engine",
    [
      Alcotest.test_case "all stalled" `Quick test_all_stalled;
      Alcotest.test_case "single available" `Quick test_single_available;
      Alcotest.test_case "cascade skip semantics" `Quick test_cascade_skip;
      Alcotest.test_case "smt merges what csmt cannot" `Quick
        test_smt_merges_what_csmt_cannot;
      Alcotest.test_case "empty instruction merges freely" `Quick
        test_empty_instr_merges_freely;
      Alcotest.test_case "rotation remaps priority" `Quick test_rotation_remaps_priority;
      Alcotest.test_case "tree packets are indivisible" `Quick test_tree_indivisibility;
      Alcotest.test_case "packet matches issued" `Quick test_packet_matches_issued;
      Alcotest.test_case "fig1 pair I: no merge" `Quick test_fig1_pair1_no_merge;
      Alcotest.test_case "fig1 pair II: SMT only" `Quick test_fig1_pair2_smt_only;
      Alcotest.test_case "fig1 pair III: both" `Quick test_fig1_pair3_both;
      Tgen.to_alcotest prop_c4_equiv_3ccc;
      Tgen.to_alcotest prop_2sc3_equiv_3scc;
      Tgen.to_alcotest prop_2c3s_equiv_3ccs;
      Tgen.to_alcotest prop_issued_subset_available;
      Tgen.to_alcotest prop_merged_packet_routable;
      Tgen.to_alcotest prop_csmt_one_thread_per_cluster;
      Tgen.to_alcotest prop_smt_issues_at_least_priority;
    ] )

(* --- specification-based check of the greedy selection ---

   Independent reformulation: the cascade's selection is the unique set
   built by considering inputs in priority order and accepting an input
   iff it is compatible with the union of everything accepted so far.
   Here we recompute that set by brute force over subsets for a single
   CSMT block (the hardware the parallel implementation enumerates) and
   check the engine agrees. *)

let spec_csmt_selection packets =
  (* packets: (input index, packet) list in priority order. *)
  let rec go acc acc_mask = function
    | [] -> List.rev acc
    | (i, p) :: rest ->
      if acc_mask land p.M.Packet.mask = 0 then
        go ((i, p) :: acc) (acc_mask lor p.M.Packet.mask) rest
      else go acc acc_mask rest
  in
  go [] 0 packets

let prop_parallel_csmt_matches_spec =
  Q.Test.make ~name:"parallel CSMT block matches subset specification" ~count:500
    (Tgen.avail_arb 4)
    (fun instrs ->
      let avail =
        Array.mapi (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i) instrs
      in
      let inputs =
        Array.to_list avail
        |> List.mapi (fun i p -> (i, p))
        |> List.filter_map (fun (i, p) -> Option.map (fun p -> (i, p)) p)
      in
      let expected = List.map fst (spec_csmt_selection inputs) |> List.sort compare in
      let sel = M.Engine.select_batched m (M.Scheme.csmt_par 4) avail in
      List.sort compare sel.issued = expected)

(* The greedy set is maximal: no skipped input is compatible with the
   final selection (no thread was left out needlessly). *)
let prop_selection_maximal =
  Q.Test.make ~name:"CSMT cascade selection is maximal" ~count:500
    (Tgen.avail_arb 4)
    (fun instrs ->
      let avail =
        Array.mapi (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i) instrs
      in
      let sel = M.Engine.select_batched m (scheme "3CCC") avail in
      match sel.packet with
      | None -> Array.for_all Option.is_none avail
      | Some merged ->
        Array.to_list avail
        |> List.mapi (fun i p -> (i, p))
        |> List.for_all (fun (i, p) ->
               match p with
               | None -> true
               | Some p ->
                 List.mem i sel.issued
                 || not (M.Conflict.csmt_compatible merged p)))

(* Engines generalise beyond 4 threads: a 6-thread cascade still obeys
   the core invariants. *)
let prop_six_thread_engine =
  Q.Test.make ~name:"6-thread schemes behave" ~count:200 (Tgen.avail_arb 6)
    (fun instrs ->
      let avail =
        Array.mapi (fun t i -> Option.map (M.Packet.of_instr m ~thread:t) i) instrs
      in
      let s = M.Scheme_name.parse_exn "2SC5" in
      let sel = M.Engine.select_batched m s avail in
      List.for_all (fun t -> avail.(t) <> None) sel.issued
      &&
      match sel.packet with
      | None -> true
      | Some p -> M.Routing.route m p <> None)

let spec_suite =
  [
    Tgen.to_alcotest prop_parallel_csmt_matches_spec;
    Tgen.to_alcotest prop_selection_maximal;
    Tgen.to_alcotest prop_six_thread_engine;
  ]

let suite = (fst suite, snd suite @ spec_suite)
