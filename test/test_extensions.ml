(* Scheme_space, fixed-slot conflict mode, Ablations, Ext8, and the
   scheduler's unschedulable-op guard. *)
module Isa = Vliw_isa
module M = Vliw_merge
module E = Vliw_experiments
module Q = QCheck

let m = Isa.Machine.default

(* --- Scheme_space --- *)

let test_shapes () =
  Alcotest.(check int) "shapes 1" 1 (M.Scheme_space.shapes 1);
  Alcotest.(check int) "shapes 2" 1 (M.Scheme_space.shapes 2);
  Alcotest.(check int) "shapes 3" 3 (M.Scheme_space.shapes 3);
  Alcotest.(check int) "shapes 4" 11 (M.Scheme_space.shapes 4);
  Alcotest.(check int) "shapes 5" 45 (M.Scheme_space.shapes 5)

let test_enumerate_valid () =
  let all = M.Scheme_space.enumerate 4 in
  Alcotest.(check bool) "non-trivial count" true (List.length all > 100);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (M.Scheme.to_string s ^ " valid")
        true
        (M.Scheme.validate s = Ok ());
      Alcotest.(check int) "4 threads" 4 (M.Scheme.n_threads s))
    all

let test_enumerate_small () =
  (* 2 threads: S(T0,T1), C(T0,T1), Cp(T0,T1). *)
  Alcotest.(check int) "n=2 gives 3" 3 (List.length (M.Scheme_space.enumerate 2));
  Alcotest.(check int) "n=1 gives the bare thread" 1
    (List.length (M.Scheme_space.enumerate 1))

let test_enumerate_contains_catalog () =
  let structures =
    List.map M.Scheme.to_string (M.Scheme_space.enumerate 4)
  in
  List.iter
    (fun (e : M.Catalog.entry) ->
      if M.Scheme.n_threads e.scheme = 4 then
        Alcotest.(check bool)
          (e.name ^ " enumerated")
          true
          (List.mem (M.Scheme.to_string e.scheme) structures))
    M.Catalog.all

let test_enumerate_distinct () =
  let structures = List.map M.Scheme.to_string (M.Scheme_space.enumerate 4) in
  let sorted = List.sort_uniq compare structures in
  Alcotest.(check int) "no duplicates" (List.length structures) (List.length sorted)

let test_max_nodes_filter () =
  let small = M.Scheme_space.enumerate ~max_nodes:1 4 in
  (* Only the single parallel CSMT block spans 4 threads in one node. *)
  Alcotest.(check int) "only C4" 1 (List.length small);
  Alcotest.(check string) "it is C4" "Cp(T0,T1,T2,T3)"
    (M.Scheme.to_string (List.hd small))

(* --- fixed-slot conflict mode --- *)

let ops klasses = List.mapi (fun i k -> Isa.Op.make k i) klasses

let packet thread klass_lists =
  M.Packet.of_instr m ~thread
    (Isa.Instr.of_cluster_ops ~addr:0 (Array.of_list (List.map ops klass_lists)))

let test_fixed_slots_stricter_example () =
  (* Two 1-ALU instructions on cluster 0: flexible routing packs them in
     different slots; fixed-slot pins both to slot 0 and collides. *)
  let a = packet 0 [ [ Isa.Op.Alu ]; []; []; [] ] in
  let b = packet 1 [ [ Isa.Op.Alu ]; []; []; [] ] in
  Alcotest.(check bool) "flexible merges" true (M.Conflict.smt_compatible m a b);
  Alcotest.(check bool) "fixed slots collide" false
    (M.Conflict.smt_compatible_fixed m a b)

let test_fixed_slots_disjoint_ok () =
  (* A memory op (slot 0) and a multiply (slot 1) pin to different
     slots: fixed-slot merging succeeds. *)
  let a = packet 0 [ [ Isa.Op.Load ]; []; []; [] ] in
  let b = packet 1 [ [ Isa.Op.Mul ]; []; []; [] ] in
  Alcotest.(check bool) "fixed slots disjoint" true
    (M.Conflict.smt_compatible_fixed m a b);
  (* Different clusters trivially fine. *)
  let c = packet 1 [ []; [ Isa.Op.Alu ]; []; [] ] in
  Alcotest.(check bool) "different clusters" true
    (M.Conflict.smt_compatible_fixed m a c)

let prop_fixed_implies_flexible =
  Q.Test.make ~name:"fixed-slot compatibility implies flexible" ~count:300
    Q.(pair (Tgen.instr_arb ()) (Tgen.instr_arb ()))
    (fun (i1, i2) ->
      let a = M.Packet.of_instr m ~thread:0 i1 in
      let b = M.Packet.of_instr m ~thread:1 i2 in
      Q.assume (M.Conflict.smt_compatible_fixed m a b);
      M.Conflict.smt_compatible m a b)

let test_engine_fixed_mode () =
  let t0 = Some (packet 0 [ [ Isa.Op.Alu ]; []; []; [] ]) in
  let t1 = Some (packet 1 [ [ Isa.Op.Alu ]; []; []; [] ]) in
  let scheme = (M.Catalog.find_exn "1S").scheme in
  let flexible = M.Engine.select_batched m scheme [| t0; t1 |] in
  let fixed =
    M.Engine.select_batched m ~routing:M.Conflict.Fixed_slots scheme
      [| t0; t1 |]
  in
  Alcotest.(check (list int)) "flexible issues both" [ 0; 1 ] flexible.issued;
  Alcotest.(check (list int)) "fixed issues one" [ 0 ] fixed.issued

(* --- scheduler guard --- *)

let test_scheduler_rejects_unschedulable () =
  let nodes = [| { Vliw_compiler.Dag.id = 0; klass = Isa.Op.Mul; preds = []; level = 0 } |] in
  let no_mul = Isa.Machine.make ~n_mul:0 () in
  Alcotest.check_raises "no multiplier"
    (Invalid_argument
       "List_scheduler.schedule: machine has no slot for mpy operations")
    (fun () ->
      ignore
        (Vliw_compiler.List_scheduler.schedule no_mul { nodes; live_in = [] }
           ~assignment:[| 0 |]
           ~base_addr:0 ~instr_bytes:64))

(* --- ablations --- *)

let ablation_rows =
  lazy (E.Ablations.run ~scale:E.Common.Quick ~mixes:[ "LLHH" ] ())

let find_variant rows label =
  List.find (fun (r : E.Ablations.row) -> r.variant = label) rows

let ipc_of row scheme = List.assoc scheme (row : E.Ablations.row).ipc_by_scheme

let test_ablation_structure () =
  let rows = Lazy.force ablation_rows in
  Alcotest.(check int) "4 variants" 4 (List.length rows);
  List.iter
    (fun (r : E.Ablations.row) ->
      Alcotest.(check int) (r.variant ^ " has 3 schemes") 3
        (List.length r.ipc_by_scheme))
    rows

let test_ablation_nonblocking_helps () =
  let rows = Lazy.force ablation_rows in
  let base = find_variant rows "baseline" in
  let nb = find_variant rows "nonblocking-dmiss" in
  List.iter
    (fun scheme ->
      Alcotest.(check bool)
        (scheme ^ ": non-blocking >= baseline")
        true
        (ipc_of nb scheme >= ipc_of base scheme))
    [ "3CCC"; "2SC3"; "3SSS" ]

let test_ablation_fixed_slots_hurts_smt () =
  let rows = Lazy.force ablation_rows in
  let base = find_variant rows "baseline" in
  let fs = find_variant rows "fixed-slot-smt" in
  (* CSMT has no SMT block: unaffected. SMT loses performance. *)
  Alcotest.(check (float 1e-9)) "3CCC unaffected" (ipc_of base "3CCC")
    (ipc_of fs "3CCC");
  Alcotest.(check bool) "3SSS degrades" true
    (ipc_of fs "3SSS" < ipc_of base "3SSS")

let test_ablation_render () =
  let out = E.Ablations.render (Lazy.force ablation_rows) in
  Alcotest.(check bool) "mentions fixed-slot" true
    (let needle = "fixed-slot-smt" in
     let rec go i =
       i + String.length needle <= String.length out
       && (String.sub out i (String.length needle) = needle || go (i + 1))
     in
     go 0)

(* --- ext8 --- *)

let test_ext8_structure () =
  List.iter
    (fun (e : E.Ext8.entry) ->
      Alcotest.(check int) (e.name ^ " is 8-thread") 8
        (M.Scheme.n_threads e.scheme);
      Alcotest.(check bool) (e.name ^ " valid") true
        (M.Scheme.validate e.scheme = Ok ()))
    E.Ext8.schemes

let test_ext8_quick_run () =
  let rows = E.Ext8.run ~scale:E.Common.Quick () in
  Alcotest.(check int) "6 schemes" 6 (List.length rows);
  let get name = List.find (fun (r : E.Ext8.row) -> r.name = name) rows in
  (* SMT8 is the most expensive and the fastest; C8 selections equal the
     serial CSMT8's, so their IPC matches. *)
  let smt8 = get "SMT8" and c8 = get "C8" and csmt8 = get "CSMT8" in
  Alcotest.(check bool) "SMT8 fastest" true
    (List.for_all (fun (r : E.Ext8.row) -> smt8.avg_ipc >= r.avg_ipc) rows);
  Alcotest.(check bool) "SMT8 costliest" true
    (List.for_all (fun (r : E.Ext8.row) -> smt8.transistors >= r.transistors) rows);
  Alcotest.(check (float 1e-9)) "C8 = CSMT8 performance" c8.avg_ipc csmt8.avg_ipc;
  Alcotest.(check bool) "C8 faster delay than CSMT8" true (c8.delay < csmt8.delay);
  let sc7 = get "2SC7" in
  Alcotest.(check bool) "2SC7 between CSMT8 and SMT8" true
    (sc7.avg_ipc >= csmt8.avg_ipc && sc7.avg_ipc <= smt8.avg_ipc)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "schroeder shapes" `Quick test_shapes;
      Alcotest.test_case "enumerate valid" `Quick test_enumerate_valid;
      Alcotest.test_case "enumerate small" `Quick test_enumerate_small;
      Alcotest.test_case "enumerate covers catalog" `Quick
        test_enumerate_contains_catalog;
      Alcotest.test_case "enumerate distinct" `Quick test_enumerate_distinct;
      Alcotest.test_case "max_nodes filter" `Quick test_max_nodes_filter;
      Alcotest.test_case "fixed slots stricter" `Quick test_fixed_slots_stricter_example;
      Alcotest.test_case "fixed slots disjoint ok" `Quick test_fixed_slots_disjoint_ok;
      Tgen.to_alcotest prop_fixed_implies_flexible;
      Alcotest.test_case "engine fixed mode" `Quick test_engine_fixed_mode;
      Alcotest.test_case "scheduler rejects unschedulable" `Quick
        test_scheduler_rejects_unschedulable;
      Alcotest.test_case "ablation structure" `Quick test_ablation_structure;
      Alcotest.test_case "non-blocking dmiss helps" `Quick
        test_ablation_nonblocking_helps;
      Alcotest.test_case "fixed slots hurt SMT only" `Quick
        test_ablation_fixed_slots_hurts_smt;
      Alcotest.test_case "ablation render" `Quick test_ablation_render;
      Alcotest.test_case "ext8 schemes structure" `Quick test_ext8_structure;
      Alcotest.test_case "ext8 quick run" `Quick test_ext8_quick_run;
    ] )

(* --- scheme name parser --- *)

let test_name_parser_catalog_names () =
  (* Every catalog name parses to the catalog's own structure. *)
  List.iter
    (fun (e : M.Catalog.entry) ->
      match M.Scheme_name.parse e.name with
      | Error msg -> Alcotest.failf "%s: %s" e.name msg
      | Ok s ->
        Alcotest.(check bool) (e.name ^ " structure") true (M.Scheme.equal s e.scheme))
    M.Catalog.all

let test_name_parser_generalises () =
  let check name expected =
    match M.Scheme_name.parse name with
    | Error msg -> Alcotest.failf "%s: %s" name msg
    | Ok s -> Alcotest.(check string) name expected (M.Scheme.to_string s)
  in
  check "7SSSSSSS" "S(S(S(S(S(S(S(T0,T1),T2),T3),T4),T5),T6),T7)";
  check "2SC7" "Cp(S(T0,T1),T2,T3,T4,T5,T6,T7)";
  check "C6" "Cp(T0,T1,T2,T3,T4,T5)";
  check "4SCCC" "C(C(C(S(T0,T1),T2),T3),T4)";
  check "2C3S" "S(Cp(T0,T1,T2),T3)";
  (* Lowercase and whitespace tolerated. *)
  check " 3scc " "C(C(S(T0,T1),T2),T3)"

let test_name_parser_rejects () =
  let rejected name =
    match M.Scheme_name.parse name with
    | Ok s -> Alcotest.failf "%s unexpectedly parsed to %s" name (M.Scheme.to_string s)
    | Error _ -> ()
  in
  rejected "";
  rejected "XYZ";
  rejected "2S";      (* declares 2 levels, lists one *)
  rejected "1SX";     (* trailing garbage *)
  rejected "2SS3";    (* parallel SMT *)
  rejected "C1";      (* arity < 2 *)
  rejected "0S"

let test_name_parser_valid_schemes () =
  List.iter
    (fun name ->
      let s = M.Scheme_name.parse_exn name in
      Alcotest.(check bool) (name ^ " validates") true (M.Scheme.validate s = Ok ()))
    [ "5SSCCC"; "3C4CC"; "2SC3"; "C8"; "6CCCCCC" ]

let parser_tests =
  [
    Alcotest.test_case "parser: catalog names" `Quick test_name_parser_catalog_names;
    Alcotest.test_case "parser: generalised names" `Quick test_name_parser_generalises;
    Alcotest.test_case "parser: rejects" `Quick test_name_parser_rejects;
    Alcotest.test_case "parser: valid schemes" `Quick test_name_parser_valid_schemes;
  ]

let suite = (fst suite, snd suite @ parser_tests)
