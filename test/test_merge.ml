(* Packet, Conflict, Routing, Scheme, Catalog. *)
module Isa = Vliw_isa
module M = Vliw_merge
module Q = QCheck

let m = Isa.Machine.default

let ops klasses = List.mapi (fun i k -> Isa.Op.make k i) klasses

let instr_of klass_lists =
  Isa.Instr.of_cluster_ops ~addr:0 (Array.of_list (List.map ops klass_lists))

let packet ?(thread = 0) klass_lists =
  M.Packet.of_instr m ~thread (instr_of klass_lists)

(* --- Packet --- *)

let test_packet_of_instr () =
  let p = packet ~thread:2 [ [ Isa.Op.Alu ]; []; [ Isa.Op.Load ]; [] ] in
  Alcotest.(check int) "mask" 0b0101 p.mask;
  Alcotest.(check int) "threads" 0b100 p.threads;
  Alcotest.(check (list int)) "thread list" [ 2 ] (M.Packet.thread_list p);
  Alcotest.(check int) "ops" 2 (M.Packet.op_count p);
  Alcotest.(check (list int)) "cluster threads" [ 2 ] (M.Packet.cluster_threads p 0);
  Alcotest.(check (list int)) "empty cluster" [] (M.Packet.cluster_threads p 1)

let test_packet_union () =
  let a = packet ~thread:0 [ [ Isa.Op.Alu ]; []; []; [] ] in
  let b = packet ~thread:1 [ []; [ Isa.Op.Mul ]; []; [] ] in
  let u = M.Packet.union a b in
  Alcotest.(check int) "mask" 0b0011 u.mask;
  Alcotest.(check (list int)) "threads" [ 0; 1 ] (M.Packet.thread_list u);
  Alcotest.(check int) "ops" 2 (M.Packet.op_count u)

let test_packet_empty () =
  let p = M.Packet.of_instr m ~thread:0 (Isa.Instr.make ~clusters:4 ~addr:0) in
  Alcotest.(check bool) "empty" true (M.Packet.is_empty p);
  Alcotest.(check int) "mask" 0 p.mask

(* --- Conflict --- *)

let test_csmt_conflict () =
  let a = packet ~thread:0 [ [ Isa.Op.Alu ]; []; []; [] ] in
  let b = packet ~thread:1 [ []; [ Isa.Op.Alu ]; []; [] ] in
  let c = packet ~thread:2 [ [ Isa.Op.Alu ]; []; []; [] ] in
  Alcotest.(check bool) "disjoint ok" true (M.Conflict.csmt_compatible a b);
  Alcotest.(check bool) "overlap fails" false (M.Conflict.csmt_compatible a c)

let test_smt_weaker_than_csmt_example () =
  (* Two threads sharing cluster 0 with fitting ops: SMT yes, CSMT no. *)
  let a = packet ~thread:0 [ [ Isa.Op.Alu; Isa.Op.Load ]; []; []; [] ] in
  let b = packet ~thread:1 [ [ Isa.Op.Alu; Isa.Op.Mul ]; []; []; [] ] in
  Alcotest.(check bool) "smt ok" true (M.Conflict.smt_compatible m a b);
  Alcotest.(check bool) "csmt no" false (M.Conflict.csmt_compatible a b)

let test_smt_resource_conflicts () =
  let mem a b = (packet ~thread:0 [ [ a ]; []; []; [] ], packet ~thread:1 [ [ b ]; []; []; [] ]) in
  let a, b = mem Isa.Op.Load Isa.Op.Store in
  Alcotest.(check bool) "two mem ops collide" false (M.Conflict.smt_compatible m a b);
  let a = packet ~thread:0 [ [ Isa.Op.Mul; Isa.Op.Mul ]; []; []; [] ] in
  let b = packet ~thread:1 [ [ Isa.Op.Mul ]; []; []; [] ] in
  Alcotest.(check bool) "three muls collide" false (M.Conflict.smt_compatible m a b);
  let a = packet ~thread:0 [ [ Isa.Op.Alu; Isa.Op.Alu; Isa.Op.Alu ]; []; []; [] ] in
  let b = packet ~thread:1 [ [ Isa.Op.Alu; Isa.Op.Alu ]; []; []; [] ] in
  Alcotest.(check bool) "width overflow" false (M.Conflict.smt_compatible m a b)

let prop_csmt_implies_smt =
  Q.Test.make ~name:"cluster-level compatibility implies op-level" ~count:300
    Q.(pair (Tgen.instr_arb ()) (Tgen.instr_arb ()))
    (fun (i1, i2) ->
      let a = M.Packet.of_instr m ~thread:0 i1 in
      let b = M.Packet.of_instr m ~thread:1 i2 in
      Q.assume (M.Conflict.csmt_compatible a b);
      M.Conflict.smt_compatible m a b)

let prop_conflict_symmetric =
  Q.Test.make ~name:"conflict checks are symmetric" ~count:300
    Q.(pair (Tgen.instr_arb ()) (Tgen.instr_arb ()))
    (fun (i1, i2) ->
      let a = M.Packet.of_instr m ~thread:0 i1 in
      let b = M.Packet.of_instr m ~thread:1 i2 in
      M.Conflict.csmt_compatible a b = M.Conflict.csmt_compatible b a
      && M.Conflict.smt_compatible m a b = M.Conflict.smt_compatible m b a)

(* --- Routing --- *)

let test_route_simple () =
  let p = packet [ [ Isa.Op.Load; Isa.Op.Alu ]; [ Isa.Op.Mul ]; []; [] ] in
  match M.Routing.route m p with
  | None -> Alcotest.fail "routing failed"
  | Some routed ->
    Alcotest.(check int) "occupancy" 3 (M.Routing.occupancy routed);
    (* The load must sit in a memory-capable slot. *)
    let found = ref false in
    Array.iteri
      (fun c slots ->
        Array.iteri
          (fun s slot ->
            match slot with
            | Some (e : M.Packet.entry) when e.op.klass = Isa.Op.Load ->
              found := true;
              Alcotest.(check bool) "load slot legal" true
                (Isa.Machine.slot_allows m ~slot:s Isa.Op.Load);
              Alcotest.(check int) "load on cluster 0" 0 c
            | _ -> ())
          slots)
      routed;
    Alcotest.(check bool) "load found" true !found

let test_route_fails_overflow () =
  let p = packet [ [ Isa.Op.Load; Isa.Op.Store ]; []; []; [] ] in
  Alcotest.(check bool) "two mem ops cannot route" true (M.Routing.route m p = None)

let prop_smt_compatible_routes =
  Q.Test.make ~name:"compatible merges always route" ~count:300
    Q.(pair (Tgen.instr_arb ()) (Tgen.instr_arb ()))
    (fun (i1, i2) ->
      let a = M.Packet.of_instr m ~thread:0 i1 in
      let b = M.Packet.of_instr m ~thread:1 i2 in
      Q.assume (M.Conflict.smt_compatible m a b);
      match M.Routing.route m (M.Packet.union a b) with
      | None -> false
      | Some routed ->
        M.Routing.occupancy routed = M.Packet.op_count a + M.Packet.op_count b)

let prop_routed_slots_legal =
  Q.Test.make ~name:"routed slots respect capabilities" ~count:300
    (Tgen.instr_arb ()) (fun i ->
      let p = M.Packet.of_instr m ~thread:0 i in
      match M.Routing.route m p with
      | None -> false
      | Some routed ->
        let ok = ref true in
        Array.iter
          (fun slots ->
            Array.iteri
              (fun s slot ->
                match slot with
                | Some (e : M.Packet.entry) ->
                  if not (Isa.Machine.slot_allows m ~slot:s e.op.klass) then ok := false
                | None -> ())
              slots)
          routed;
        !ok)

(* --- Scheme --- *)

let test_scheme_builders () =
  let s = M.Scheme.smt_cascade 4 in
  Alcotest.(check int) "threads" 4 (M.Scheme.n_threads s);
  Alcotest.(check int) "levels" 3 (M.Scheme.levels s);
  Alcotest.(check int) "smt blocks" 3 (M.Scheme.block_count M.Scheme_kind.Smt s);
  Alcotest.(check int) "csmt blocks" 0 (M.Scheme.block_count M.Scheme_kind.Csmt s);
  let c = M.Scheme.csmt_par 4 in
  Alcotest.(check int) "parallel levels" 1 (M.Scheme.levels c);
  Alcotest.(check int) "parallel block count" 1
    (M.Scheme.block_count M.Scheme_kind.Csmt c)

let test_scheme_validate () =
  let t = M.Scheme.thread in
  Alcotest.(check bool) "good" true (M.Scheme.validate (M.Scheme.smt (t 0) (t 1)) = Ok ());
  Alcotest.(check bool) "duplicate thread" false
    (M.Scheme.validate (M.Scheme.smt (t 0) (t 0)) = Ok ());
  Alcotest.(check bool) "gap in ids" false
    (M.Scheme.validate (M.Scheme.smt (t 0) (t 2)) = Ok ());
  let bad_parallel =
    M.Scheme.Merge
      { kind = M.Scheme_kind.Smt; impl = M.Scheme.Parallel; inputs = [ t 0; t 1 ] }
  in
  Alcotest.(check bool) "parallel SMT rejected" false
    (M.Scheme.validate bad_parallel = Ok ())

let test_scheme_to_string () =
  let e = M.Catalog.find_exn "2SC3" in
  Alcotest.(check string) "2SC3" "Cp(S(T0,T1),T2,T3)" (M.Scheme.to_string e.scheme);
  let e = M.Catalog.find_exn "3SSS" in
  Alcotest.(check string) "3SSS" "S(S(S(T0,T1),T2),T3)" (M.Scheme.to_string e.scheme)

let test_scheme_equal () =
  let a = (M.Catalog.find_exn "3SCC").scheme in
  let b = (M.Catalog.find_exn "3SCC").scheme in
  let c = (M.Catalog.find_exn "3CSC").scheme in
  Alcotest.(check bool) "equal" true (M.Scheme.equal a b);
  Alcotest.(check bool) "not equal" false (M.Scheme.equal a c)

(* --- Scheme.canonical --- *)

let prop_canonical_preserves =
  Q.Test.make ~name:"canonical: idempotent, keeps leaves and validity"
    ~count:500
    Q.(pair (int_range 2 8) int)
    (fun (n, seed) ->
      let s = Q.Gen.generate1 ~rand:(Random.State.make [| seed |]) (Tgen.scheme_gen n) in
      let c = M.Scheme.canonical s in
      M.Scheme.equal (M.Scheme.canonical c) c
      && M.Scheme.leaf_ids c = M.Scheme.leaf_ids s
      && M.Scheme.n_threads c = M.Scheme.n_threads s
      && M.Scheme.validate c = M.Scheme.validate s)

(* The flattening classes the sweep shares simulations across, and the
   near misses it must not merge. *)
let test_canonical_classes () =
  let scheme name =
    match M.Catalog.find name with
    | Some e -> e.scheme
    | None ->
      (List.find
         (fun (e : Vliw_experiments.Ext8.entry) -> e.name = name)
         Vliw_experiments.Ext8.schemes)
        .scheme
  in
  let same a b = M.Scheme.equal (M.Scheme.canonical (scheme a)) (M.Scheme.canonical (scheme b)) in
  List.iter
    (fun (a, b) -> Alcotest.(check bool) (a ^ " = " ^ b) true (same a b))
    [ ("C4", "3CCC"); ("2SC3", "3SCC"); ("2C3S", "3CCS"); ("C8", "CSMT8") ];
  List.iter
    (fun (a, b) -> Alcotest.(check bool) (a ^ " <> " ^ b) false (same a b))
    [ ("2SC3", "3CSC"); ("2CC", "C4"); ("3CSS", "3SCS"); ("3SSS", "2SS") ];
  Alcotest.(check string) "2SC3 canonical" "C(S(T0,T1),T2,T3)"
    (M.Scheme.to_string (M.Scheme.canonical (scheme "2SC3")))

(* The generator reaches both CSMT implementations on either side of a
   flattened same-kind edge, and SMT spines too. *)
let test_generator_spines () =
  let rand = Random.State.make [| 7 |] in
  let seen = Hashtbl.create 8 in
  let rec edges = function
    | M.Scheme.Thread _ -> ()
    | M.Scheme.Merge { kind; impl; inputs } ->
      (match inputs with
      | M.Scheme.Merge { kind = k; impl = i; _ } :: _ when k = kind ->
        Hashtbl.replace seen (kind, impl, i) ()
      | _ -> ());
      List.iter edges inputs
  in
  for _ = 1 to 300 do
    edges (Q.Gen.generate1 ~rand (Tgen.scheme_gen 6))
  done;
  let open M.Scheme in
  List.iter
    (fun ((kind, parent, child) as key) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s spine %s over %s"
           (if kind = M.Scheme_kind.Smt then "SMT" else "CSMT")
           (if parent = Serial then "serial" else "parallel")
           (if child = Serial then "serial" else "parallel"))
        true (Hashtbl.mem seen key))
    [
      (M.Scheme_kind.Smt, Serial, Serial);
      (M.Scheme_kind.Csmt, Serial, Serial);
      (M.Scheme_kind.Csmt, Serial, Parallel);
      (M.Scheme_kind.Csmt, Parallel, Serial);
      (M.Scheme_kind.Csmt, Parallel, Parallel);
    ]

(* --- Catalog --- *)

let test_catalog_complete () =
  Alcotest.(check int) "17 entries" 17 (List.length M.Catalog.all);
  Alcotest.(check int) "15 four-thread schemes" 15 (List.length M.Catalog.four_thread);
  List.iter
    (fun (e : M.Catalog.entry) ->
      match M.Scheme.validate e.scheme with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" e.name msg)
    M.Catalog.all

let test_catalog_names_match_structure () =
  (* Leading digit = number of levels; letters = kinds per level for the
     cascades. *)
  List.iter
    (fun (name, smt_blocks, csmt_blocks, levels) ->
      let e = M.Catalog.find_exn name in
      Alcotest.(check int) (name ^ " smt blocks") smt_blocks
        (M.Scheme.block_count M.Scheme_kind.Smt e.scheme);
      Alcotest.(check int) (name ^ " csmt blocks") csmt_blocks
        (M.Scheme.block_count M.Scheme_kind.Csmt e.scheme);
      Alcotest.(check int) (name ^ " levels") levels (M.Scheme.levels e.scheme))
    [
      ("3SSS", 3, 0, 3);
      ("3CCC", 0, 3, 3);
      ("3SCC", 1, 2, 3);
      ("2SC3", 1, 1, 2);
      ("2C3S", 1, 1, 2);
      ("C4", 0, 1, 1);
      ("2CC", 0, 3, 2);
      ("2SS", 3, 0, 2);
      ("2CS", 1, 2, 2);
      ("2SC", 2, 1, 2);
      ("1S", 1, 0, 1);
    ]

let test_catalog_find () =
  Alcotest.(check bool) "case-insensitive" true (M.Catalog.find "3sss" <> None);
  Alcotest.(check bool) "unknown" true (M.Catalog.find "9XYZ" = None);
  Alcotest.check_raises "find_exn"
    (Invalid_argument "Catalog.find_exn: unknown scheme \"9XYZ\"") (fun () ->
      ignore (M.Catalog.find_exn "9XYZ"))

let test_perf_groups_cover () =
  let grouped = List.concat_map snd M.Catalog.perf_groups in
  List.iter
    (fun (e : M.Catalog.entry) ->
      Alcotest.(check bool) (e.name ^ " in a group") true (List.mem e.name grouped))
    M.Catalog.all

let suite =
  ( "merge-core",
    [
      Alcotest.test_case "packet of_instr" `Quick test_packet_of_instr;
      Alcotest.test_case "packet union" `Quick test_packet_union;
      Alcotest.test_case "packet empty" `Quick test_packet_empty;
      Alcotest.test_case "csmt conflict" `Quick test_csmt_conflict;
      Alcotest.test_case "smt weaker than csmt" `Quick test_smt_weaker_than_csmt_example;
      Alcotest.test_case "smt resource conflicts" `Quick test_smt_resource_conflicts;
      Tgen.to_alcotest prop_csmt_implies_smt;
      Tgen.to_alcotest prop_conflict_symmetric;
      Alcotest.test_case "route simple" `Quick test_route_simple;
      Alcotest.test_case "route overflow fails" `Quick test_route_fails_overflow;
      Tgen.to_alcotest prop_smt_compatible_routes;
      Tgen.to_alcotest prop_routed_slots_legal;
      Alcotest.test_case "scheme builders" `Quick test_scheme_builders;
      Alcotest.test_case "scheme validate" `Quick test_scheme_validate;
      Alcotest.test_case "scheme to_string" `Quick test_scheme_to_string;
      Alcotest.test_case "scheme equal" `Quick test_scheme_equal;
      Tgen.to_alcotest prop_canonical_preserves;
      Alcotest.test_case "canonical classes" `Quick test_canonical_classes;
      Alcotest.test_case "generator emits same-kind spines" `Quick
        test_generator_spines;
      Alcotest.test_case "catalog complete" `Quick test_catalog_complete;
      Alcotest.test_case "catalog structure" `Quick test_catalog_names_match_structure;
      Alcotest.test_case "catalog find" `Quick test_catalog_find;
      Alcotest.test_case "perf groups cover catalog" `Quick test_perf_groups_cover;
    ] )

(* --- pretty printers (smoke) --- *)

let test_pp_smoke () =
  let p = packet ~thread:1 [ [ Isa.Op.Load; Isa.Op.Alu ]; []; [ Isa.Op.Mul ]; [] ] in
  let text = Format.asprintf "%a" (M.Packet.pp m) p in
  Alcotest.(check bool) "packet pp mentions thread" true
    (String.length text > 0 && String.contains text '1');
  (match M.Routing.route m p with
  | None -> Alcotest.fail "route"
  | Some routed ->
    let rendered = Format.asprintf "%a" (M.Routing.pp m) routed in
    Alcotest.(check bool) "routing pp shows op+thread" true
      (String.length rendered > 0));
  let mtext = Format.asprintf "%a" Isa.Machine.pp m in
  Alcotest.(check bool) "machine pp" true (String.length mtext > 10)

let pp_suite = [ Alcotest.test_case "pretty printers" `Quick test_pp_smoke ]

let suite = (fst suite, snd suite @ pp_suite)
