(* Dag, Bug, Cross_copy, List_scheduler, Program. *)
module C = Vliw_compiler
module Isa = Vliw_isa
module Rng = Vliw_util.Rng
module Q = QCheck

let m = Isa.Machine.default

let test_profile ?(name = "test") ?(width = 2.0) ?(ops = 12) ?(mem = 0.2)
    ?(mul = 0.1) ?(blocks = 10) () =
  {
    C.Profile.name;
    ilp = C.Profile.Medium;
    description = "synthetic test profile";
    block_ops_mean = ops;
    dag_parallelism = width;
    frac_mem = mem;
    frac_mul = mul;
    store_frac = 0.3;
    working_set_kb = 64;
    seq_frac = 0.8;
    taken_prob = 0.3;
    static_blocks = blocks;
    hot_frac = 0.8;
    target_ipc_real = 1.0;
    target_ipc_perfect = 1.0;
  }

let gen_dag ?(seed = 1L) ?(width = 2.0) ?(ops = 12) ?(branch = true) ?(first = 0)
    ?live_in () =
  C.Dag.generate (Rng.create seed)
    (test_profile ~width ~ops ())
    ~with_branch:branch ~first_id:first ?live_in ()

(* --- Dag --- *)

let test_dag_valid () =
  for seed = 1 to 20 do
    let dag = gen_dag ~seed:(Int64.of_int seed) () in
    match C.Dag.validate dag with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done

let test_dag_branch_last () =
  let dag = gen_dag () in
  let n = C.Dag.size dag in
  Alcotest.(check bool) "last is branch" true
    (dag.nodes.(n - 1).klass = Isa.Op.Branch);
  let branches =
    Array.fold_left
      (fun acc (node : C.Dag.node) ->
        if node.klass = Isa.Op.Branch then acc + 1 else acc)
      0 dag.nodes
  in
  Alcotest.(check int) "exactly one branch" 1 branches

let test_dag_no_branch () =
  let dag = gen_dag ~branch:false () in
  Alcotest.(check bool) "no branch" true
    (Array.for_all (fun (n : C.Dag.node) -> n.klass <> Isa.Op.Branch) dag.nodes)

let test_dag_first_id () =
  let dag = gen_dag ~first:100 () in
  Alcotest.(check int) "first id" 100 dag.nodes.(0).id;
  Alcotest.(check bool) "valid" true (C.Dag.validate dag = Ok ())

let test_dag_width_effect () =
  (* Wider profiles produce shallower DAGs for the same op count. *)
  let levels width =
    let total = ref 0 in
    for seed = 1 to 10 do
      total := !total + C.Dag.n_levels (gen_dag ~seed:(Int64.of_int seed) ~width ~ops:40 ())
    done;
    !total
  in
  Alcotest.(check bool) "wide is shallower" true (levels 8.0 < levels 1.0)

let test_critical_height () =
  let dag = gen_dag () in
  let h = C.Dag.critical_height dag in
  Array.iteri
    (fun i (node : C.Dag.node) ->
      Alcotest.(check bool) "height >= 1" true (h.(i) >= 1);
      List.iter
        (fun p ->
          Alcotest.(check bool) "pred higher than succ" true (h.(p) > h.(i)))
        node.preds)
    dag.nodes

let prop_dag_valid =
  Q.Test.make ~name:"generated DAGs validate" ~count:100
    Q.(pair small_int (int_range 1 60))
    (fun (seed, ops) ->
      let dag = gen_dag ~seed:(Int64.of_int seed) ~ops () in
      C.Dag.validate dag = Ok ())

(* --- Bug --- *)

let test_bug_in_range () =
  let dag = gen_dag ~ops:40 ~width:6.0 () in
  let a = C.Bug.assign m dag in
  Array.iter (fun c -> Alcotest.(check bool) "cluster range" true (c >= 0 && c < 4)) a

let chain_dag n =
  let nodes =
    Array.init n (fun i ->
        { C.Dag.id = i; klass = Isa.Op.Alu; preds = (if i = 0 then [] else [ i - 1 ]); level = i })
  in
  { C.Dag.nodes; live_in = [] }

let test_bug_concentrates_narrow () =
  (* A pure dependence chain stays on one cluster until the capacity
     budget forces a spill, and then moves monotonically through the
     cluster-opening order (it never bounces back and forth). *)
  let a = C.Bug.assign m (chain_dag 6) in
  Alcotest.(check int) "starts on cluster 0" 0 a.(0);
  Array.iteri
    (fun i c ->
      if i > 0 then
        Alcotest.(check bool) "monotone spill" true (c = a.(i - 1) || c = a.(i - 1) + 1))
    a;
  let distinct = Array.fold_left (fun acc c -> acc lor (1 lsl c)) 0 a in
  Alcotest.(check bool) "at most two clusters for a 6-chain" true
    (distinct = 0b1 || distinct = 0b11)

let test_bug_spreads_wide () =
  let dag = gen_dag ~ops:120 ~width:12.0 () in
  let a = C.Bug.assign m dag in
  let used = Array.fold_left (fun acc c -> acc lor (1 lsl c)) 0 a in
  Alcotest.(check int) "all clusters used" 0b1111 used

let test_bug_respects_perm () =
  let a = C.Bug.assign ~perm:[| 2; 0; 1; 3 |] m (chain_dag 3) in
  Alcotest.(check int) "starts at perm head" 2 a.(0);
  Array.iter
    (fun c -> Alcotest.(check bool) "within first two perm entries" true (c = 2 || c = 0))
    a

let test_bug_perm_arity () =
  Alcotest.check_raises "bad perm"
    (Invalid_argument "Bug.assign: permutation arity mismatch") (fun () ->
      ignore (C.Bug.assign ~perm:[| 0; 1 |] m (gen_dag ())))

let test_cluster_loads () =
  let dag = gen_dag ~ops:30 () in
  let a = C.Bug.assign m dag in
  let loads = C.Bug.cluster_loads m dag a in
  Alcotest.(check int) "loads sum to ops" (C.Dag.size dag)
    (Array.fold_left ( + ) 0 loads)

(* --- Cross_copy --- *)

let test_copy_none_same_cluster () =
  let dag = gen_dag () in
  let a = Array.make (C.Dag.size dag) 0 in
  let dag', a' = C.Cross_copy.insert dag a in
  Alcotest.(check int) "no copies" 0 (C.Cross_copy.copy_count dag');
  Alcotest.(check int) "same size" (C.Dag.size dag) (C.Dag.size dag');
  Alcotest.(check int) "assignment size" (C.Dag.size dag) (Array.length a')

let test_copy_cross_edge () =
  let nodes =
    [|
      { C.Dag.id = 0; klass = Isa.Op.Alu; preds = []; level = 0 };
      { C.Dag.id = 1; klass = Isa.Op.Alu; preds = [ 0 ]; level = 1 };
    |]
  in
  let dag', a' = C.Cross_copy.insert { nodes; live_in = [] } [| 0; 1 |] in
  Alcotest.(check int) "one copy" 1 (C.Cross_copy.copy_count dag');
  Alcotest.(check bool) "valid" true (C.Dag.validate dag' = Ok ());
  (* The copy executes on the source cluster. *)
  let copy_idx = ref (-1) in
  Array.iteri
    (fun i (n : C.Dag.node) -> if n.klass = Isa.Op.Copy then copy_idx := i)
    dag'.nodes;
  Alcotest.(check int) "copy on source cluster" 0 a'.(!copy_idx)

let test_copy_memoized () =
  (* Two consumers on the same destination cluster share one copy. *)
  let nodes =
    [|
      { C.Dag.id = 0; klass = Isa.Op.Alu; preds = []; level = 0 };
      { C.Dag.id = 1; klass = Isa.Op.Alu; preds = [ 0 ]; level = 1 };
      { C.Dag.id = 2; klass = Isa.Op.Alu; preds = [ 0 ]; level = 1 };
    |]
  in
  let dag', _ = C.Cross_copy.insert { nodes; live_in = [] } [| 0; 1; 1 |] in
  Alcotest.(check int) "one shared copy" 1 (C.Cross_copy.copy_count dag')

let test_copy_two_destinations () =
  let nodes =
    [|
      { C.Dag.id = 0; klass = Isa.Op.Alu; preds = []; level = 0 };
      { C.Dag.id = 1; klass = Isa.Op.Alu; preds = [ 0 ]; level = 1 };
      { C.Dag.id = 2; klass = Isa.Op.Alu; preds = [ 0 ]; level = 1 };
    |]
  in
  let dag', _ = C.Cross_copy.insert { nodes; live_in = [] } [| 0; 1; 2 |] in
  Alcotest.(check int) "one copy per destination" 2 (C.Cross_copy.copy_count dag')

let prop_copy_valid =
  Q.Test.make ~name:"copy insertion preserves validity" ~count:100
    Q.(pair small_int (int_range 2 50))
    (fun (seed, ops) ->
      let dag = gen_dag ~seed:(Int64.of_int seed) ~ops () in
      let a = C.Bug.assign m dag in
      let dag', a' = C.Cross_copy.insert dag a in
      C.Dag.validate dag' = Ok () && Array.length a' = C.Dag.size dag')

(* --- List_scheduler --- *)

let schedule_all ?(seed = 1L) ?(ops = 20) ?(width = 3.0) () =
  let dag = gen_dag ~seed ~ops ~width () in
  let a = C.Bug.assign m dag in
  let dag, a = C.Cross_copy.insert dag a in
  (dag, a, C.List_scheduler.schedule m dag ~assignment:a ~base_addr:0 ~instr_bytes:64)

let issue_cycles dag instrs =
  (* Map op id -> (cycle, cluster). *)
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun cycle (instr : Isa.Instr.t) ->
      Array.iteri
        (fun cluster ops ->
          List.iter (fun (op : Isa.Op.t) -> Hashtbl.add tbl op.id (cycle, cluster)) ops)
        instr.ops)
    instrs;
  Alcotest.(check int) "all ops scheduled once" (C.Dag.size dag) (Hashtbl.length tbl);
  tbl

let test_scheduler_complete () =
  let dag, _, instrs = schedule_all () in
  ignore (issue_cycles dag instrs)

let test_scheduler_dependences () =
  let dag, _, instrs = schedule_all ~ops:40 () in
  let tbl = issue_cycles dag instrs in
  Array.iter
    (fun (node : C.Dag.node) ->
      let cycle, _ = Hashtbl.find tbl node.id in
      List.iter
        (fun p ->
          let pcycle, _ = Hashtbl.find tbl p in
          let latency = Isa.Machine.latency m dag.nodes.(p).klass in
          Alcotest.(check bool)
            (Printf.sprintf "op %d at %d after pred %d at %d (+%d)" node.id cycle p
               pcycle latency)
            true
            (cycle >= pcycle + latency))
        node.preds)
    dag.nodes

let test_scheduler_cluster_assignment () =
  let dag, a, instrs = schedule_all () in
  let tbl = issue_cycles dag instrs in
  Array.iteri
    (fun i (node : C.Dag.node) ->
      let _, cluster = Hashtbl.find tbl node.id in
      Alcotest.(check int) "on assigned cluster" a.(i) cluster)
    dag.nodes

let test_scheduler_well_formed () =
  let _, _, instrs = schedule_all ~ops:60 ~width:8.0 () in
  Array.iter
    (fun i -> Alcotest.(check bool) "instr well-formed" true (Isa.Instr.well_formed m i))
    instrs

let test_scheduler_branch_last () =
  let dag, _, instrs = schedule_all () in
  let tbl = issue_cycles dag instrs in
  let branch_cycle = ref (-1) in
  Array.iter
    (fun (node : C.Dag.node) ->
      if node.klass = Isa.Op.Branch then branch_cycle := fst (Hashtbl.find tbl node.id))
    dag.nodes;
  Alcotest.(check int) "branch in last instruction" (Array.length instrs - 1)
    !branch_cycle

let test_scheduler_addresses () =
  let _, _, instrs = schedule_all () in
  Array.iteri
    (fun i (instr : Isa.Instr.t) -> Alcotest.(check int) "addr" (i * 64) instr.addr)
    instrs

let prop_scheduler_sound =
  Q.Test.make ~name:"schedules are complete, ordered, well-formed" ~count:60
    Q.(triple small_int (int_range 2 50) (float_range 1.0 10.0))
    (fun (seed, ops, width) ->
      let dag, a, instrs = schedule_all ~seed:(Int64.of_int seed) ~ops ~width () in
      let tbl = Hashtbl.create 64 in
      Array.iteri
        (fun cycle (instr : Isa.Instr.t) ->
          Array.iter
            (List.iter (fun (op : Isa.Op.t) -> Hashtbl.add tbl op.id cycle))
            instr.ops)
        instrs;
      Hashtbl.length tbl = C.Dag.size dag
      && Array.for_all (Isa.Instr.well_formed m) instrs
      && Array.for_all
           (fun (node : C.Dag.node) ->
             List.for_all
               (fun p ->
                 Hashtbl.find tbl node.id
                 >= Hashtbl.find tbl p + Isa.Machine.latency m dag.nodes.(p).klass)
               node.preds)
           dag.nodes
      && a == a)

(* --- Program --- *)

let test_program_valid_all_benchmarks () =
  List.iter
    (fun profile ->
      let prog = C.Program.generate ~seed:11L m profile in
      match C.Program.validate m prog with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" profile.C.Profile.name msg)
    Vliw_workloads.Benchmarks.all

let test_program_deterministic () =
  let p = test_profile () in
  let a = C.Program.generate ~seed:5L m p in
  let b = C.Program.generate ~seed:5L m p in
  Alcotest.(check int) "same ops" a.total_ops b.total_ops;
  Alcotest.(check int) "same instrs" a.total_instrs b.total_instrs;
  let c = C.Program.generate ~seed:6L m p in
  Alcotest.(check bool) "different seed differs" true
    (a.total_ops <> c.total_ops || a.total_instrs <> c.total_instrs)

let test_program_static_ipc_ordering () =
  let ipc name =
    C.Program.static_ipc
      (C.Program.generate ~seed:3L m (Vliw_workloads.Benchmarks.find_exn name))
  in
  Alcotest.(check bool) "colorspace > g721encode" true
    (ipc "colorspace" > ipc "g721encode");
  Alcotest.(check bool) "g721encode > bzip2" true (ipc "g721encode" > ipc "bzip2")

let test_block_of_addr () =
  let prog = C.Program.generate ~seed:7L m (test_profile ~blocks:5 ()) in
  Array.iteri
    (fun i (b : C.Program.block) ->
      Alcotest.(check (option int)) "first instr" (Some i)
        (C.Program.block_of_addr prog b.instrs.(0).addr))
    prog.blocks;
  let last_block = prog.blocks.(4) in
  let end_addr =
    last_block.instrs.(Array.length last_block.instrs - 1).addr + prog.instr_bytes
  in
  Alcotest.(check (option int)) "past the end" None
    (C.Program.block_of_addr prog end_addr)

(* The compiler oracle: one digest per benchmark profile x scheduling
   mode on the default machine at a fixed seed, over what the simulator
   reads of a program (every instruction's address and per-cluster ops,
   every region's exits and fall-through, the entry), never the
   signature cache. Any change to [Program.generate]'s output moves one. *)
let program_digest (p : C.Program.t) =
  let b = Buffer.create 65536 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  int p.entry;
  int p.instr_bytes;
  Array.iter
    (fun (blk : C.Program.block) ->
      Buffer.add_char b 'B';
      Array.iter
        (fun (ins : Isa.Instr.t) ->
          int ins.addr;
          Array.iter
            (fun ops ->
              Buffer.add_char b '|';
              List.iter
                (fun (op : Isa.Op.t) ->
                  Buffer.add_string b (Isa.Op.class_name op.klass);
                  int op.id)
                ops)
            ins.ops)
        blk.instrs;
      Buffer.add_char b 'X';
      Array.iter
        (fun (i, t) ->
          int i;
          int t)
        blk.exits;
      int blk.fall_through)
    p.blocks;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

let compiled_digests =
  [
    ("mcf", "615bd4b33278665b", "559022beb9366be3");
    ("bzip2", "f5f49d57dca16d3a", "fa18af05c9bb6226");
    ("blowfish", "6b993a54bb407c84", "218f285c2575722c");
    ("gsmencode", "62c001d7d53e5986", "8846e29cd308d171");
    ("g721encode", "5497497adc7f5381", "4ac9686ba8017f5a");
    ("g721decode", "4b0b756e77e87f4c", "b26fa90906893b51");
    ("cjpeg", "bbc3da825f7916af", "9ee3c003ae782fef");
    ("djpeg", "3a3211f4d6dfa418", "7a4364de5a5e1d37");
    ("imgpipe", "c41f8d2eaddf8730", "49c6516ca77f1781");
    ("x264", "a43950170995d365", "fafeadcc4d512482");
    ("idct", "1621fb90aa6854f3", "6b69cbc7d99b077c");
    ("colorspace", "21b28326be77b31f", "5d64b04e574d9a5e");
  ]

let test_program_oracle () =
  List.iter
    (fun (name, block, trace) ->
      let profile = Vliw_workloads.Benchmarks.find_exn name in
      List.iter
        (fun (mode, label, want) ->
          let got =
            program_digest (C.Program.generate ~seed:0x5EEDL ~mode m profile)
          in
          Alcotest.(check string) (name ^ " " ^ label) want got)
        [ (`Block, "block", block); (`Trace 4, "trace 4", trace) ])
    compiled_digests

let suite =
  ( "compiler",
    [
      Alcotest.test_case "dag validates" `Quick test_dag_valid;
      Alcotest.test_case "dag branch last" `Quick test_dag_branch_last;
      Alcotest.test_case "dag without branch" `Quick test_dag_no_branch;
      Alcotest.test_case "dag first id" `Quick test_dag_first_id;
      Alcotest.test_case "dag width controls depth" `Quick test_dag_width_effect;
      Alcotest.test_case "critical height" `Quick test_critical_height;
      Tgen.to_alcotest prop_dag_valid;
      Alcotest.test_case "bug in range" `Quick test_bug_in_range;
      Alcotest.test_case "bug concentrates chains" `Quick test_bug_concentrates_narrow;
      Alcotest.test_case "bug spreads wide code" `Quick test_bug_spreads_wide;
      Alcotest.test_case "bug respects perm" `Quick test_bug_respects_perm;
      Alcotest.test_case "bug perm arity" `Quick test_bug_perm_arity;
      Alcotest.test_case "cluster loads" `Quick test_cluster_loads;
      Alcotest.test_case "no copies within cluster" `Quick test_copy_none_same_cluster;
      Alcotest.test_case "copy on cross edge" `Quick test_copy_cross_edge;
      Alcotest.test_case "copies memoized" `Quick test_copy_memoized;
      Alcotest.test_case "copy per destination" `Quick test_copy_two_destinations;
      Tgen.to_alcotest prop_copy_valid;
      Alcotest.test_case "scheduler complete" `Quick test_scheduler_complete;
      Alcotest.test_case "scheduler dependences" `Quick test_scheduler_dependences;
      Alcotest.test_case "scheduler cluster assignment" `Quick
        test_scheduler_cluster_assignment;
      Alcotest.test_case "scheduler well-formed" `Quick test_scheduler_well_formed;
      Alcotest.test_case "scheduler branch last" `Quick test_scheduler_branch_last;
      Alcotest.test_case "scheduler addresses" `Quick test_scheduler_addresses;
      Tgen.to_alcotest prop_scheduler_sound;
      Alcotest.test_case "programs validate (all benchmarks)" `Quick
        test_program_valid_all_benchmarks;
      Alcotest.test_case "program deterministic" `Quick test_program_deterministic;
      Alcotest.test_case "static IPC ordering" `Quick test_program_static_ipc_ordering;
      Alcotest.test_case "block_of_addr" `Quick test_block_of_addr;
      Alcotest.test_case "compiled programs pinned" `Quick test_program_oracle;
    ] )

(* --- live-in / live-out chaining and region concatenation --- *)

let test_dag_live_in () =
  let dag = gen_dag ~first:100 ~live_in:[ 40; 40 + 1 ] () in
  Alcotest.(check bool) "validates with external preds" true
    (C.Dag.validate dag = Ok ());
  (* External predecessors, if consumed, reference declared live-ins. *)
  Array.iter
    (fun (node : C.Dag.node) ->
      List.iter
        (fun p ->
          if p < 100 then
            Alcotest.(check bool) "declared" true (List.mem p [ 40; 41 ]))
        node.preds)
    dag.nodes

let test_dag_undeclared_external_pred () =
  let nodes = [| { C.Dag.id = 10; klass = Isa.Op.Alu; preds = [ 3 ]; level = 0 } |] in
  Alcotest.(check bool) "rejected" true
    ({ C.Dag.nodes; live_in = [] } |> C.Dag.validate |> Result.is_error);
  Alcotest.(check bool) "accepted when declared" true
    ({ C.Dag.nodes; live_in = [ 3 ] } |> C.Dag.validate = Ok ())

let test_dag_live_out () =
  let dag = gen_dag ~ops:20 () in
  Alcotest.(check bool) "has live-out candidates" true (C.Dag.live_out dag > 0)

let test_dag_concat () =
  let a = gen_dag ~first:0 ~ops:8 () in
  let b = gen_dag ~seed:2L ~first:(C.Dag.size a) ~ops:8 ~live_in:[ 2 ] () in
  let merged = C.Dag.concat [ a; b ] in
  Alcotest.(check int) "sizes add" (C.Dag.size a + C.Dag.size b) (C.Dag.size merged);
  (* The live-in edge from b into a became internal. *)
  Alcotest.(check bool) "no residual live-in" true (merged.live_in = [])

let extra_suite =
  [
    Alcotest.test_case "dag live-in" `Quick test_dag_live_in;
    Alcotest.test_case "dag undeclared external pred" `Quick
      test_dag_undeclared_external_pred;
    Alcotest.test_case "dag live-out" `Quick test_dag_live_out;
    Alcotest.test_case "dag concat" `Quick test_dag_concat;
  ]

let suite = (fst suite, snd suite @ extra_suite)
