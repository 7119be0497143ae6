(* Trace-scheduling mode, IMT/BMT policies, baselines, sensitivity,
   replicates helpers, CSV writer, and the trace inspector. *)
module C = Vliw_compiler
module Isa = Vliw_isa
module Sim = Vliw_sim
module E = Vliw_experiments

let m = Isa.Machine.default

let profile = Test_compiler.test_profile

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- trace-scheduling mode --- *)

let test_trace_program_valid () =
  List.iter
    (fun len ->
      let prog =
        C.Program.generate ~seed:3L ~mode:(`Trace len) m (profile ~blocks:12 ())
      in
      match C.Program.validate m prog with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "trace %d: %s" len msg)
    [ 1; 2; 4 ]

let test_trace_region_exits () =
  let prog = C.Program.generate ~seed:3L ~mode:(`Trace 4) m (profile ~blocks:12 ()) in
  Alcotest.(check int) "12/4 regions" 3 (Array.length prog.blocks);
  Array.iter
    (fun (b : C.Program.block) ->
      Alcotest.(check int) "4 exits per region" 4 (Array.length b.exits))
    prog.blocks

let test_block_mode_single_exit () =
  let prog = C.Program.generate ~seed:3L m (profile ~blocks:6 ()) in
  Array.iter
    (fun (b : C.Program.block) ->
      Alcotest.(check int) "one exit" 1 (Array.length b.exits);
      Alcotest.(check int) "exit last" (Array.length b.instrs - 1) (fst b.exits.(0)))
    prog.blocks

let test_trace_denser_than_block () =
  (* Trace scheduling extracts more static ILP for serial code. *)
  let p = profile ~width:1.2 ~ops:10 ~blocks:12 () in
  let block = C.Program.generate ~seed:9L ~mode:`Block m p in
  let trace = C.Program.generate ~seed:9L ~mode:(`Trace 4) m p in
  Alcotest.(check bool)
    (Printf.sprintf "trace %.2f > block %.2f" (C.Program.static_ipc trace)
       (C.Program.static_ipc block))
    true
    (C.Program.static_ipc trace > C.Program.static_ipc block)

let test_trace_simulates () =
  let config = Sim.Config.make (Vliw_merge.Catalog.find_exn "2SC3").scheme in
  let metrics =
    Sim.Multitask.run config ~seed:5L ~schedule:Sim.Multitask.quick_schedule
      ~mode:(`Trace 4)
      (Vliw_workloads.Mixes.find_exn "MMMM").members
  in
  Alcotest.(check bool) "progress" true (metrics.ops > 0)

let test_exit_target () =
  let prog = C.Program.generate ~seed:3L ~mode:(`Trace 2) m (profile ~blocks:8 ()) in
  let b = prog.blocks.(0) in
  Array.iter
    (fun (idx, target) ->
      Alcotest.(check (option int)) "lookup" (Some target)
        (C.Program.exit_target b idx))
    b.exits;
  Alcotest.(check (option int)) "non-exit" None (C.Program.exit_target b (-1))

(* --- issue policies --- *)

let run_policy policy =
  let config =
    Sim.Config.make ~policy (Vliw_merge.Catalog.find_exn "3SSS").scheme
  in
  Sim.Multitask.run config ~seed:5L ~schedule:Sim.Multitask.quick_schedule
    (Vliw_workloads.Mixes.find_exn "MMHH").members

let test_imt_one_per_cycle () =
  let metrics = run_policy Sim.Policy.Imt in
  (* IMT issues at most one thread per cycle. *)
  Array.iteri
    (fun k cycles ->
      if k > 1 then Alcotest.(check int) "never more than one" 0 cycles)
    metrics.issue_hist;
  Alcotest.(check bool) "still makes progress" true (metrics.ops > 0)

let test_bmt_one_per_cycle () =
  let metrics = run_policy Sim.Policy.default_bmt in
  Array.iteri
    (fun k cycles ->
      if k > 1 then Alcotest.(check int) "never more than one" 0 cycles)
    metrics.issue_hist

let test_policy_ladder () =
  let ipc p = Sim.Metrics.ipc (run_policy p) in
  let merged = ipc Sim.Policy.Merged in
  let imt = ipc Sim.Policy.Imt in
  Alcotest.(check bool)
    (Printf.sprintf "merged %.2f > imt %.2f" merged imt)
    true (merged > imt)

let test_bmt_switch_penalty_costs () =
  let ipc p = Sim.Metrics.ipc (run_policy p) in
  let free = ipc (Sim.Policy.Bmt { switch_penalty = 0 }) in
  let costly = ipc (Sim.Policy.Bmt { switch_penalty = 8 }) in
  Alcotest.(check bool)
    (Printf.sprintf "penalty hurts (%.2f >= %.2f)" free costly)
    true (free >= costly)

let test_policy_strings () =
  Alcotest.(check string) "imt" "imt" (Sim.Policy.to_string Sim.Policy.Imt);
  Alcotest.(check bool) "parse imt" true (Sim.Policy.of_string "imt" = Ok Sim.Policy.Imt);
  Alcotest.(check bool) "parse junk" true
    (match Sim.Policy.of_string "junk" with Error _ -> true | Ok _ -> false)

(* Golden IMT/BMT results: IMT and BMT share the merged policy's step
   loop (fetch pass, policy decision on the live mask, retire, then
   observation), so these values pin that the loop reproduces them
   exactly, with and without the observation pass. The waste
   decomposition pins the exact-sum attribution of the same runs. *)
let test_policy_golden () =
  let run ?counters policy =
    let config =
      Sim.Config.make ~policy (Vliw_merge.Catalog.find_exn "2SC3").scheme
    in
    Sim.Multitask.run config ~seed:5L ~schedule:Sim.Multitask.quick_schedule
      ?counters (Vliw_workloads.Mixes.find_exn "MMHH").members
  in
  List.iter
    (fun (label, policy, (cycles, ops, instrs, hist), waste) ->
      let check what (metrics : Sim.Metrics.t) =
        let label = label ^ what in
        Alcotest.(check int) (label ^ ": cycles") cycles metrics.cycles;
        Alcotest.(check int) (label ^ ": ops") ops metrics.ops;
        Alcotest.(check int) (label ^ ": instrs") instrs metrics.instrs;
        Alcotest.(check (array int)) (label ^ ": issue_hist") hist
          metrics.issue_hist
      in
      check "" (run policy);
      let counters = Vliw_telemetry.Counters.create () in
      check " +counters" (run ~counters policy);
      let snap = Vliw_telemetry.Counters.snapshot counters in
      List.iter
        (fun (name, v) ->
          Alcotest.(check int) (label ^ ": " ^ name) v
            (Vliw_telemetry.Counters.count snap name))
        waste)
    [
      ( "IMT",
        Sim.Policy.Imt,
        (60000, 243255, 56905, [| 3095; 56905; 0; 0; 0 |]),
        [
          ("waste.horizontal.ilp", 240296);
          ("waste.horizontal.merge_priority", 426929);
          ("waste.vertical.fetch_stall", 37472);
          ("waste.vertical.mem_stall", 12048);
          ("events.merge_reject.priority", 115271);
        ] );
      ( "BMT(4)",
        Sim.Policy.Bmt { switch_penalty = 4 },
        (60000, 203184, 45655, [| 14345; 45655; 0; 0; 0 |]),
        [
          ("waste.horizontal.ilp", 150493);
          ("waste.horizontal.merge_priority", 376803);
          ("waste.vertical.bmt_switch", 217856);
          ("waste.vertical.fetch_stall", 10544);
          ("waste.vertical.mem_stall", 1120);
          ("core.switch_bubble_cycles", 13616);
          ("sim.switch_stall_cycles", 13616);
          ("events.bmt_switch", 3404);
        ] );
    ]

(* --- baselines experiment --- *)

let test_baselines_ladder () =
  let rows = E.Baselines.run ~scale:E.Common.Quick ~mixes:[ "LLMM"; "MMHH" ] () in
  Alcotest.(check int) "6 techniques" 6 (List.length rows);
  let get label = List.find (fun (r : E.Baselines.row) -> r.label = label) rows in
  let st = get "single-thread" and imt = get "IMT (4 ctx)" in
  let smt = get "SMT 3SSS" in
  Alcotest.(check bool) "IMT beats ST" true (imt.avg_ipc > st.avg_ipc);
  Alcotest.(check bool) "SMT beats IMT" true (smt.avg_ipc > imt.avg_ipc);
  Alcotest.(check bool) "IMT reduces vertical waste" true
    (imt.avg_vertical_waste < st.avg_vertical_waste)

(* --- sensitivity --- *)

let test_sensitivity_miss_penalty () =
  let sweep = E.Sensitivity.miss_penalty ~scale:E.Common.Quick () in
  Alcotest.(check int) "4 points" 4 (List.length sweep.points);
  (* Higher miss penalty cannot help. *)
  let first = List.hd sweep.points and last = List.nth sweep.points 3 in
  Alcotest.(check bool)
    (Printf.sprintf "10cyc %.2f >= 80cyc %.2f" first.smt last.smt)
    true
    (first.smt >= last.smt)

let test_sensitivity_render () =
  let out = E.Sensitivity.render (E.Sensitivity.branch_penalty ~scale:E.Common.Quick ()) in
  Alcotest.(check bool) "has header" true (contains ~needle:"2SC3 vs CSMT" out)

(* --- CSV --- *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Vliw_util.Csv.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Vliw_util.Csv.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Vliw_util.Csv.escape_field "a\"b")

let test_csv_to_string () =
  let out =
    Vliw_util.Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "a,b" ] ]
  in
  Alcotest.(check string) "full" "x,y\n1,2\n3,\"a,b\"\n" out

let test_csv_write_read () =
  let path = Filename.temp_file "vliw" ".csv" in
  Vliw_util.Csv.write ~path ~header:[ "a" ] [ [ "1" ] ];
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "a" line

let test_grid_csv () =
  let grid =
    E.Sweep.run ~scale:E.Common.Quick ~scheme_names:[ "1S" ]
      ~mix_names:[ "LLLL" ] ()
  in
  let header, rows = E.Common.grid_csv grid in
  Alcotest.(check (list string)) "header" [ "mix"; "1S" ] header;
  Alcotest.(check int) "one row" 1 (List.length rows)

(* --- trace inspector --- *)

let test_trace_inspector () =
  let config = Sim.Config.make (Vliw_merge.Catalog.find_exn "2SC3").scheme in
  let options =
    { Sim.Trace.default_options with cycles = 8; warmup = 50 }
  in
  let out =
    Sim.Trace.run config ~options (Vliw_workloads.Mixes.find_exn "MMMM").members
  in
  Alcotest.(check bool) "names shown" true (contains ~needle:"g721encode" out);
  Alcotest.(check bool) "eight rows" true (contains ~needle:"    57" out)

let test_trace_inspector_rejects_overflow () =
  let config = Sim.Config.make (Vliw_merge.Catalog.find_exn "1S").scheme in
  Alcotest.check_raises "too many threads"
    (Invalid_argument "Trace.run: more threads than hardware contexts") (fun () ->
      ignore
        (Sim.Trace.run config (Vliw_workloads.Mixes.find_exn "MMMM").members))

(* --- compiler comparison --- *)

let test_compiler_cmp () =
  let d = E.Compiler_cmp.run ~scale:E.Common.Quick ~trace_len:3 () in
  Alcotest.(check int) "trace len" 3 d.trace_len;
  Alcotest.(check int) "12 benches" 12 (List.length d.benches);
  Alcotest.(check int) "3 ladder rows" 3 (List.length d.ladder);
  (* Trace scheduling helps single-thread IPC on average. *)
  let gains =
    List.map (fun (r : E.Compiler_cmp.bench_row) -> r.trace_ipc -. r.block_ipc) d.benches
  in
  Alcotest.(check bool) "average gain positive" true
    (Vliw_util.Stats.mean (Array.of_list gains) > 0.0);
  Alcotest.(check bool) "render" true
    (contains ~needle:"trace scheduling" (E.Compiler_cmp.render d))

let suite =
  ( "features",
    [
      Alcotest.test_case "trace programs validate" `Quick test_trace_program_valid;
      Alcotest.test_case "trace region exits" `Quick test_trace_region_exits;
      Alcotest.test_case "block mode single exit" `Quick test_block_mode_single_exit;
      Alcotest.test_case "trace denser than block" `Quick test_trace_denser_than_block;
      Alcotest.test_case "trace mode simulates" `Quick test_trace_simulates;
      Alcotest.test_case "exit target lookup" `Quick test_exit_target;
      Alcotest.test_case "IMT one per cycle" `Quick test_imt_one_per_cycle;
      Alcotest.test_case "BMT one per cycle" `Quick test_bmt_one_per_cycle;
      Alcotest.test_case "policy ladder" `Quick test_policy_ladder;
      Alcotest.test_case "BMT switch penalty" `Quick test_bmt_switch_penalty_costs;
      Alcotest.test_case "policy strings" `Quick test_policy_strings;
      Alcotest.test_case "IMT/BMT golden metrics" `Quick test_policy_golden;
      Alcotest.test_case "baselines ladder" `Quick test_baselines_ladder;
      Alcotest.test_case "sensitivity miss penalty" `Quick test_sensitivity_miss_penalty;
      Alcotest.test_case "sensitivity render" `Quick test_sensitivity_render;
      Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
      Alcotest.test_case "csv to_string" `Quick test_csv_to_string;
      Alcotest.test_case "csv write" `Quick test_csv_write_read;
      Alcotest.test_case "grid csv" `Quick test_grid_csv;
      Alcotest.test_case "trace inspector" `Quick test_trace_inspector;
      Alcotest.test_case "trace inspector overflow" `Quick
        test_trace_inspector_rejects_overflow;
      Alcotest.test_case "compiler comparison" `Quick test_compiler_cmp;
    ] )

(* --- branch predictor --- *)

let test_predictor_static () =
  let p = Sim.Predictor.create Isa.Machine.No_predictor in
  Alcotest.(check bool) "not-taken correct" true
    (Sim.Predictor.predict_and_update p ~addr:0 ~taken:false);
  Alcotest.(check bool) "taken mispredicted" false
    (Sim.Predictor.predict_and_update p ~addr:0 ~taken:true);
  Alcotest.(check (float 1e-9)) "accuracy" 0.5 (Sim.Predictor.accuracy p)

let test_predictor_bimodal_learns () =
  let p = Sim.Predictor.create (Isa.Machine.Bimodal 256) in
  (* Train a single always-taken branch: after warmup it predicts taken. *)
  for _ = 1 to 4 do
    ignore (Sim.Predictor.predict_and_update p ~addr:640 ~taken:true)
  done;
  Alcotest.(check bool) "learned taken" true
    (Sim.Predictor.predict_and_update p ~addr:640 ~taken:true)

let test_predictor_rejects_bad_size () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Predictor.create: entries must be a positive power of two")
    (fun () -> ignore (Sim.Predictor.create (Isa.Machine.Bimodal 100)))

let test_predictor_helps_ipc () =
  (* A branchy, almost-always-taken workload: the static machine pays the
     penalty on nearly every block, the bimodal predictor learns. *)
  let branchy = { (profile ~width:1.5 ~ops:4 ()) with taken_prob = 0.95 } in
  let run pred =
    let machine = { m with Isa.Machine.predictor = pred } in
    let config =
      Sim.Config.make ~machine (Vliw_merge.Catalog.find_exn "ST").scheme
    in
    Sim.Metrics.ipc
      (Sim.Multitask.run config ~seed:5L ~schedule:Sim.Multitask.quick_schedule
         [ branchy ])
  in
  let without = run Isa.Machine.No_predictor in
  let with_pred = run (Isa.Machine.Bimodal 4096) in
  Alcotest.(check bool)
    (Printf.sprintf "predictor helps (%.2f > %.2f)" with_pred without)
    true
    (with_pred > without)

let predictor_tests =
  [
    Alcotest.test_case "predictor static" `Quick test_predictor_static;
    Alcotest.test_case "predictor bimodal learns" `Quick test_predictor_bimodal_learns;
    Alcotest.test_case "predictor rejects bad size" `Quick
      test_predictor_rejects_bad_size;
    Alcotest.test_case "predictor helps IPC" `Quick test_predictor_helps_ipc;
  ]

let suite = (fst suite, snd suite @ predictor_tests)

(* --- textual program format --- *)

let test_asm_roundtrip () =
  let prog = C.Program.generate ~seed:5L m (profile ~blocks:4 ()) in
  let text = C.Asm.to_string prog in
  match C.Asm.parse ~profile:prog.profile text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok back ->
    Alcotest.(check bool) "round-trip equal" true (C.Asm.roundtrip_equal prog back)

let test_asm_roundtrip_trace () =
  let prog = C.Program.generate ~seed:5L ~mode:(`Trace 3) m (profile ~blocks:9 ()) in
  match C.Asm.parse ~profile:prog.profile (C.Asm.to_string prog) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok back ->
    Alcotest.(check bool) "multi-exit round-trip" true
      (C.Asm.roundtrip_equal prog back)

let test_asm_parse_errors () =
  let check_err label text =
    match C.Asm.parse ~profile:(profile ()) text with
    | Ok _ -> Alcotest.failf "%s: expected an error" label
    | Error _ -> ()
  in
  check_err "empty" "";
  check_err "no region" "  0: add#1 | - | - | -\n";
  check_err "bad op" "region 0 fallthrough 0\n  exit 0 -> 0\n  0: xyz#1 | - | - | -\n";
  check_err "bad id" "region 0 fallthrough 0\n  exit 0 -> 0\n  0: add#x | - | - | -\n";
  check_err "exit without branch"
    "region 0 fallthrough 0\n  exit 0 -> 0\n  0: add#1 | - | - | -\n";
  check_err "overfull cluster"
    "region 0 fallthrough 0\n  exit 0 -> 0\n  0: ld#1 st#2 br#3 | - | - | -\n"

let test_asm_parse_minimal () =
  let text = "region 0 fallthrough 0\n  exit 0 -> 0\n  0: add#1 br#2 | - | - | -\n" in
  match C.Asm.parse ~profile:(profile ()) text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok p ->
    Alcotest.(check int) "one region" 1 (Array.length p.blocks);
    Alcotest.(check int) "two ops" 2 p.total_ops;
    Alcotest.(check bool) "validates" true (C.Program.validate m p = Ok ())

let asm_tests =
  [
    Alcotest.test_case "asm round-trip (block)" `Quick test_asm_roundtrip;
    Alcotest.test_case "asm round-trip (trace)" `Quick test_asm_roundtrip_trace;
    Alcotest.test_case "asm parse errors" `Quick test_asm_parse_errors;
    Alcotest.test_case "asm parse minimal" `Quick test_asm_parse_minimal;
  ]

let suite = (fst suite, snd suite @ asm_tests)

(* --- waste decomposition --- *)

let test_waste_decomposition () =
  let rows = E.Waste.run ~scale:E.Common.Quick () in
  Alcotest.(check int) "5 rows" 5 (List.length rows);
  let get name = List.find (fun (r : E.Waste.row) -> r.scheme = name) rows in
  let st = get "ST" and csmt = get "3CCC" and smt = get "3SSS" in
  (* Multithreaded merging removes most vertical waste... *)
  Alcotest.(check bool) "CSMT cuts vertical waste" true (csmt.vertical < st.vertical);
  (* ...and operation-level merging additionally cuts horizontal waste. *)
  Alcotest.(check bool) "SMT cuts horizontal waste vs CSMT" true
    (smt.horizontal < csmt.horizontal);
  Alcotest.(check bool) "merge degree grows" true
    (smt.merge_degree > csmt.merge_degree && csmt.merge_degree > st.merge_degree);
  Alcotest.(check bool) "render" true
    (contains ~needle:"Vertical waste" (E.Waste.render "LLHH" rows))

let waste_tests =
  [ Alcotest.test_case "waste decomposition" `Quick test_waste_decomposition ]

let suite = (fst suite, snd suite @ waste_tests)

(* --- weighted speedup / fairness --- *)

let test_speedup_metrics () =
  let rows = E.Speedup.run ~scale:E.Common.Quick ~mix:"MMMM" () in
  Alcotest.(check int) "4 rows" 4 (List.length rows);
  let get name = List.find (fun (r : E.Speedup.row) -> r.scheme = name) rows in
  List.iter
    (fun (r : E.Speedup.row) ->
      Alcotest.(check bool) (r.scheme ^ " speedup positive") true
        (r.weighted_speedup > 0.0);
      Alcotest.(check bool) (r.scheme ^ " speedup bounded") true
        (r.weighted_speedup <= 4.5);
      Alcotest.(check bool) (r.scheme ^ " fairness in [0,1]") true
        (r.fairness >= 0.0 && r.fairness <= 1.0))
    rows;
  (* More merging means more total progress. *)
  Alcotest.(check bool) "SMT above CSMT" true
    ((get "3SSS").weighted_speedup > (get "3CCC").weighted_speedup);
  Alcotest.(check bool) "render" true
    (contains ~needle:"Weighted speedup" (E.Speedup.render "MMMM" rows))

(* --- routing-block area --- *)

let test_total_transistors () =
  let base name =
    Vliw_cost.Scheme_cost.transistors (Vliw_merge.Scheme_name.parse_exn name)
  in
  let total name =
    Vliw_cost.Scheme_cost.total_transistors (Vliw_merge.Scheme_name.parse_exn name)
  in
  (* The routing/mux overhead is identical for equal thread counts, so
     the scheme DIFFERENCE is preserved exactly... *)
  Alcotest.(check (float 1e-6)) "difference preserved"
    (base "3SSS" -. base "3CCC")
    (total "3SSS" -. total "3CCC");
  (* ...and the overhead itself grows with threads. *)
  Alcotest.(check bool) "overhead grows with threads" true
    (total "C8" -. base "C8" > total "C4" -. base "C4");
  Alcotest.(check bool) "total exceeds merge control" true
    (total "2SC3" > base "2SC3")

let final_tests =
  [
    Alcotest.test_case "weighted speedup" `Quick test_speedup_metrics;
    Alcotest.test_case "total transistors" `Quick test_total_transistors;
  ]

let suite = (fst suite, snd suite @ final_tests)

(* --- final property tests --- *)

let prop_asm_roundtrip =
  QCheck.Test.make ~name:"asm round-trip over random programs" ~count:25
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, blocks) ->
      let p = profile ~blocks () in
      let prog = C.Program.generate ~seed:(Int64.of_int seed) m p in
      match C.Asm.parse ~profile:p (C.Asm.to_string prog) with
      | Error _ -> false
      | Ok back -> C.Asm.roundtrip_equal prog back)

let prop_program_ipc_bounded =
  QCheck.Test.make ~name:"static IPC bounded by machine width" ~count:25
    QCheck.(pair small_int (float_range 1.0 16.0))
    (fun (seed, width) ->
      let p = profile ~width ~ops:40 () in
      let prog = C.Program.generate ~seed:(Int64.of_int seed) m p in
      let ipc = C.Program.static_ipc prog in
      ipc > 0.0 && ipc <= float_of_int (Isa.Machine.total_issue m))

let final_props =
  [ Tgen.to_alcotest prop_asm_roundtrip; Tgen.to_alcotest prop_program_ipc_bounded ]

let suite = (fst suite, snd suite @ final_props)
