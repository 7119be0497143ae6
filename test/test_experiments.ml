(* Experiment harness: structure checks at Quick scale, plus renderer
   smoke tests. The paper-shape assertions live in test_repro. *)
module E = Vliw_experiments

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_grid_shape () =
  let grid =
    E.Sweep.run ~scale:E.Common.Quick ~scheme_names:[ "1S"; "3SSS" ]
      ~mix_names:[ "LLLL"; "HHHH" ] ()
  in
  Alcotest.(check int) "mix rows" 2 (Array.length grid.ipc);
  Array.iter (fun row -> Alcotest.(check int) "scheme cols" 2 (Array.length row)) grid.ipc;
  Alcotest.(check int) "columns" 2 (Array.length (E.Common.grid_column grid "1S"))

let test_grid_deterministic () =
  let run () =
    E.Sweep.run ~scale:E.Common.Quick ~seed:5L ~scheme_names:[ "2SC3" ]
      ~mix_names:[ "MMMM" ] ()
  in
  let a = run () and b = run () in
  Alcotest.(check (float 0.0)) "same IPC" a.ipc.(0).(0) b.ipc.(0).(0)

let test_table2_render () =
  let out = E.Table2.render () in
  Alcotest.(check bool) "has LLHH" true (contains ~needle:"LLHH" out);
  Alcotest.(check bool) "has colorspace" true (contains ~needle:"colorspace" out)

let test_fig5_shape () =
  let points = E.Fig5.run () in
  Alcotest.(check int) "7 thread counts" 7 (List.length points);
  let out = E.Fig5.render points in
  Alcotest.(check bool) "mentions CSMT PL" true (contains ~needle:"CSMT PL" out)

let test_fig9_shape () =
  let rows = E.Fig9.run () in
  Alcotest.(check int) "16 schemes" 16 (List.length rows);
  let out = E.Fig9.render rows in
  Alcotest.(check bool) "mentions 2SC3" true (contains ~needle:"2SC3" out)

let test_fig4_quick () =
  let d = E.Fig4.run ~scale:E.Common.Quick () in
  Alcotest.(check bool) "4T > 2T" true (d.four_thread > d.two_thread);
  Alcotest.(check bool) "2T > 1T" true (d.two_thread > d.single);
  Alcotest.(check bool) "render" true
    (contains ~needle:"4-thread vs 2-thread" (E.Fig4.render d))

let test_fig6_quick () =
  let d = E.Fig6.run ~scale:E.Common.Quick () in
  Alcotest.(check int) "9 mixes" 9 (List.length d.per_mix);
  Alcotest.(check bool) "positive advantage" true (d.average > 0.0)

let fig10_quick =
  lazy
    (E.Fig10.run ~scale:E.Common.Quick ())

let test_fig10_structure () =
  let d = Lazy.force fig10_quick in
  Alcotest.(check int) "16 schemes in grid" 16 (List.length d.grid.scheme_names);
  Alcotest.(check int) "9 mixes" 9 (List.length d.grid.mix_names);
  Alcotest.(check int) "9 groups" 9 (List.length d.groups);
  List.iter
    (fun (g, _) ->
      Alcotest.(check bool) (g ^ " spread finite") true (E.Fig10.group_spread d g >= 0.0);
      Alcotest.(check bool) (g ^ " ipc positive") true (E.Fig10.group_average d g > 0.0))
    d.groups;
  Alcotest.(check bool) "render has Average" true
    (contains ~needle:"Average" (E.Fig10.render d))

let test_fig11_12_from_fig10 () =
  let d = Lazy.force fig10_quick in
  let p11 = E.Fig11.of_fig10 d in
  let p12 = E.Fig12.of_fig10 d in
  Alcotest.(check int) "fig11 points" 16 (List.length p11);
  Alcotest.(check int) "fig12 points" 16 (List.length p12);
  List.iter
    (fun (p : E.Fig11.point) ->
      Alcotest.(check bool) (p.name ^ " transistors > 0") true (p.transistors > 0.0))
    p11;
  Alcotest.(check bool) "fig11 render" true
    (contains ~needle:"transistors" (E.Fig11.render p11));
  Alcotest.(check bool) "fig12 render" true
    (contains ~needle:"gate delays" (E.Fig12.render p12))

let test_claims_from_fig10 () =
  let c = E.Claims.of_fig10 (Lazy.force fig10_quick) in
  Alcotest.(check bool) "4T SMT above 2T SMT" true (c.smt4_over_smt2_pct > 0.0);
  Alcotest.(check bool) "SMT above CSMT" true (c.smt_over_csmt_pct > 0.0);
  Alcotest.(check bool) "render" true
    (contains ~needle:"paper +61%" (E.Claims.render c))

let test_table1_quick () =
  (* Structure only at Quick scale (accuracy checked in test_repro). *)
  let rows = E.Table1.run ~scale:E.Common.Quick () in
  Alcotest.(check int) "12 rows" 12 (List.length rows);
  List.iter
    (fun (r : E.Table1.row) ->
      Alcotest.(check bool) (r.profile.name ^ " ipc > 0") true (r.ipc_real > 0.0))
    rows;
  Alcotest.(check bool) "render has mcf" true
    (contains ~needle:"mcf" (E.Table1.render rows))

(* Pinned render digests of the studies that run their simulations as
   Sweep rows x columns (Quick scale, default seed). Each digest is also
   the md5 of `vliwsim exp <id> --scale quick` stdout. *)
let golden_renders =
  [
    ("table1", "9079af422bb4a321886dc72a1ccb967d");
    ("ablations", "f7242ac7987556d2135310b34596a66e");
    ("ext8", "890499ffd797c8d138854a9f66a435de");
    ("baselines", "45f4a170690b127d0db1e4f832791386");
    ("sensitivity", "d5e8634f024ed3f2f3d7cfb040ca4c3c");
    ("compiler", "53a2bcb315c9209cdb7fa8da64d19fd7");
    ("waste", "d227f53d49699b70dd72c92a0ae99fdf");
    ("speedup", "7b99ea54cd52aa70eb9870e89e9e0871");
  ]

let test_golden_renders () =
  let ctx = E.Registry.make_ctx ~scale:E.Common.Quick ~jobs:2 () in
  List.iter
    (fun (id, digest) ->
      let text, _ = E.Registry.run_entry ctx (E.Registry.find_exn id) in
      Alcotest.(check string) (id ^ " render digest") digest
        (Digest.to_hex (Digest.string text)))
    golden_renders

(* --- the memo ----------------------------------------------------- *)

let llhh = (Vliw_workloads.Mixes.find_exn "LLHH").members
let quick = E.Common.schedule_of_scale E.Common.Quick

let test_memo_interns_machine () =
  (* A structurally equal machine is the memo's one value, so rows share
     programs and Instr.signature stays on its physical fast path. *)
  let memo = E.Sweep.memo () in
  let row machine =
    E.Sweep.row ~memo ~machine ~schedule:quick ~compile_seed:1L ~seed:1L "r" llhh
  in
  let default = Vliw_isa.Machine.default in
  let a = row default in
  let b = row { default with miss_penalty = 20 } in
  Alcotest.(check bool) "one machine value" true (a.machine == b.machine);
  Alcotest.(check bool) "shared programs" true (List.for_all2 ( == ) a.programs b.programs);
  let c = row { default with miss_penalty = 40 } in
  Alcotest.(check bool) "another machine compiles its own" true
    (c.machine != a.machine && List.for_all2 ( != ) a.programs c.programs);
  Alcotest.(check (pair int int)) "programs, cells" (8, 0) (E.Sweep.memo_stats memo)

let test_memo_narrowed_row () =
  (* Speedup's solo rows: the mixed row narrowed to one program by record
     update, with the same seed, schedule and column. Each must simulate
     its own program, never take the mixed row's or a sibling's cell. *)
  let memo = E.Sweep.memo () in
  let mixed =
    E.Sweep.row ~memo ~schedule:quick ~compile_seed:3L ~seed:3L "LLHH" llhh
  in
  let solos =
    List.mapi
      (fun i p -> { mixed with name = Printf.sprintf "LLHH/%d" i; programs = [ p ] })
      mixed.programs
  in
  let sweep ?memo rows =
    let _, _, cells =
      E.Sweep.run_metrics ~scale:E.Common.Quick ~rows ~scheme_names:[ "ST" ] ?memo ()
    in
    cells
  in
  let ipc cells = Array.map (fun ((c : E.Sweep.cell), _) -> c.ipc) cells in
  let whole = (ipc (sweep ~memo [ mixed ])).(0) in
  let shared = sweep ~memo solos in
  Alcotest.(check (array (float 0.0)))
    "solo cells as simulated alone" (ipc (sweep solos)) (ipc shared);
  Array.iter
    (fun v -> Alcotest.(check bool) "not the mixed row's cell" true (v <> whole))
    (ipc shared);
  Alcotest.(check (pair int int)) "programs, cells" (4, 5) (E.Sweep.memo_stats memo);
  (* A rerun simulates nothing: every cell is the stored outcome itself. *)
  let again = sweep ~memo solos in
  Array.iter2
    (fun (_, a) (_, b) ->
      Alcotest.(check bool) "reused metrics" true (Option.get a == Option.get b))
    shared again;
  Alcotest.(check (pair int int)) "a rerun adds nothing" (4, 5) (E.Sweep.memo_stats memo)

let test_memo_bounded () =
  (* A row that would take the memo past 256 programs flushes it whole. *)
  let memo = E.Sweep.memo () in
  let tiny =
    List.map
      (fun name ->
        { (Vliw_workloads.Benchmarks.find_exn name) with static_blocks = 2 })
      [ "mcf"; "bzip2"; "idct"; "x264" ]
  in
  let row i =
    ignore
      (E.Sweep.row ~memo ~schedule:quick ~compile_seed:(Int64.of_int i) ~seed:0L "r"
         tiny)
  in
  for i = 1 to 64 do
    row i
  done;
  Alcotest.(check (pair int int)) "full" (256, 0) (E.Sweep.memo_stats memo);
  row 65;
  Alcotest.(check (pair int int)) "flushed" (4, 0) (E.Sweep.memo_stats memo)

let suite =
  ( "experiments",
    [
      Alcotest.test_case "grid shape" `Quick test_grid_shape;
      Alcotest.test_case "grid deterministic" `Quick test_grid_deterministic;
      Alcotest.test_case "table2 render" `Quick test_table2_render;
      Alcotest.test_case "fig5 shape" `Quick test_fig5_shape;
      Alcotest.test_case "fig9 shape" `Quick test_fig9_shape;
      Alcotest.test_case "fig4 quick" `Quick test_fig4_quick;
      Alcotest.test_case "fig6 quick" `Quick test_fig6_quick;
      Alcotest.test_case "fig10 structure" `Quick test_fig10_structure;
      Alcotest.test_case "fig11/12 from fig10" `Quick test_fig11_12_from_fig10;
      Alcotest.test_case "claims from fig10" `Quick test_claims_from_fig10;
      Alcotest.test_case "table1 quick" `Quick test_table1_quick;
      Alcotest.test_case "golden renders" `Slow test_golden_renders;
      Alcotest.test_case "memo: equal machines are one value" `Quick
        test_memo_interns_machine;
      Alcotest.test_case "memo: a narrowed row keeps its own cell" `Quick
        test_memo_narrowed_row;
      Alcotest.test_case "memo: bounded" `Quick test_memo_bounded;
    ] )
