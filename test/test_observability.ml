(* The observability stack: the JSON codec, atomic file writes, the run
   ledger, the OpenMetrics exporter, the HTML report and the sweep's
   structured event stream — plus the acceptance property that running
   the whole stack (ledger + metrics + NDJSON event log) leaves the IPC
   grid bit-identical to an unobserved sweep at jobs=1 and jobs=4. *)

module J = Vliw_util.Json
module A = Vliw_util.Atomic_io
module T = Vliw_telemetry
module L = Vliw_telemetry.Ledger
module E = Vliw_experiments

let contains ~needle haystack =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let tmp_dir () =
  let path = Filename.temp_file "vliwobs" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Json ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Num 3.0);
        ("b", J.List [ J.Null; J.Bool true; J.Str "x\"y\\z\n" ]);
        ("c", J.Obj [ ("f", J.Num 0.1); ("g", J.Num (-1.25e-7)) ]);
        ("empty", J.List []);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "parse (to_string v) = v" true (v = v')
  | Error e -> Alcotest.fail ("round trip failed: " ^ e));
  Alcotest.(check string) "integers print bare" "3" (J.number_string 3.0);
  Alcotest.(check string) "nan serializes as null" "null"
    (J.to_string (J.Num Float.nan));
  Alcotest.(check bool) "truncated document is an error" true
    (match J.parse "{\"a\":" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "trailing garbage is an error" true
    (match J.parse "1 x" with Error _ -> true | Ok _ -> false);
  Alcotest.(check (option (float 0.0))) "member/to_float" (Some 3.0)
    (Option.bind (J.member "a" v) J.to_float);
  Alcotest.(check bool) "to_float on a list is None" true
    (Option.bind (J.member "b" v) J.to_float = None);
  Alcotest.(check bool) "absent member is None" true (J.member "zz" v = None)

(* Shortest-round-trip floats: the property the ledger's decimal
   mirrors (and the OpenMetrics values) rely on. *)
let test_json_float_bits =
  QCheck.Test.make ~count:200 ~name:"json: number_string round-trips bits"
    QCheck.(float)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match J.parse (J.number_string f) with
      | Ok (J.Num f') -> Int64.bits_of_float f = Int64.bits_of_float f'
      | _ -> false)

(* --- Atomic_io -------------------------------------------------------- *)

let test_atomic_io () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "f.txt" in
  A.write_file ~path "one";
  Alcotest.(check string) "write_file" "one" (read_file path);
  A.write_file ~path "two";
  Alcotest.(check string) "overwrite" "two" (read_file path);
  (try
     A.with_file ~path (fun oc ->
         output_string oc "half-written";
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "raising writer leaves old content" "two"
    (read_file path);
  Alcotest.(check (list string)) "no stale temp file" [ "f.txt" ]
    (Array.to_list (Sys.readdir dir));
  A.append_line ~path "three";
  A.append_line ~path "four";
  Alcotest.(check string) "append_line terminates lines" "two\nthree\nfour\n"
    (read_file path);
  let fresh = Filename.concat dir "fresh.txt" in
  A.append_line ~path:fresh "first";
  Alcotest.(check string) "append_line creates the file" "first\n"
    (read_file fresh)

(* --- Ledger ----------------------------------------------------------- *)

let mk_cell ?(degraded = false) ~worker mix scheme ipc =
  {
    L.mix;
    scheme;
    ipc;
    elapsed_s = 0.01;
    started_s = 0.002 *. float_of_int worker;
    worker;
    attempts = (if degraded then 2 else 1);
    degraded;
  }

let grid_cells =
  [|
    mk_cell ~worker:0 "LLHH" "1S" 1.0;
    mk_cell ~worker:1 "LLHH" "2SC3" 1.25;
    mk_cell ~worker:0 "MMMM" "1S" 1.5;
    mk_cell ~worker:1 "MMMM" "2SC3" 2.0;
  |]

let mk_run ?(cells = grid_cells) ?(seed = 0xC5EEDL) ~label () =
  L.make ~cells
    ~counters:
      [
        ("core.cycles", 4000);
        ("events.fetch_stall", 12);
        ("waste.horizontal.conflict", 3);
        ("waste.vertical.empty", 7);
      ]
    ~gauges:[ ("ipc.mean", 1.4375) ]
    ~cmd:"exp" ~label ~scale:"quick" ~seed ~jobs:2
    ~scheme_names:[ "1S"; "2SC3" ] ~mix_names:[ "LLHH"; "MMMM" ] ~wall_s:0.5 ()

let test_ledger_make_and_json () =
  let r = mk_run ~label:"fig10" () in
  Alcotest.(check string) "id empty before append" "" r.L.id;
  Alcotest.(check string) "fingerprint matches fingerprint_of"
    (L.fingerprint_of ~scale:"quick" ~seed:0xC5EEDL
       ~scheme_names:[ "1S"; "2SC3" ] ~mix_names:[ "LLHH"; "MMMM" ] ())
    r.L.fingerprint;
  Alcotest.(check int) "no degraded cells" 0 r.L.degraded;
  Alcotest.(check int) "no retries" 0 r.L.retries;
  Alcotest.(check (float 1e-9)) "mean over cells" 1.4375 (L.mean_ipc r);
  (match L.of_json (L.to_json r) with
  | Some r' -> Alcotest.(check bool) "JSON round trip is exact" true (r = r')
  | None -> Alcotest.fail "of_json rejected to_json output");
  (* degraded cells: nan IPC must survive the round trip bit-exactly *)
  let d = mk_run ~label:"deg"
      ~cells:[| mk_cell ~degraded:true ~worker:0 "LLHH" "1S" Float.nan |] ()
  in
  Alcotest.(check int) "degraded derived from cells" 1 d.L.degraded;
  Alcotest.(check int) "retries derived from attempts" 1 d.L.retries;
  Alcotest.(check bool) "mean of all-degraded run is nan" true
    (Float.is_nan (L.mean_ipc d));
  match L.of_json (L.to_json d) with
  | Some d' ->
    Alcotest.(check bool) "nan cell round-trips" true
      (Int64.bits_of_float d'.L.cells.(0).L.ipc
      = Int64.bits_of_float Float.nan)
  | None -> Alcotest.fail "of_json rejected degraded run"

let test_ledger_store () =
  let dir = Filename.concat (tmp_dir ()) "runs" in
  Alcotest.(check (list string)) "missing ledger loads empty" []
    (List.map (fun r -> r.L.id) (L.load ~dir));
  Alcotest.(check bool) "latest of empty ledger" true (L.latest ~dir = None);
  let r1 = L.append ~dir (mk_run ~label:"first" ()) in
  let r2 = L.append ~dir (mk_run ~label:"second" ()) in
  Alcotest.(check string) "first id" "r1" r1.L.id;
  Alcotest.(check string) "second id" "r2" r2.L.id;
  Alcotest.(check (list string)) "load keeps file order" [ "r1"; "r2" ]
    (List.map (fun r -> r.L.id) (L.load ~dir));
  (match L.find ~dir "r1" with
  | Some r -> Alcotest.(check string) "find by id" "first" r.L.label
  | None -> Alcotest.fail "r1 not found");
  (match L.find ~dir "latest" with
  | Some r -> Alcotest.(check string) "latest alias" "r2" r.L.id
  | None -> Alcotest.fail "latest not found");
  Alcotest.(check bool) "unknown id is None" true (L.find ~dir "r99" = None);
  (* malformed lines are skipped, not fatal *)
  A.append_line ~path:(L.ledger_path ~dir) "{not json";
  A.append_line ~path:(L.ledger_path ~dir) "[1,2,3]";
  Alcotest.(check int) "malformed lines skipped on load" 2
    (List.length (L.load ~dir));
  (* ids keep counting past skipped garbage: count-based assignment *)
  let r3 = L.append ~dir (mk_run ~label:"third" ()) in
  Alcotest.(check string) "next id after garbage" "r3" r3.L.id

let test_ledger_diff () =
  let ra = mk_run ~label:"a" () in
  let rb = mk_run ~label:"b" () in
  (match L.diff ra rb with
  | L.Identical -> ()
  | _ -> Alcotest.fail "equal grids must diff Identical");
  Alcotest.(check string) "equal grids share a digest"
    (L.grid_digest ra.L.cells) (L.grid_digest rb.L.cells);
  (* perturb two cells: attribution names the first in mix-major order *)
  let perturbed = Array.map (fun c -> c) grid_cells in
  perturbed.(2) <- { perturbed.(2) with L.ipc = 1.5000001 };
  perturbed.(3) <- { perturbed.(3) with L.ipc = 2.5 };
  let rc = mk_run ~cells:perturbed ~label:"c" () in
  (match L.diff ra rc with
  | L.Drift { mix; scheme; ipc_a; ipc_b; differing } ->
    Alcotest.(check string) "first drifting mix" "MMMM" mix;
    Alcotest.(check string) "first drifting scheme" "1S" scheme;
    Alcotest.(check (float 0.0)) "lhs ipc" 1.5 ipc_a;
    Alcotest.(check (float 0.0)) "rhs ipc" 1.5000001 ipc_b;
    Alcotest.(check int) "differing cell count" 2 differing
  | _ -> Alcotest.fail "perturbed grid must drift");
  Alcotest.(check bool) "perturbed digest differs" true
    (L.grid_digest ra.L.cells <> L.grid_digest perturbed);
  (* a degraded (nan) cell in the same place on both sides is identical:
     the diff compares bit images, not float equality *)
  let nan_cells () =
    [| mk_cell ~degraded:true ~worker:0 "LLHH" "1S" Float.nan |]
  in
  (match
     L.diff
       (mk_run ~cells:(nan_cells ()) ~label:"n1" ())
       (mk_run ~cells:(nan_cells ()) ~label:"n2" ())
   with
  | L.Identical -> ()
  | _ -> Alcotest.fail "matching nan cells must diff Identical");
  match L.diff ra (mk_run ~cells:(nan_cells ()) ~label:"short" ()) with
  | L.Shape_mismatch _ -> ()
  | _ -> Alcotest.fail "different cell counts must be a shape mismatch"

(* --- OpenMetrics ------------------------------------------------------ *)

let test_openmetrics_render_and_lint () =
  Alcotest.(check string) "sanitize maps dots" "vliwsim_waste_vertical_empty"
    (T.Openmetrics.sanitize "waste.vertical.empty");
  Alcotest.(check string) "label escaping" "a\\\"b\\\\c\\nd"
    (T.Openmetrics.escape_label_value "a\"b\\c\nd");
  let reg = T.Counters.create () in
  T.Counters.add (T.Counters.counter reg "slots.filled") 1264;
  T.Counters.add (T.Counters.counter reg "core.cycles") 400;
  let h = T.Counters.histogram reg "cell.elapsed" ~bounds:[| 0.1; 1.0 |] in
  List.iter (T.Counters.observe h) [ 0.05; 0.5; 2.0 ];
  let text =
    T.Openmetrics.render
      ~labels:[ ("scale", "quick"); ("odd", "with \"quotes\"") ]
      ~snapshot:(T.Counters.snapshot reg)
      ~gauges:[ ("run_ipc_mean", 1.44) ]
      ()
  in
  Alcotest.(check (list string)) "render lints clean" []
    (T.Openmetrics.lint text);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle text))
    [
      "# HELP vliwsim_slots_filled_total";
      "# TYPE vliwsim_slots_filled_total counter";
      "vliwsim_slots_filled_total{scale=\"quick\"";
      "# TYPE vliwsim_cell_elapsed histogram";
      "vliwsim_cell_elapsed_bucket{";
      "le=\"+Inf\"";
      "vliwsim_cell_elapsed_sum";
      "vliwsim_cell_elapsed_count";
      "# TYPE vliwsim_run_ipc_mean gauge";
      "\\\"quotes\\\"";
      "# EOF";
    ]

let test_openmetrics_of_run () =
  let dir = Filename.concat (tmp_dir ()) "runs" in
  let r = L.append ~dir (mk_run ~label:"fig10" ()) in
  let text = T.Openmetrics.of_run r in
  Alcotest.(check (list string)) "of_run lints clean" []
    (T.Openmetrics.lint text);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle text))
    [
      "run=\"r1\"";
      "cmd=\"exp\"";
      "vliwsim_core_cycles_total";
      "vliwsim_run_wall_seconds";
      "vliwsim_run_cells";
      "vliwsim_run_ipc_mean";
    ]

let test_openmetrics_lint_catches () =
  let violating =
    [
      ("sample without TYPE", "foo_total 1\n# EOF\n");
      ("counter without _total",
       "# HELP m help\n# TYPE m counter\nm 1\n# EOF\n");
      ("missing terminator", "# HELP m help\n# TYPE m gauge\nm 1\n");
      ("content after EOF", "# EOF\nstray 1\n");
      ("duplicate TYPE",
       "# TYPE m gauge\n# TYPE m gauge\nm 1\n# EOF\n");
      ("TYPE after samples",
       "# TYPE m gauge\nm 1\n# HELP m late\n# EOF\n");
      ("unparseable value", "# TYPE m gauge\nm potato\n# EOF\n");
      ("unterminated label block", "# TYPE m gauge\nm{a=\"b 1\n# EOF\n");
      ("invalid metric name", "# TYPE 9bad gauge\n# EOF\n");
    ]
  in
  List.iter
    (fun (name, text) ->
      Alcotest.(check bool) (name ^ " flagged") true
        (T.Openmetrics.lint text <> []))
    violating

(* --- HTML report ------------------------------------------------------ *)

let test_html_report_self_contained () =
  let dir = Filename.concat (tmp_dir ()) "runs" in
  let _r1 = L.append ~dir (mk_run ~label:"fig10" ()) in
  let r2 = L.append ~dir (mk_run ~label:"fig10" ()) in
  let html = T.Html_report.render ~runs:(L.load ~dir) r2 in
  (* single-file contract: no scripts, no external references *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("absent: " ^ needle) false (contains ~needle html))
    [ "<script"; "http://"; "https://"; "src="; "href=" ];
  (* every section has data in mk_run, so every section renders *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("present: " ^ needle) true (contains ~needle html))
    [
      "<svg";
      "</html>";
      "prefers-color-scheme";
      "<title>";
      "IPC by workload mix and merge scheme";
      "Issue-slot waste breakdown";
      "Stall &amp; event attribution";
      "Sweep cell timeline";
      "Cross-run trajectory";
    ];
  (* with two same-fingerprint runs the trajectory is a chart, not the
     single-run hero number *)
  Alcotest.(check bool) "trajectory names both runs" true
    (contains ~needle:"r1" html && contains ~needle:"r2" html);
  (* a run with no counters and a single record: sections degrade by
     omission, the document still closes *)
  let bare =
    L.make ~cmd:"run" ~label:"solo" ~scale:"quick" ~seed:1L ~jobs:1
      ~scheme_names:[ "2SC3" ] ~mix_names:[ "LLHH" ] ~wall_s:0.1 ()
  in
  let html2 = T.Html_report.render ~runs:[ bare ] bare in
  Alcotest.(check bool) "bare run renders" true (contains ~needle:"</html>" html2);
  Alcotest.(check bool) "bare run omits timeline" false
    (contains ~needle:"Sweep cell timeline" html2);
  (* span.* gauges light the Request latency panel *)
  Alcotest.(check bool) "untraced run omits latency panel" false
    (contains ~needle:"Request latency" html);
  let traced =
    L.make ~cells:grid_cells
      ~gauges:
        [
          ("span.submit.count", 2.0); ("span.submit.p50", 0.012);
          ("span.submit.p95", 0.04); ("span.submit.p99", 0.04);
          ("span.simulate_cell.count", 4.0); ("span.simulate_cell.p50", 0.003);
        ]
      ~cmd:"serve" ~label:"traced" ~scale:"quick" ~seed:1L ~jobs:1
      ~scheme_names:[ "1S"; "2SC3" ] ~mix_names:[ "LLHH"; "MMMM" ] ~wall_s:0.1
      ()
  in
  let html3 = T.Html_report.render traced in
  Alcotest.(check bool) "latency panel renders" true
    (contains ~needle:"Request latency" html3);
  Alcotest.(check bool) "quantile bars present" true
    (contains ~needle:"submit p95" html3);
  (* gauge-only (cell-less) records still get a trajectory: the first
     gauge plays the role mean IPC plays for grids. The shape is the
     `exp replicates` summary record, whose cells live in the per-seed
     records. *)
  let summary label =
    L.make
      ~gauges:
        [
          ("replicates.n", 5.0); ("ipc.mean.LLHH.2SC3", 2.1);
          ("ipc.ci95.LLHH.2SC3", 0.05);
        ]
      ~cmd:"exp" ~label ~scale:"quick" ~seed:1L ~jobs:1
      ~scheme_names:[ "2SC3" ] ~mix_names:[ "LLHH" ] ~wall_s:0.1 ()
  in
  let sdir = Filename.concat (tmp_dir ()) "sruns" in
  let _s1 = L.append ~dir:sdir (summary "replicates") in
  let s2 = L.append ~dir:sdir (summary "replicates") in
  let html4 = T.Html_report.render ~runs:(L.load ~dir:sdir) s2 in
  Alcotest.(check bool) "gauge-only trajectory renders" true
    (contains ~needle:"Cross-run trajectory" html4);
  Alcotest.(check bool) "trajectory charts the first gauge" true
    (contains ~needle:"replicates.n across" html4)

(* --- Sweep events ----------------------------------------------------- *)

let collect_events ~jobs ?telemetry ?checkpoint ?resume () =
  let m = Mutex.create () in
  let events = ref [] in
  let on_event ev =
    Mutex.lock m;
    events := ev :: !events;
    Mutex.unlock m
  in
  let names_and_cells =
    E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names:[ "1S"; "2SC3" ]
      ~mix_names:[ "LLHH" ] ~jobs ?telemetry ?checkpoint ?resume ~on_event ()
  in
  (names_and_cells, List.rev !events)

let started_jobs events =
  match events with
  | E.Sweep.Sweep_started { jobs; _ } :: _ -> jobs
  | _ -> Alcotest.fail "first event must be Sweep_started"

(* The contract a progress meter relies on: one Cell_finished per cell,
   [completed] counting 1..total in delivery order, [total] fixed. *)
let check_finished_contract what ~total events =
  let finished =
    List.filter_map
      (function
        | E.Sweep.Cell_finished { completed; total; _ } -> Some (completed, total)
        | _ -> None)
      events
  in
  Alcotest.(check (list int))
    (what ^ ": completed is 1..total")
    (List.init total succ) (List.map fst finished);
  List.iter
    (fun (_, t) -> Alcotest.(check int) (what ^ ": total stable") total t)
    finished

let test_sweep_event_stream () =
  let (_, _, cells), events = collect_events ~jobs:2 () in
  Alcotest.(check int) "two cells simulated" 2 (Array.length cells);
  (match events with
  | E.Sweep.Sweep_started { total; jobs; scale; _ } :: _ ->
    Alcotest.(check int) "started total" 2 total;
    Alcotest.(check int) "started jobs" 2 jobs;
    Alcotest.(check string) "started scale" "quick" scale
  | _ -> Alcotest.fail "first event must be Sweep_started");
  (match List.rev events with
  | E.Sweep.Sweep_finished { total; degraded; wall_s } :: _ ->
    Alcotest.(check int) "finished total" 2 total;
    Alcotest.(check int) "finished degraded" 0 degraded;
    Alcotest.(check bool) "wall clock sane" true (wall_s >= 0.0)
  | _ -> Alcotest.fail "last event must be Sweep_finished");
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "one Cell_started per cell" 2
    (count (function E.Sweep.Cell_started _ -> true | _ -> false));
  Alcotest.(check int) "one Cell_finished per cell" 2
    (count (function E.Sweep.Cell_finished _ -> true | _ -> false));
  let finished =
    List.filter_map
      (function
        | E.Sweep.Cell_finished { cell; eta_s; _ } -> Some (cell, eta_s)
        | _ -> None)
      events
  in
  check_finished_contract "plain sweep" ~total:2 events;
  List.iter
    (fun ((cell : E.Sweep.cell), eta_s) ->
      Alcotest.(check bool) "cell wall clock non-negative" true
        (cell.elapsed_s >= 0.0);
      Alcotest.(check bool) "eta calibrated and non-negative" true
        ((not (Float.is_nan eta_s)) && eta_s >= 0.0))
    finished;
  (* every event serializes to one parseable JSON object *)
  List.iter
    (fun ev ->
      let line = J.to_string (E.Sweep.json_of_event ev) in
      match J.parse line with
      | Ok doc ->
        Alcotest.(check bool) "event has an ev tag" true
          (Option.bind (J.member "ev" doc) J.to_string_opt <> None);
        Alcotest.(check bool) "event has a timestamp" true
          (Option.bind (J.member "ts" doc) J.to_float <> None)
      | Error e -> Alcotest.fail ("event JSON unparseable: " ^ e))
    events;
  (* The start event reports the workers the pool really uses: requests
     beyond the task count are capped. *)
  Alcotest.(check int) "jobs capped at the cell count" 2
    (started_jobs (snd (collect_events ~jobs:4 ())));
  (* A degraded cell and a restored cell each still finish exactly once:
     the first sweep degrades (LLHH, 2SC3), so its journal holds only
     (LLHH, 1S); the resumed sweep restores that cell and simulates the
     other. *)
  let checkpoint = Filename.concat (tmp_dir ()) "events.ckpt" in
  let (_, _, cells), events =
    E.Sweep.inject_failure := Some (fun ~row:_ ~col -> col = 1);
    Fun.protect
      ~finally:(fun () -> E.Sweep.inject_failure := None)
      (fun () -> collect_events ~jobs:2 ~checkpoint ())
  in
  Alcotest.(check int) "one degraded cell" 1
    (List.length (E.Sweep.degraded cells));
  check_finished_contract "degraded sweep" ~total:2 events;
  let (_, _, cells), events =
    collect_events ~jobs:2 ~checkpoint ~resume:true ()
  in
  Alcotest.(check (list int)) "one cell restored, one simulated" [ 0; 1 ]
    (Array.to_list (Array.map (fun (c : E.Sweep.cell) -> c.attempts) cells));
  check_finished_contract "resumed sweep" ~total:2 events

let test_sweep_retry_events () =
  let attempts = Atomic.make 0 in
  E.Sweep.inject_failure :=
    Some
      (fun ~row:_ ~col:_ ->
        (* first attempt of the single cell fails, the retry succeeds *)
        Atomic.fetch_and_add attempts 1 = 0);
  Fun.protect
    ~finally:(fun () -> E.Sweep.inject_failure := None)
    (fun () ->
      let m = Mutex.create () in
      let events = ref [] in
      let on_event ev =
        Mutex.lock m;
        events := ev :: !events;
        Mutex.unlock m
      in
      let _, _, cells =
        E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names:[ "1S" ]
          ~mix_names:[ "LLHH" ] ~jobs:1 ~max_retries:1 ~on_event ()
      in
      Alcotest.(check int) "cell took two attempts" 2 cells.(0).E.Sweep.attempts;
      let events = List.rev !events in
      (match
         List.find_opt
           (function E.Sweep.Cell_retried _ -> true | _ -> false)
           events
       with
      | Some (E.Sweep.Cell_retried { mix; scheme; attempt; error }) ->
        Alcotest.(check string) "retried mix" "LLHH" mix;
        Alcotest.(check string) "retried scheme" "1S" scheme;
        Alcotest.(check int) "failed attempt number" 1 attempt;
        Alcotest.(check bool) "error text carried" true (error <> "")
      | _ -> Alcotest.fail "expected a Cell_retried event");
      Alcotest.(check int) "no Cell_degraded after recovery" 0
        (List.length
           (List.filter
              (function E.Sweep.Cell_degraded _ -> true | _ -> false)
              events)))

let test_json_logger_ndjson () =
  let dir = tmp_dir () in
  let path = Filename.concat dir "events.ndjson" in
  let oc = open_out path in
  let logger = E.Sweep.json_logger oc in
  let _, _, cells =
    E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names:[ "1S"; "2SC3" ]
      ~mix_names:[ "LLHH" ] ~jobs:2 ~on_event:logger ()
  in
  close_out oc;
  Alcotest.(check int) "cells" 2 (Array.length cells);
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))
  in
  (* sweep_started + 2 x (cell_started + cell_finished) + sweep_finished *)
  Alcotest.(check int) "one line per event" 6 (List.length lines);
  let tags =
    List.map
      (fun line ->
        match J.parse line with
        | Ok doc ->
          Option.value ~default:"?"
            (Option.bind (J.member "ev" doc) J.to_string_opt)
        | Error e -> Alcotest.fail ("NDJSON line unparseable: " ^ e))
      lines
  in
  Alcotest.(check string) "stream opens with sweep_started" "sweep_started"
    (List.hd tags);
  Alcotest.(check string) "stream closes with sweep_finished" "sweep_finished"
    (List.nth tags 5);
  List.iter
    (fun tag ->
      Alcotest.(check bool) ("known tag " ^ tag) true
        (List.mem tag
           [ "sweep_started"; "cell_started"; "cell_finished"; "sweep_finished" ]))
    tags

(* --- The acceptance property ----------------------------------------- *)

let scheme_subsets = [| [ "1S"; "3CCC" ]; [ "2SC3" ]; [ "3SSS"; "2SC3" ] |]
let mix_subsets = [| [ "LLHH" ]; [ "LLLL"; "HHHH" ]; [ "MMMM" ] |]

let cell_bits cells =
  Array.to_list
    (Array.map (fun (c : E.Sweep.cell) -> Int64.bits_of_float c.ipc) cells)

let ledger_cells cells =
  Array.map
    (fun (c : E.Sweep.cell) ->
      {
        L.mix = c.mix;
        scheme = c.scheme;
        ipc = c.ipc;
        elapsed_s = c.elapsed_s;
        started_s = c.started_s;
        worker = c.worker;
        attempts = c.attempts;
        degraded = c.error <> None;
      })
    cells

(* --- Structured logging ---------------------------------------------- *)

module Log = Vliw_util.Log

let test_log_render () =
  let sink = Buffer.create 256 in
  let t = ref 0.0 in
  let clock () =
    t := !t +. 1.5;
    !t
  in
  let log =
    Log.make ~level:Log.Debug ~format:Log.Human ~clock ~component:"serve"
      (fun line ->
        Buffer.add_string sink line;
        Buffer.add_char sink '\n')
  in
  let fields =
    [ ("job", Log.S "j-1"); ("cells", Log.I 9); ("wall_s", Log.F 0.25);
      ("cached", Log.B true); ("msg text", Log.S "two words") ]
  in
  let human = Log.render log ~ts:12.5 Log.Warn "job done" fields in
  Alcotest.(check bool) "level tag" true (contains ~needle:"warn" human);
  Alcotest.(check bool) "component tag" true (contains ~needle:"serve:" human);
  Alcotest.(check bool) "bare id unquoted" true (contains ~needle:"job=j-1" human);
  Alcotest.(check bool) "int field" true (contains ~needle:"cells=9" human);
  Alcotest.(check bool) "spacey value quoted" true
    (contains ~needle:"=\"two words\"" human);
  (* json mode: every line parses, fields are typed *)
  let jlog = Log.make ~format:Log.Json ~clock ~component:"dist" (fun l ->
      Buffer.add_string sink l) in
  Buffer.clear sink;
  Log.info jlog "worker up" [ ("worker", Log.I 3); ("addr", Log.S "w:1") ];
  (match J.parse (Buffer.contents sink) with
  | Error e -> Alcotest.fail ("json log line not JSON: " ^ e)
  | Ok doc ->
    Alcotest.(check bool) "level field" true
      (J.member "level" doc = Some (J.Str "info"));
    Alcotest.(check bool) "component field" true
      (J.member "component" doc = Some (J.Str "dist"));
    Alcotest.(check bool) "typed int field" true
      (J.member "worker" doc = Some (J.Num 3.0));
    (match J.member "ts" doc with
    | Some (J.Num ts) ->
      (* monotonic: seconds since logger creation, not wall time *)
      Alcotest.(check bool) "ts is an offset" true (ts >= 0.0 && ts < 60.0)
    | _ -> Alcotest.fail "no ts field"))

let test_log_levels () =
  let lines = ref [] in
  let log =
    Log.make ~level:Log.Warn ~component:"c" (fun l -> lines := l :: !lines)
  in
  Log.debug log "dropped" [];
  Log.info log "dropped" [];
  Log.warn log "kept" [];
  Log.error log "kept" [];
  Alcotest.(check int) "below-threshold records dropped" 2
    (List.length !lines);
  Alcotest.(check bool) "enabled matches" true
    (Log.enabled log Log.Error && not (Log.enabled log Log.Info));
  (* parsing the CLI spellings *)
  Alcotest.(check bool) "warning alias" true
    (Log.level_of_string "WARNING" = Ok Log.Warn);
  Alcotest.(check bool) "bad level rejected" true
    (match Log.level_of_string "loud" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "ndjson alias" true
    (Log.format_of_string "ndjson" = Ok Log.Json);
  (* with_component keeps the sink and threshold *)
  let sub = Log.with_component log "c/sub" in
  Log.error sub "tagged" [];
  match !lines with
  | latest :: _ ->
    Alcotest.(check bool) "recomponented" true (contains ~needle:"c/sub" latest)
  | [] -> Alcotest.fail "no line emitted"

(* The full observability stack — NDJSON event log, per-cell telemetry,
   ledger append + reload, OpenMetrics render + lint — around a sweep,
   returning the IPC bit images as simulated and as persisted. *)
let observed_sweep ~seed ~scheme_names ~mix_names ~jobs =
  let dir = tmp_dir () in
  let oc = open_out (Filename.concat dir "events.ndjson") in
  let logger = E.Sweep.json_logger oc in
  let resolved_schemes, resolved_mixes, cells =
    E.Sweep.run_cells ~scale:E.Common.Quick ~seed ~scheme_names ~mix_names
      ~jobs ~telemetry:true ~on_event:logger ()
  in
  close_out oc;
  let snap = E.Sweep.merged_telemetry cells in
  let run =
    L.append ~dir:(Filename.concat dir "runs")
      (L.make
         ~counters:snap.T.Counters.counters
         ~cells:(ledger_cells cells) ~cmd:"exp" ~label:"property"
         ~scale:"quick" ~seed ~jobs ~scheme_names:resolved_schemes
         ~mix_names:resolved_mixes ~wall_s:0.0 ())
  in
  if T.Openmetrics.lint (T.Openmetrics.of_run run) <> [] then
    failwith "observed sweep produced an invalid exposition";
  let reloaded =
    match L.find ~dir:(Filename.concat dir "runs") "latest" with
    | Some r -> r
    | None -> failwith "ledger lost the run"
  in
  let persisted_bits =
    Array.to_list
      (Array.map
         (fun (c : L.cell) -> Int64.bits_of_float c.ipc)
         reloaded.L.cells)
  in
  (cell_bits cells, persisted_bits)

let test_observability_inert =
  QCheck.Test.make ~count:3
    ~name:
      "ledger + metrics + event log leave the grid bit-identical (jobs 1 and 4)"
    QCheck.(triple (int_bound 1000) (int_bound 2) (int_bound 2))
    (fun (seed, si, mi) ->
      let seed = Int64.of_int seed in
      let scheme_names = scheme_subsets.(si)
      and mix_names = mix_subsets.(mi) in
      let _, _, reference_cells =
        E.Sweep.run_cells ~scale:E.Common.Quick ~seed ~scheme_names ~mix_names
          ~jobs:1 ()
      in
      let reference = cell_bits reference_cells in
      List.for_all
        (fun jobs ->
          let simulated, persisted =
            observed_sweep ~seed ~scheme_names ~mix_names ~jobs
          in
          simulated = reference && persisted = reference)
        [ 1; 4 ])

let suite =
  ( "observability",
    [
      Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
      QCheck_alcotest.to_alcotest test_json_float_bits;
      Alcotest.test_case "atomic file writes" `Quick test_atomic_io;
      Alcotest.test_case "ledger make + json" `Quick test_ledger_make_and_json;
      Alcotest.test_case "ledger store" `Quick test_ledger_store;
      Alcotest.test_case "ledger diff attribution" `Quick test_ledger_diff;
      Alcotest.test_case "openmetrics render lints clean" `Quick
        test_openmetrics_render_and_lint;
      Alcotest.test_case "openmetrics of_run" `Quick test_openmetrics_of_run;
      Alcotest.test_case "openmetrics lint catches violations" `Quick
        test_openmetrics_lint_catches;
      Alcotest.test_case "html report self-contained" `Quick
        test_html_report_self_contained;
      Alcotest.test_case "sweep event stream" `Quick test_sweep_event_stream;
      Alcotest.test_case "sweep retry events" `Quick test_sweep_retry_events;
      Alcotest.test_case "json logger writes NDJSON" `Quick
        test_json_logger_ndjson;
      Alcotest.test_case "structured log rendering" `Quick test_log_render;
      Alcotest.test_case "log levels and parsing" `Quick test_log_levels;
      QCheck_alcotest.to_alcotest test_observability_inert;
    ] )
