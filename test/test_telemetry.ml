(* The telemetry subsystem: counters, histograms, the event ring
   buffer, sinks, Chrome-trace export — and the two system-level
   guarantees: telemetry never changes simulation results, and the
   stall-attribution counters decompose wasted slots exactly. *)

module T = Vliw_telemetry
module E = Vliw_experiments

(* --- Counters -------------------------------------------------------- *)

let test_counters_basics () =
  let t = T.Counters.create () in
  let a = T.Counters.counter t "a" in
  let b = T.Counters.counter t "b" in
  T.Counters.add a 5;
  T.Counters.incr a;
  T.Counters.incr b;
  Alcotest.(check int) "a" 6 (T.Counters.value a);
  let a' = T.Counters.counter t "a" in
  T.Counters.incr a';
  Alcotest.(check int) "same name, same counter" 7 (T.Counters.value a);
  let s = T.Counters.snapshot t in
  Alcotest.(check (list (pair string int)))
    "snapshot name-sorted"
    [ ("a", 7); ("b", 1) ]
    s.counters;
  Alcotest.(check int) "count absent = 0" 0 (T.Counters.count s "zzz")

let test_counters_merge () =
  let mk pairs =
    let t = T.Counters.create () in
    List.iter (fun (n, v) -> T.Counters.add (T.Counters.counter t n) v) pairs;
    T.Counters.snapshot t
  in
  let m = T.Counters.merge (mk [ ("x", 1); ("y", 2) ]) (mk [ ("y", 40); ("z", 5) ]) in
  Alcotest.(check (list (pair string int)))
    "pointwise sum"
    [ ("x", 1); ("y", 42); ("z", 5) ]
    m.counters;
  Alcotest.(check (list (pair string int)))
    "empty is neutral" m.counters
    (T.Counters.merge T.Counters.empty m).counters

let test_histogram_quantiles () =
  let t = T.Counters.create () in
  let bounds = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let h = T.Counters.histogram t "h" ~bounds in
  (* 1..100 once each: with unit-wide buckets the bucketed quantile
     must track Stats.percentile closely. *)
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Array.iter (T.Counters.observe h) xs;
  let s = T.Counters.snapshot t in
  let hs = List.assoc "h" s.histograms in
  Alcotest.(check int) "total" 100 hs.total;
  List.iter
    (fun p ->
      let expect = Vliw_util.Stats.percentile xs p in
      let got = T.Counters.quantile hs p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within a bucket of Stats.percentile" p)
        true
        (abs_float (got -. expect) <= 1.0))
    [ 50.0; 90.0; 95.0; 99.0 ];
  Alcotest.(check (float 1e-9)) "mean" 50.5 (T.Counters.hist_mean hs);
  Alcotest.(check bool) "flat exposes p50" true
    (List.mem_assoc "h.p50" (T.Counters.flat s))

(* --- Recorder and sinks ---------------------------------------------- *)

let issue ~threads ~ops =
  T.Event.Issue
    { threads; threads_merged = List.length threads; slots_filled = ops }

let test_recorder_wraps () =
  let r = T.Recorder.create ~capacity:4 () in
  for c = 0 to 9 do
    T.Recorder.record r ~cycle:c (issue ~threads:[ c ] ~ops:1)
  done;
  Alcotest.(check int) "length capped" 4 (T.Recorder.length r);
  Alcotest.(check int) "dropped" 6 (T.Recorder.dropped r);
  Alcotest.(check (list int))
    "keeps newest, oldest-first"
    [ 6; 7; 8; 9 ]
    (List.map (fun (e : T.Recorder.entry) -> e.cycle) (T.Recorder.to_list r))

let test_sinks () =
  Alcotest.(check bool) "null disabled" false (T.Sink.enabled T.Sink.null);
  let hits = ref 0 in
  let counting = T.Sink.fn (fun ~cycle:_ _ -> incr hits) in
  Alcotest.(check bool) "fn enabled" true (T.Sink.enabled counting);
  T.Sink.emit T.Sink.null ~cycle:0 (issue ~threads:[ 0 ] ~ops:1);
  T.Sink.emit counting ~cycle:0 (issue ~threads:[ 0 ] ~ops:1);
  Alcotest.(check int) "null swallows, fn counts" 1 !hits

let test_event_keys () =
  let cases =
    [
      (T.Event.Fetch_stall { thread = 0; penalty = 20 }, "events.fetch_stall");
      ( T.Event.Merge_reject { thread = 1; reason = T.Event.Conflict },
        "events.merge_reject.conflict" );
      ( T.Event.Merge_reject { thread = 1; reason = T.Event.Capacity },
        "events.merge_reject.capacity" );
      ( T.Event.Merge_reject { thread = 1; reason = T.Event.Priority },
        "events.merge_reject.priority" );
      (issue ~threads:[ 0; 2 ] ~ops:5, "events.issue");
      ( T.Event.Cache_miss { thread = 3; level = T.Event.L1i },
        "events.cache_miss.l1i" );
      ( T.Event.Cache_miss { thread = 3; level = T.Event.L1d },
        "events.cache_miss.l1d" );
      ( T.Event.Bmt_switch { from_thread = 0; to_thread = 1 },
        "events.bmt_switch" );
      ( T.Event.Scheme_switch
          { from_scheme = "2SC3"; to_scheme = "3SSS"; penalty = 4 },
        "events.scheme_switch" );
    ]
  in
  List.iter
    (fun (ev, key) ->
      Alcotest.(check string) key key (T.Counters.event_name ev);
      Alcotest.(check bool)
        (key ^ " args render") true
        (List.for_all (fun (k, v) -> k <> "" && v <> "") (T.Event.args ev)))
    cases;
  Alcotest.(check (list string))
    "one name table, one slot per kind"
    (List.sort compare (List.map snd cases))
    (List.sort compare (Array.to_list T.Counters.event_names))

(* --- Simulator integration ------------------------------------------- *)

let run_with_counters ?policy scheme_name =
  let scheme = (Vliw_merge.Catalog.find_exn scheme_name).scheme in
  let config = Vliw_sim.Config.make ?policy scheme in
  let mix = Vliw_workloads.Mixes.find_exn "LLHH" in
  let counters = T.Counters.create () in
  let metrics =
    Vliw_sim.Multitask.run config ~schedule:Vliw_sim.Multitask.quick_schedule
      ~counters mix.members
  in
  (metrics, T.Counters.snapshot counters)

let test_attribution_exact_sum () =
  List.iter
    (fun (scheme, policy) ->
      let metrics, snap = run_with_counters ?policy scheme in
      let label =
        scheme ^ match policy with None -> "" | Some _ -> "+policy"
      in
      Alcotest.(check int)
        (label ^ ": attributed waste = wasted slots")
        (T.Report.wasted snap) (T.Report.attributed snap);
      Alcotest.(check int)
        (label ^ ": cycles counter matches metrics")
        metrics.Vliw_sim.Metrics.cycles
        (T.Counters.count snap "core.cycles");
      Alcotest.(check int)
        (label ^ ": offered slots match metrics")
        metrics.Vliw_sim.Metrics.slots_offered
        (T.Counters.count snap "slots.offered");
      Alcotest.(check int)
        (label ^ ": filled slots = ops issued")
        metrics.Vliw_sim.Metrics.ops
        (T.Counters.count snap "slots.filled");
      Alcotest.(check bool)
        (label ^ ": render mentions the total") true
        (let r = T.Report.render snap in
         let needle = "total wasted" in
         let n = String.length r and m = String.length needle in
         let rec go i = i + m <= n && (String.sub r i m = needle || go (i + 1)) in
         go 0))
    [
      ("2SC3", None);
      ("3SSS", None);
      ("C4", None);
      ("1S", None);
      ("2SC3", Some Vliw_sim.Policy.Imt);
      ("2SC3", Some (Vliw_sim.Policy.Bmt { switch_penalty = 4 }));
    ]

let test_events_match_metrics () =
  let scheme = (Vliw_merge.Catalog.find_exn "2SC3").scheme in
  let config = Vliw_sim.Config.make scheme in
  let mix = Vliw_workloads.Mixes.find_exn "MMHH" in
  let ops = ref 0 and issues = ref 0 in
  let sink =
    T.Sink.fn (fun ~cycle:_ ev ->
        match ev with
        | T.Event.Issue { slots_filled; _ } ->
          incr issues;
          ops := !ops + slots_filled
        | _ -> ())
  in
  let metrics =
    Vliw_sim.Multitask.run config ~schedule:Vliw_sim.Multitask.quick_schedule
      ~telemetry:sink mix.members
  in
  Alcotest.(check int) "sum of Issue slots = ops" metrics.Vliw_sim.Metrics.ops !ops;
  Alcotest.(check bool) "issue events occurred" true (!issues > 0)

(* --- Event counter slots ----------------------------------------------- *)

(* Every field of a snapshot, floats in exact hex, as one string. *)
let snapshot_text (s : T.Counters.snapshot) =
  let floats a =
    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a))
  in
  String.concat "\n"
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.counters
    @ List.map
        (fun (k, (h : T.Counters.hist_snapshot)) ->
          Printf.sprintf "%s bounds=%s counts=%s total=%d sum=%h min=%h max=%h"
            k (floats h.bounds)
            (String.concat "," (Array.to_list (Array.map string_of_int h.counts)))
            h.total h.sum h.vmin h.vmax)
        s.histograms)

(* The full registry of a quick 2SC3/MMHH run — counters, event slots
   and both issue histograms — pinned per policy. The digests were
   taken from the by-name counting sink that the slots replace. *)
let test_snapshot_golden () =
  List.iter
    (fun (label, policy, digest) ->
      let config =
        Vliw_sim.Config.make ~policy (Vliw_merge.Catalog.find_exn "2SC3").scheme
      in
      let counters = T.Counters.create () in
      ignore
        (Vliw_sim.Multitask.run config
           ~schedule:Vliw_sim.Multitask.quick_schedule ~counters
           (Vliw_workloads.Mixes.find_exn "MMHH").members);
      Alcotest.(check string)
        (label ^ " snapshot digest")
        digest
        (Digest.to_hex
           (Digest.string (snapshot_text (T.Counters.snapshot counters)))))
    [
      ("merged", Vliw_sim.Policy.Merged, "e20d24eff8a8af51040ddaf9bdf21e06");
      ("imt", Vliw_sim.Policy.Imt, "16ab4808f0ee717357b0b5c8758909e9");
      ( "bmt4",
        Vliw_sim.Policy.Bmt { switch_penalty = 4 },
        "0116b9145054e2e91cf717248c7c772a" );
    ]

(* Per-name tallies of the events a sink records. *)
let tallying_sink () =
  let tally = Hashtbl.create 16 in
  let sink =
    T.Sink.fn (fun ~cycle:_ ev ->
        let k = T.Counters.event_name ev in
        Hashtbl.replace tally k
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
  in
  (tally, sink)

let event_counts (s : T.Counters.snapshot) =
  List.filter
    (fun (k, _) -> Array.mem k T.Counters.event_names)
    s.counters

(* The slot path and the event path agree: with counters and a recording
   sink both attached, the recorded events tallied by name equal the
   snapshot's [events.*] counters. *)
let test_slots_match_recorded_events =
  let schemes = [| "1S"; "C4"; "3CCC"; "3SSS"; "2SC3" |] in
  let mixes = [| "LLHH"; "MMHH"; "HHHH"; "LLLL" |] in
  let policies =
    [|
      Vliw_sim.Policy.Merged;
      Vliw_sim.Policy.Imt;
      Vliw_sim.Policy.Bmt { switch_penalty = 0 };
      Vliw_sim.Policy.Bmt { switch_penalty = 4 };
    |]
  in
  QCheck.Test.make ~count:12
    ~name:"event slots = recorded event tallies (scheme x mix x policy)"
    QCheck.(
      triple
        (int_bound (Array.length schemes - 1))
        (int_bound (Array.length mixes - 1))
        (int_bound (Array.length policies - 1)))
    (fun (si, mi, pi) ->
      let config =
        Vliw_sim.Config.make ~policy:policies.(pi)
          (Vliw_merge.Catalog.find_exn schemes.(si)).scheme
      in
      let counters = T.Counters.create () in
      let tally, telemetry = tallying_sink () in
      ignore
        (Vliw_sim.Multitask.run config
           ~schedule:Vliw_sim.Multitask.quick_schedule ~telemetry ~counters
           (Vliw_workloads.Mixes.find_exn mixes.(mi)).members);
      let recorded =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
        |> List.sort compare
      in
      recorded <> [] && recorded = event_counts (T.Counters.snapshot counters))

(* Replacing the recording sink mid-run must not touch counting: the
   event slots keep up with the core's own statistics over the whole
   run, and the new sink sees exactly the cycles after the swap. *)
let test_set_sink_keeps_counting () =
  let config = Vliw_sim.Config.make (Vliw_merge.Catalog.find_exn "2SC3").scheme in
  let rng = Vliw_util.Rng.create 11L in
  let threads =
    List.mapi
      (fun id p ->
        let program =
          Vliw_compiler.Program.generate ~seed:(Vliw_util.Rng.next_int64 rng)
            config.Vliw_sim.Config.machine p
        in
        Vliw_sim.Thread_state.create ~id ~seed:(Vliw_util.Rng.next_int64 rng)
          program)
      (Vliw_workloads.Mixes.find_exn "MMHH").members
  in
  let counters = T.Counters.create () in
  let mem = Vliw_mem.Mem_system.create config.Vliw_sim.Config.machine in
  let core = Vliw_sim.Core.create ~counters config mem in
  Vliw_sim.Core.install core
    (Array.init (Vliw_sim.Config.contexts config) (fun i ->
         List.nth_opt threads i));
  let n = 3000 and m = 500 in
  for _ = 1 to n do
    Vliw_sim.Core.step core
  done;
  let issues_before = T.Counters.count (T.Counters.snapshot counters) "events.issue" in
  let recorder = T.Recorder.create ~capacity:(m * 16) () in
  Vliw_sim.Core.set_sink core (T.Recorder.sink recorder);
  for _ = 1 to m do
    Vliw_sim.Core.step core
  done;
  let snap = T.Counters.snapshot counters in
  let issues = T.Counters.count snap "events.issue" in
  let slots = List.assoc "issue.slots_filled" snap.histograms in
  let hist = Vliw_sim.Core.issue_hist core in
  Alcotest.(check int) "events.issue = issuing cycles over N + M" (n + m - hist.(0))
    issues;
  Alcotest.(check int) "events.issue = slots_filled histogram total" issues
    slots.total;
  Alcotest.(check (float 0.0)) "histogram sum = slots.filled"
    (float_of_int (T.Counters.count snap "slots.filled"))
    slots.sum;
  Alcotest.(check int) "nothing dropped" 0 (T.Recorder.dropped recorder);
  let entries = T.Recorder.to_list recorder in
  Alcotest.(check bool) "only the last M cycles recorded" true
    (entries <> []
    && List.for_all (fun (e : T.Recorder.entry) -> e.cycle >= n) entries);
  Alcotest.(check int) "recorded issues = slot delta over M" (issues - issues_before)
    (List.length
       (List.filter
          (fun (e : T.Recorder.entry) ->
            match e.event with T.Event.Issue _ -> true | _ -> false)
          entries))

(* The acceptance property: telemetry is observation-only. The (mix x
   scheme) IPC grid must be bit-identical with per-cell counters
   attached vs without, at jobs=1 and jobs=4. *)
let grid_equal a b =
  a.E.Common.scheme_names = b.E.Common.scheme_names
  && a.E.Common.mix_names = b.E.Common.mix_names
  && a.E.Common.ipc = b.E.Common.ipc

let scheme_subsets = [| [ "1S"; "3CCC" ]; [ "2SC3" ]; [ "3SSS"; "2SC3" ] |]

let mix_subsets = [| [ "LLHH" ]; [ "LLLL"; "HHHH" ]; [ "MMMM" ] |]

let test_telemetry_observation_only =
  QCheck.Test.make ~count:3
    ~name:"sweep: telemetry on/off bit-identical at jobs=1 and jobs=4"
    QCheck.(triple (int_bound 1000) (int_bound 2) (int_bound 2))
    (fun (seed, si, mi) ->
      let run ~jobs ~telemetry =
        let scheme_names, mix_names, cells =
          E.Sweep.run_cells ~scale:E.Common.Quick ~seed:(Int64.of_int seed)
            ~scheme_names:scheme_subsets.(si) ~mix_names:mix_subsets.(mi) ~jobs
            ~telemetry ()
        in
        E.Sweep.grid_of_cells ~scheme_names ~mix_names cells
      in
      let reference = run ~jobs:1 ~telemetry:false in
      grid_equal reference (run ~jobs:1 ~telemetry:true)
      && grid_equal reference (run ~jobs:4 ~telemetry:true)
      && grid_equal reference (run ~jobs:4 ~telemetry:false))

(* --- Chrome trace export --------------------------------------------- *)

(* Minimal structural JSON check: braces/brackets balance outside
   strings, and the document is a single object. Not a full parser, but
   catches unterminated strings, trailing commas in our writer, and
   unbalanced nesting; the CI smoke job runs a real parser on top. *)
let json_balanced s =
  let depth = ref 0 and in_str = ref false and esc = ref false and ok = ref true in
  String.iter
    (fun c ->
      if !in_str then
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
        else ()
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
          decr depth;
          if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let contains ~needle haystack =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let test_chrome_trace_of_recorder () =
  let machine = Vliw_isa.Machine.make ~clusters:2 () in
  let scheme = (Vliw_merge.Catalog.find_exn "1S").scheme in
  let config = Vliw_sim.Config.make ~machine scheme in
  let profiles =
    [
      Vliw_workloads.Benchmarks.find_exn "mcf";
      Vliw_workloads.Benchmarks.find_exn "g721encode";
    ]
  in
  let options =
    { Vliw_sim.Trace.cycles = 200; warmup = 50; perfect_mem = false; seed = 0x7ACEL }
  in
  let lanes, recorder = Vliw_sim.Trace.record config ~options profiles in
  Alcotest.(check (list string)) "lane names" [ "T0:mcf"; "T1:g721encode" ] lanes;
  Alcotest.(check bool) "events recorded" true (T.Recorder.length recorder > 0);
  let json = T.Chrome_trace.of_recorder ~lanes recorder in
  Alcotest.(check bool) "balanced JSON" true (json_balanced json);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle json))
    [ "traceEvents"; "thread_name"; "T0:mcf"; "T1:g721encode"; "issue" ]

let test_sweep_telemetry_exports () =
  let _, _, cells =
    E.Sweep.run_cells ~scale:E.Common.Quick ~scheme_names:[ "1S"; "2SC3" ]
      ~mix_names:[ "LLHH" ] ~jobs:2 ~telemetry:true ()
  in
  Alcotest.(check int) "two cells" 2 (Array.length cells);
  Array.iter
    (fun (c : E.Sweep.cell) ->
      Alcotest.(check bool) "cell has telemetry" true (c.telemetry <> None);
      Alcotest.(check bool) "worker id in range" true
        (c.worker >= 0 && c.worker < 2);
      Alcotest.(check bool) "start offset sane" true (c.started_s >= 0.0))
    cells;
  let snap = E.Sweep.merged_telemetry cells in
  Alcotest.(check bool) "merged cycles > 0" true
    (T.Counters.count snap "core.cycles" > 0);
  Alcotest.(check int) "merged attribution still exact"
    (T.Report.wasted snap) (T.Report.attributed snap);
  let json = E.Sweep.chrome_trace cells in
  Alcotest.(check bool) "sweep trace balanced" true (json_balanced json);
  Alcotest.(check bool) "worker lane named" true
    (contains ~needle:"worker 0" json);
  Alcotest.(check bool) "cell slice named" true
    (contains ~needle:"LLHH/2SC3" json);
  let header, rows = E.Sweep.telemetry_csv cells in
  Alcotest.(check (list string))
    "csv header" [ "mix"; "scheme"; "counter"; "value" ] header;
  Alcotest.(check bool) "csv rows present" true (List.length rows > 0);
  List.iter
    (fun row -> Alcotest.(check int) "csv row width" 4 (List.length row))
    rows;
  (* Counters.to_csv on the merged snapshot feeds Vliw_util.Csv too. *)
  let h2, r2 = T.Counters.to_csv snap in
  Alcotest.(check (list string)) "counter csv header" [ "counter"; "value" ] h2;
  Alcotest.(check bool) "counter csv writes" true
    (String.length (Vliw_util.Csv.to_string ~header:h2 r2) > 0)

(* --- Spans ----------------------------------------------------------- *)

module Span = T.Span
module J = Vliw_util.Json

(* Ids come from the collector's SplitMix64 stream, timestamps from its
   injectable clock — same seed and clock, same span tree, no [Random]
   or wall-clock dependence. *)
let test_span_deterministic () =
  let mk () =
    let t = ref 0.0 in
    let clock () =
      t := !t +. 0.25;
      !t
    in
    Span.collector ~clock ~seed:42L ()
  in
  let c1 = mk () and c2 = mk () in
  let ids c = List.init 5 (fun _ -> Span.fresh_id c) in
  Alcotest.(check (list int64)) "same seed, same id stream" (ids c1) (ids c2);
  Alcotest.(check bool) "injected clock ticks" true
    (Span.now c1 = 0.25 && Span.now c1 = 0.5)

let test_span_codec () =
  let c = Span.collector ~clock:(fun () -> 0.0) ~seed:7L () in
  let trace = Span.fresh_id c in
  let root =
    Span.record c ~trace ~kind:Span.Submit ~name:"job" ~lane:"server"
      ~start_s:1.0 ~dur_s:0x1.fffp-3 ()
  in
  let child =
    Span.record c ~trace ~parent:root.Span.id ~kind:Span.Simulate_cell
      ~name:"LLHH/C4" ~lane:"pool 0" ~start_s:1.1 ~dur_s:0.05 ()
  in
  List.iter
    (fun s ->
      match Span.of_json (Span.to_json s) with
      | Ok s' -> Alcotest.(check bool) "bit-exact round trip" true (s = s')
      | Error e -> Alcotest.fail ("round trip failed: " ^ e))
    [ root; child ];
  (match Span.list_of_json (Span.list_to_json (Span.spans c)) with
  | Ok ss ->
    Alcotest.(check bool) "list round trip" true (ss = Span.spans c)
  | Error e -> Alcotest.fail ("list round trip failed: " ^ e));
  (* hex ids survive, including the sign bit *)
  (match Span.id_of_hex (Span.id_to_hex (-1L)) with
  | Ok v -> Alcotest.(check int64) "hex id round trip" (-1L) v
  | Error e -> Alcotest.fail e);
  (* strict about field types: a numeric name is rejected, and absent
     [parent] means a root span (old peers stay parseable) *)
  (match Span.of_json (J.Obj [ ("name", J.Num 3.0) ]) with
  | Ok _ -> Alcotest.fail "typed-field violation accepted"
  | Error _ -> ());
  Alcotest.(check bool) "absent parent = root" true (root.Span.parent = None)

let test_span_validate () =
  let mk ?parent ~id ~start_s ~dur_s () =
    {
      Span.trace = 1L;
      id;
      parent;
      kind = Span.Shard;
      name = "s";
      lane = "w";
      start_s;
      dur_s;
    }
  in
  let root = mk ~id:10L ~start_s:0.0 ~dur_s:1.0 () in
  let child = mk ~parent:10L ~id:11L ~start_s:0.2 ~dur_s:0.5 () in
  Alcotest.(check (list string))
    "well-nested forest is clean" []
    (Span.validate [ root; child ]);
  Alcotest.(check bool) "orphan parent flagged" true
    (Span.validate [ mk ~parent:99L ~id:12L ~start_s:0.0 ~dur_s:0.1 () ] <> []);
  Alcotest.(check bool) "escaping child flagged" true
    (Span.validate [ root; mk ~parent:10L ~id:13L ~start_s:0.9 ~dur_s:5.0 () ]
    <> []);
  Alcotest.(check bool) "slack forgives clock skew" true
    (Span.validate ~slack_s:10.0
       [ root; mk ~parent:10L ~id:13L ~start_s:0.9 ~dur_s:5.0 () ]
    = []);
  Alcotest.(check bool) "negative duration flagged" true
    (Span.validate [ mk ~id:14L ~start_s:0.0 ~dur_s:(-1.0) () ] <> [])

let test_span_gauges_and_chrome () =
  let c = Span.collector ~clock:(fun () -> 0.0) ~seed:3L () in
  let trace = Span.fresh_id c in
  let root =
    Span.record c ~trace ~kind:Span.Submit ~name:"job-1" ~lane:"server"
      ~start_s:0.0 ~dur_s:1.0 ()
  in
  for i = 0 to 3 do
    ignore
      (Span.record c ~trace ~parent:root.Span.id ~kind:Span.Simulate_cell
         ~name:(Printf.sprintf "cell-%d" i) ~lane:"pool 0"
         ~start_s:(0.1 *. float_of_int i)
         ~dur_s:(0.01 *. float_of_int (i + 1))
         ())
  done;
  let spans = Span.spans c in
  let g = Span.latency_gauges spans in
  let get k = List.assoc k g in
  Alcotest.(check (float 0.0)) "submit count" 1.0 (get "span.submit.count");
  Alcotest.(check (float 0.0))
    "simulate count" 4.0
    (get "span.simulate_cell.count");
  Alcotest.(check (float 1e-12))
    "p50 is an observed duration" 0.02
    (get "span.simulate_cell.p50");
  Alcotest.(check (float 1e-12))
    "p99 is the max sample" 0.04
    (get "span.simulate_cell.p99");
  (* histograms feed a lint-clean exposition *)
  let reg = T.Counters.create () in
  Span.observe_histograms reg spans;
  let snap = T.Counters.snapshot reg in
  Alcotest.(check bool) "histogram series present" true
    (List.mem_assoc "span.submit.seconds" snap.T.Counters.histograms);
  let text = T.Openmetrics.render ~snapshot:snap ~gauges:g () in
  Alcotest.(check (list string)) "span exposition lints clean" []
    (T.Openmetrics.lint text);
  (* Chrome export: valid JSON, ids in args so the tree is rebuildable *)
  let chrome = Span.to_chrome ~process_name:"test" spans in
  (match J.parse chrome with
  | Error e -> Alcotest.fail ("chrome trace not JSON: " ^ e)
  | Ok doc -> (
    match J.member "traceEvents" doc with
    | Some (J.List evs) ->
      let xs =
        List.filter
          (fun e -> J.member "ph" e = Some (J.Str "X"))
          evs
      in
      Alcotest.(check int) "one slice per span" (List.length spans)
        (List.length xs);
      List.iter
        (fun e ->
          match J.member "args" e with
          | Some (J.Obj args) ->
            Alcotest.(check bool) "span id in args" true
              (List.mem_assoc "span" args)
          | _ -> Alcotest.fail "slice without args")
        xs
    | _ -> Alcotest.fail "no traceEvents list"));
  Alcotest.(check bool) "server lane present" true
    (contains ~needle:"server" chrome)

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "counters basics" `Quick test_counters_basics;
      Alcotest.test_case "counters merge" `Quick test_counters_merge;
      Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
      Alcotest.test_case "recorder ring buffer" `Quick test_recorder_wraps;
      Alcotest.test_case "sinks" `Quick test_sinks;
      Alcotest.test_case "event keys and args" `Quick test_event_keys;
      Alcotest.test_case "stall attribution sums exactly" `Quick
        test_attribution_exact_sum;
      Alcotest.test_case "issue events match metrics" `Quick
        test_events_match_metrics;
      Alcotest.test_case "counter snapshot golden digests" `Quick
        test_snapshot_golden;
      QCheck_alcotest.to_alcotest test_slots_match_recorded_events;
      Alcotest.test_case "set_sink keeps event counting" `Quick
        test_set_sink_keeps_counting;
      QCheck_alcotest.to_alcotest test_telemetry_observation_only;
      Alcotest.test_case "chrome trace of a recorder" `Quick
        test_chrome_trace_of_recorder;
      Alcotest.test_case "sweep telemetry exports" `Quick
        test_sweep_telemetry_exports;
      Alcotest.test_case "span collector deterministic" `Quick
        test_span_deterministic;
      Alcotest.test_case "span wire codec" `Quick test_span_codec;
      Alcotest.test_case "span validate" `Quick test_span_validate;
      Alcotest.test_case "span gauges, histograms, chrome" `Quick
        test_span_gauges_and_chrome;
    ] )
