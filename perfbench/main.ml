(* perfbench: the repository's benchmark.

     main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
                  [--trace-out FILE] [--out FILE]
     main.exe list
     main.exe compare PARENT.ndjson CHANGE.ndjson
     main.exe check [BENCHMARK.json]

   [run] runs one workload's rounds for S seconds and prints, as the
   last line of stdout, one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics untraced, the
   per-layer metrics with --trace 1. A human table goes to stderr.
   Usage errors exit 2; a run whose outputs fail a check prints its
   result and exits 1. [worker], [serve-daemon] and [round] are
   internal: the fleet's workers, the service daemon and one untraced
   in-process round in its own process. *)

module J = Vliw_util.Json
module P = Probe
module W = Workload

let usage () =
  prerr_string
    "usage: main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
    \                    [--trace-out FILE] [--out FILE]\n\
    \       main.exe list\n\
    \       main.exe compare PARENT.ndjson CHANGE.ndjson\n\
    \       main.exe check [BENCHMARK.json]\n";
  exit 2

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      usage ())
    fmt

(* [--flag value] pairs plus positional arguments; any flag outside
   [allowed], or a flag without its value, is a usage error. *)
let parse_args ~allowed args =
  let rec go flags pos = function
    | [] -> (List.rev flags, List.rev pos)
    | f :: rest when String.starts_with ~prefix:"--" f -> (
      if not (List.mem f allowed) then die "unknown option %s" f;
      match rest with
      | v :: rest -> go ((f, v) :: flags) pos rest
      | [] -> die "option %s needs a value" f)
    | a :: rest -> go flags (a :: pos) rest
  in
  go [] [] args

let int_flag flags name ~default =
  match List.assoc_opt name flags with
  | None -> default
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s expects an integer, got %S" name v)

(* --- run ----------------------------------------------------------------- *)

let bench_file = "BENCHMARK.json"

(* Fixed allocation-free integer loop, the same calibration the legacy
   [bench --json] records, so runs on different hosts can be scaled. *)
let calibrate () =
  let rng = Vliw_util.Rng.create 0x5CA1AB1EL in
  let acc = ref 0 in
  let t0 = P.now () in
  for _ = 1 to 25_000_000 do
    acc := !acc lxor Vliw_util.Rng.int rng 1024
  done;
  ignore (Sys.opaque_identity !acc);
  P.now () -. t0

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ | (exception _) -> "unknown")

type outcome = { untraced : W.round list; traced : W.round list }

(* Whole rounds while the next one, taking as long as the last, still
   ends inside the window; at least one. When tracing, rounds alternate
   untraced and traced, at least one of each, so the trace overhead
   compares rounds run side by side. *)
let measure (w : W.t) ctx ~seconds ~trace =
  let round = w.prepare ctx in
  let t_end = P.now () +. float_of_int seconds in
  let untraced = ref [] and traced = ref [] in
  let rec loop k =
    let tracing = trace && k mod 2 = 1 in
    let r, dt = P.timed (fun () -> round ~traced:tracing) in
    if tracing then traced := r :: !traced else untraced := r :: !untraced;
    if (trace && !traced = []) || P.now () +. dt <= t_end then loop (k + 1)
  in
  loop 0;
  { untraced = List.rev !untraced; traced = List.rev !traced }

(* Each round's own latency median, then the median over rounds: a
   burst of host noise shorter than a run moves one round, not the run. *)
let e2e_metrics o =
  let med f = P.median (List.map f o.untraced) in
  [
    ("setup_s", med (fun (r : W.round) -> r.setup_s));
    ("wall_s", med (fun (r : W.round) -> r.wall_s));
    ("op_ms_p50", med (fun (r : W.round) -> P.median r.ops_ms));
  ]

let round_layer_metrics o ~peak_rss_mb =
  let wall rounds = P.median (List.map (fun (r : W.round) -> r.wall_s) rounds) in
  let traces = List.filter_map (fun (r : W.round) -> r.trace) o.traced in
  let med f = P.median (List.map f traces) in
  let share layer =
    med (fun (t : W.trace) ->
        Option.value (List.assoc_opt layer t.busy) ~default:0.0 /. (t.round_s *. t.lanes))
  in
  let compile = share "compile" and simulate = share "simulate" and control = share "control" in
  let extras =
    List.sort_uniq compare (List.concat_map (fun (t : W.trace) -> List.map fst t.extra) traces)
  in
  [
    ("trace.overhead_frac", (wall o.traced /. wall o.untraced) -. 1.0);
    ("trace.closure_ratio", med (fun (t : W.trace) -> t.covered_s /. t.round_s));
    ("layer.compile_frac", compile);
    ("layer.simulate_frac", simulate);
    ("layer.control_frac", control);
    ("layer.residual_frac", 1.0 -. compile -. simulate -. control);
    ("proc.peak_rss_mb", peak_rss_mb);
  ]
  @ List.map
      (fun name ->
        (name, med (fun (t : W.trace) -> Option.value (List.assoc_opt name t.extra) ~default:0.0)))
      extras

(* A traced run is correct only if its layers close: the fast path
   allocates nothing, whole simulations cost their cycles times the
   replayed per-cycle cost within 15%, and on grid-default the spans
   around [prepare_row] and [simulate_prepared] cover the traced round
   within 3%. Outside these, a layer is missing from the numbers. *)
let closure_problems ~workload values =
  let v name = Option.value (List.assoc_opt name values) ~default:nan in
  let outside name lo hi =
    let x = v name in
    if x >= lo && x <= hi then None else Some (Printf.sprintf "%s = %g, want [%g, %g]" name x lo hi)
  in
  List.filter_map Fun.id
    (List.map
       (fun s -> outside ("core.words_per_cycle." ^ s) 0.0 0.0)
       Layers.step_schemes
    @ [ outside "core.closure_ratio" 0.85 1.15 ]
    @ if workload = "grid-default" then [ outside "trace.closure_ratio" 0.97 1.03 ] else [])

let metrics_json values (decls : P.metric list) =
  J.Obj
    (List.map
       (fun (m : P.metric) ->
         let v = Option.value (List.assoc_opt m.name values) ~default:0.0 in
         (m.name, J.Obj [ ("value", J.Num v); ("unit", J.Str m.unit) ]))
       decls)

let print_table ~title values (decls : P.metric list) =
  Printf.eprintf "\n%s\n" title;
  List.iter
    (fun (m : P.metric) ->
      let v = Option.value (List.assoc_opt m.name values) ~default:0.0 in
      Printf.eprintf "  %-40s %14.6g %s\n" m.name v m.unit)
    decls;
  flush stderr

let run flags =
  let workload =
    match List.assoc_opt "--workload" flags with
    | None -> die "run needs --workload (one of %s)" (String.concat ", " W.names)
    | Some name -> (
      match W.find name with
      | Some w -> w
      | None -> die "unknown workload %S (one of %s)" name (String.concat ", " W.names))
  in
  let seed =
    Int64.of_int
      (int_flag flags "--seed"
         ~default:(Int64.to_int Vliw_experiments.Common.default_seed))
  in
  let seconds = int_flag flags "--seconds" ~default:15 in
  if seconds < 1 then die "--seconds must be positive";
  let trace =
    match int_flag flags "--trace" ~default:0 with
    | 0 -> false
    | 1 -> true
    | n -> die "--trace expects 0 or 1, got %d" n
  in
  (match Decl.load bench_file with
  | Ok doc -> (
    match Decl.problems doc with
    | [] -> ()
    | errs ->
      List.iter (fun e -> prerr_endline ("perfbench: " ^ bench_file ^ ": " ^ e)) errs;
      exit 1)
  | Error e ->
    prerr_endline ("perfbench: cannot read " ^ bench_file ^ ": " ^ e);
    exit 1);
  let scratch = Printf.sprintf ".bench_build/perfbench-%d" (Unix.getpid ()) in
  P.mkdir_p scratch;
  let ctx = { W.seed; exe = Sys.executable_name; scratch } in
  let o, peak_rss_mb, suite, suite_spans =
    Fun.protect
      ~finally:(fun () -> P.remove_tree scratch)
      (fun () ->
        let o = measure workload ctx ~seconds ~trace in
        (* read before the layer suite, whose replay buffers are its own *)
        let peak_rss_mb = P.peak_rss_mb () in
        if trace then begin
          let buf = P.spans () in
          let suite = Layers.run ~seed ~scratch buf in
          (o, peak_rss_mb, suite, buf.items)
        end
        else (o, peak_rss_mb, [], []))
  in
  let rounds = o.untraced @ o.traced in
  let digests = List.sort_uniq compare (List.map (fun (r : W.round) -> r.digest) rounds) in
  let digest = List.hd digests in
  let pinned = seed = Vliw_experiments.Common.default_seed in
  let digest_ok = List.length digests = 1 && ((not pinned) || digest = workload.pinned) in
  let attempted = List.fold_left (fun n (r : W.round) -> n + List.length r.ops_ms) 0 rounds in
  let failed =
    if digest_ok then List.fold_left (fun n (r : W.round) -> n + r.failed) 0 rounds
    else attempted
  in
  Printf.eprintf "perfbench %s: seed %Ld, %d rounds (%d traced), %d ops, digest %s%s\n"
    workload.name seed (List.length rounds) (List.length o.traced) attempted
    (String.concat "," digests)
    (if digest_ok then "" else
       if pinned then Printf.sprintf " MISMATCH (pinned %s)" workload.pinned
       else " MISMATCH (rounds disagree)");
  let values, decls =
    if trace then (suite @ round_layer_metrics o ~peak_rss_mb, Decl.per_layer)
    else (e2e_metrics o, Decl.end_to_end)
  in
  print_table
    ~title:(if trace then "per-layer metrics (traced run)" else "end-to-end metrics")
    values decls;
  let trace_problems =
    if not trace then []
    else begin
      let path =
        match List.assoc_opt "--trace-out" flags with
        | Some p -> p
        | None -> Printf.sprintf ".bench_build/perfbench-%s.trace.json" workload.name
      in
      let items =
        suite_spans
        @ List.concat_map
            (fun (r : W.round) -> match r.trace with Some t -> t.spans | None -> [])
            o.traced
      in
      P.mkdir_p (Filename.dirname path);
      P.write_chrome ~path ~process_name:("perfbench " ^ workload.name) items;
      Printf.eprintf "chrome trace: %s (%d spans)\n" path (List.length items);
      (match J.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok _ -> []
      | Error e -> [ "chrome trace does not parse: " ^ e ])
      @ closure_problems ~workload:workload.name values
    end
  in
  List.iter (fun p -> prerr_endline ("perfbench: closure: " ^ p)) trace_problems;
  let correct = digest_ok && failed = 0 && trace_problems = [] in
  let metrics = metrics_json values decls in
  Option.iter
    (fun path ->
      let record =
        J.Obj
          [
            ("workload", J.Str workload.name);
            ("seed", J.Num (Int64.to_float seed));
            ("traced", J.Bool trace);
            ("rounds", J.Num (float_of_int (List.length rounds)));
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed));
            ("digest", J.Str digest);
            ("digest_ok", J.Bool digest_ok);
            ("metrics", metrics);
            ( "provenance",
              J.Obj
                [
                  ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
                  ("ocaml", J.Str Sys.ocaml_version);
                  ("git_rev", J.Str (git_rev ()));
                  ("calibration_s", J.Num (calibrate ()));
                ] );
          ]
      in
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (J.to_string record ^ "\n");
      close_out oc)
    (List.assoc_opt "--out" flags);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int attempted));
            ("failed", J.Num (float_of_int failed));
            ("metrics", metrics);
          ]));
  exit (if correct then 0 else 1)

(* --- list / check --------------------------------------------------------- *)

let list () =
  List.iter (fun n -> Printf.printf "workload %s\n" n) W.names;
  List.iter
    (fun (m : P.metric) -> Printf.printf "end_to_end %s %s %s\n" m.name m.unit m.better)
    Decl.end_to_end;
  List.iter
    (fun (m : P.metric) ->
      let e, w = Decl.moves m.name in
      Printf.printf "per_layer %s %s %s moves %s@%s\n" m.name m.unit m.better e w)
    Decl.per_layer

(* The declaration matches the code, and the command line rejects what
   it should with exit 2. *)
let check path =
  let errs =
    match Decl.load path with
    | Ok doc -> Decl.problems doc
    | Error e -> [ "cannot parse: " ^ e ]
  in
  let usage_cases =
    [
      [ "run"; "--workload"; "nope" ];
      [ "run"; "--workload"; "grid-default"; "--bogus"; "1" ];
      [ "run"; "--workload"; "grid-default"; "--seed"; "x" ];
      [ "run"; "--workload"; "grid-default"; "--trace"; "2" ];
      [ "frobnicate" ];
    ]
  in
  let errs =
    errs
    @ List.filter_map
        (fun args ->
          match P.run_quiet (Array.of_list (Sys.executable_name :: args)) with
          | 2 -> None
          | n -> Some (Printf.sprintf "'%s' exited %d, want 2" (String.concat " " args) n))
        usage_cases
  in
  List.iter (fun e -> prerr_endline ("perfbench check: " ^ e)) errs;
  if errs = [] then
    Printf.printf "%s: %d workloads, %d end-to-end and %d per-layer metrics, all consistent\n"
      path (List.length W.names) (List.length Decl.end_to_end) (List.length Decl.per_layer);
  exit (if errs = [] then 0 else 1)

let main () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> (
    match parse_args ~allowed:[ "--workload"; "--seed"; "--seconds"; "--trace"; "--trace-out"; "--out" ] rest with
    | flags, [] -> run flags
    | _, extra -> die "unexpected argument %s" (List.hd extra))
  | [ _; "list" ] -> list ()
  | [ _; "compare"; parent; change ] -> exit (Compare.run ~bench:bench_file parent change)
  | [ _; "check" ] -> check bench_file
  | [ _; "check"; path ] -> check path
  | [ _; "serve-daemon"; dir ] ->
    Vliw_service.Server.run
      {
        Vliw_service.Server.default_config with
        socket_path = Some (Filename.concat dir "svc.sock");
        runs_dir = dir;
        jobs = 1;
      }
  | [ _; "worker" ] -> Vliw_dist.Worker.serve ~input:Unix.stdin ~output:Unix.stdout ()
  | [ _; "round"; name; seed ] -> (
    match Option.bind (W.find name) (fun w -> w.child) with
    | Some child ->
      let ctx = { W.seed = Int64.of_string seed; exe = Sys.executable_name; scratch = "" } in
      print_endline (J.to_string (W.report_to_json (child ctx)))
    | None -> die "no child round for workload %S" name)
  | _ -> usage ()

(* Usage errors exit 2 from [die]; anything that fails while running is
   a runtime error, exit 1, with no result line. *)
let () =
  try main ()
  with e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
