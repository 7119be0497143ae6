(* vliwsim: command-line driver for the thread-merging reproduction.

   Subcommands:
   - exp: regenerate a paper table/figure (or all of them)
   - run: one simulation of a scheme on a workload, with ablation flags
   - check: run the self-check battery (invariants + select oracle probe)
   - schemes: list the scheme catalog with hardware costs
   - benchmarks: list the benchmark profiles

   Exit codes (uniform across subcommands): 0 success, 1 runtime error
   (simulation/check/IO failure; diagnostic on stderr), 2 usage error
   (bad flags, unknown names; diagnostic on stderr). *)

open Cmdliner

module E = Vliw_experiments

exception Usage_error of string
(* Raised by command bodies on a bad invocation (unknown experiment /
   scheme / mix / benchmark, inconsistent flags); mapped to exit code 2
   alongside cmdliner's own parse errors. Runtime failures propagate as
   ordinary exceptions and exit 1. *)

let usage fmt = Printf.ksprintf (fun s -> raise (Usage_error s)) fmt

let scale_conv =
  let parse = function
    | "quick" -> Ok E.Common.Quick
    | "default" -> Ok E.Common.Default
    | "full" -> Ok E.Common.Full
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S (quick|default|full)" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with
      | E.Common.Quick -> "quick"
      | E.Common.Default -> "default"
      | E.Common.Full -> "full")
  in
  Arg.conv (parse, print)

let scale_arg =
  Arg.(
    value
    & opt scale_conv E.Common.Default
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:
          "Simulation length: $(b,quick) (unit-test sized), $(b,default) \
           (seconds per run), or $(b,full) (paper-scale, minutes per run).")

let seed_arg =
  Arg.(
    value
    & opt int64 E.Common.default_seed
    & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for all generators.")

(* --- exp ------------------------------------------------------------ *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run sweep cells on $(docv) worker domains ($(b,0) = one per \
           core, $(b,1) = serial). Results are bit-identical for any N.")

let list_experiments () =
  let table =
    Vliw_util.Text_table.create ~header:[ "Id"; "Title"; "CSV"; "In 'all'" ]
  in
  List.iter
    (fun entry ->
      Vliw_util.Text_table.add_row table
        [
          E.Registry.id entry;
          E.Registry.title entry;
          (if E.Registry.has_csv entry then "yes" else "-");
          (if E.Registry.expensive entry then "-" else "yes");
        ])
    E.Registry.all;
  print_string (Vliw_util.Text_table.render table)

let progress_meter ?(quiet = false) on_event =
  (* The sweep progress meter: an [on_event] consumer that redraws one
     stderr line per Cell_finished, when stderr is a terminal, then
     forwards the event. Local, distributed and resumed sweeps all
     emit the same stream. stdout stays clean and deterministic either
     way; CI logs (not a tty) and --quiet runs see nothing. *)
  if quiet || not (Unix.isatty Unix.stderr) then on_event
  else
    Some
      (fun ev ->
        (match ev with
        | E.Sweep.Cell_finished { cell; completed; total; _ } ->
          Printf.eprintf "\r[sweep %d/%d] %s/%s %.2fs%s%!" completed total
            cell.mix cell.scheme cell.elapsed_s
            (if completed = total then "\n" else "")
        | _ -> ());
        Option.iter (fun f -> f ev) on_event)

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ]
        ~doc:"Suppress the sweep progress meter on stderr.")

let export_csv csv_dir filename (header, rows) =
  match csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir filename in
    Vliw_util.Csv.write ~path ~header rows;
    Printf.eprintf "wrote %s\n%!" path

(* The shared sweep's telemetry, aggregated — only meaningful when the
   experiment actually forced the fig10 grid. *)
let sweep_telemetry ctx =
  if Lazy.is_val ctx.E.Registry.fig10 then
    let cells = (Lazy.force ctx.E.Registry.fig10).E.Fig10.cells in
    if Array.exists (fun (c : E.Sweep.cell) -> c.telemetry <> None) cells then
      Some cells
    else None
  else None

(* --- run ledger / observability ------------------------------------- *)

module Ledger = Vliw_telemetry.Ledger
module Openmetrics = Vliw_telemetry.Openmetrics
module Span = Vliw_telemetry.Span
module Log = Vliw_util.Log

let log_level_arg =
  Arg.(
    value & opt string "info"
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Structured-log threshold on stderr: $(b,debug), $(b,info), \
           $(b,warn) or $(b,error).")

let log_format_arg =
  Arg.(
    value & opt string "human"
    & info [ "log-format" ] ~docv:"FMT"
        ~doc:
          "Structured-log rendering: $(b,human) (aligned key=value \
           lines) or $(b,json) (NDJSON, one object per record, for \
           machine ingestion).")

let make_log ~component ~quiet level format =
  if quiet then Log.null
  else
    let level =
      match Log.level_of_string level with
      | Ok l -> l
      | Error e -> usage "%s" e
    in
    let format =
      match Log.format_of_string format with
      | Ok f -> f
      | Error e -> usage "%s" e
    in
    Log.make ~level ~format ~component (fun line ->
        Printf.eprintf "%s\n%!" line)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record a distributed trace (submit/queue/schedule/dispatch \
           spans across every process involved) and write the merged \
           Chrome trace-event JSON to $(docv) on completion — load it \
           in Perfetto or chrome://tracing. Observation only: results \
           are bit-identical with tracing on or off.")

let runs_dir_arg =
  Arg.(
    value
    & opt string Ledger.default_dir
    & info [ "runs-dir" ] ~docv:"DIR"
        ~doc:"Directory holding the run ledger (ledger.jsonl).")

let no_ledger_arg =
  Arg.(
    value & flag
    & info [ "no-ledger" ]
        ~doc:"Do not record this invocation in the run ledger.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Also write this run's counters and gauges as an \
           OpenMetrics/Prometheus textfile exposition to $(docv) \
           (atomic rewrite; point a node_exporter textfile collector \
           at it).")

let log_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-json" ] ~docv:"FILE"
        ~doc:
          "Stream sweep lifecycle events (cell started / finished / \
           retried / degraded, with ETA) as NDJSON to $(docv), flushed \
           per line so $(b,tail -f) follows a live sweep. $(b,-) \
           writes to stderr (suppressed by $(b,--quiet)).")

(* Persist a ledger record (unless opted out) and/or export it as an
   OpenMetrics textfile. Both notes go to stderr: stdout carries only
   experiment data. A ledger failure (read-only checkout, full disk)
   must not fail the run that produced good results — warn and move on. *)
let record_run ~no_ledger ~runs_dir ~metrics_out run =
  let run =
    if no_ledger then run
    else
      match Ledger.append ~dir:runs_dir run with
      | run ->
        Printf.eprintf "recorded run %s in %s\n%!" run.Ledger.id
          (Ledger.ledger_path ~dir:runs_dir);
        run
      | exception e ->
        Printf.eprintf "warning: could not record run ledger entry: %s\n%!"
          (Printexc.to_string e);
        run
  in
  Option.iter
    (fun path ->
      Vliw_util.Atomic_io.write_file ~path (Openmetrics.of_run run);
      Printf.eprintf "wrote %s\n%!" path)
    metrics_out;
  run

(* The --log-json sink: a mutex-protected NDJSON logger (events fire
   from worker domains) plus a closer for the channel. "-" streams to
   stderr and is the one form --quiet suppresses; a file is an artifact
   the user asked for by path and is always written. *)
let event_logger ~quiet log_json =
  match log_json with
  | None -> (None, fun () -> ())
  | Some "-" ->
    if quiet then (None, fun () -> ())
    else (Some (E.Sweep.json_logger stderr), fun () -> ())
  | Some path ->
    let oc = open_out path in
    (Some (E.Sweep.json_logger oc), fun () -> close_out oc)

let run_experiment scale seed csv_dir jobs quiet telemetry max_retries
    checkpoint resume no_ledger runs_dir metrics_out log_json workers
    replicates name =
  if resume && checkpoint = None then
    usage "--resume requires --checkpoint FILE (no journal to resume from)";
  if max_retries < 0 then usage "--max-retries must be non-negative";
  if workers < 0 then usage "--workers must be non-negative";
  if replicates < 0 then usage "--replicates must be non-negative";
  let on_event, close_log = event_logger ~quiet log_json in
  (* Every sweep of the command reports here, so a degraded cell in any
     table is named on stderr and fails the exit status. *)
  let on_event, degraded_warning =
    E.Sweep.watch_degraded (progress_meter ~quiet on_event)
  in
  let t0 = Unix.gettimeofday () in
  let note msg = Printf.eprintf "note: %s\n%!" msg in
  (* --workers N swaps the shared sweep's execution engine for the
     distributed coordinator (local worker processes re-running this
     executable as `vliwsim worker`). Cells are bit-identical either
     way; the coordinator's dist.* counters join the ledger record. *)
  let dist_counters = ref [] in
  let dist_config () =
    {
      Vliw_dist.Coordinator.default_config with
      workers;
      worker_argv = [| Sys.executable_name; "worker" |];
      max_retries;
      checkpoint;
      resume;
      log =
        (if quiet then Log.null
         else
           Log.make ~component:"dist" (fun l -> Printf.eprintf "%s\n%!" l));
      on_event = Some on_event;
    }
  in
  let grid_exec =
    if workers = 0 then None
    else
      Some
        (fun ~scheme_names ->
          let r =
            Vliw_dist.Coordinator.run ~scale ~seed ~scheme_names
              (dist_config ())
          in
          dist_counters := Vliw_dist.Coordinator.counters_list r.d_stats;
          let cells =
            match r.d_grids with
            | [ (_, cells) ] -> cells
            | _ -> failwith "dist: expected exactly one grid"
          in
          (r.d_scheme_names, r.d_mix_names, cells))
  in
  let replicate_exec =
    if workers = 0 then None
    else
      Some
        (fun ~seeds ->
          let r =
            Vliw_dist.Coordinator.run ~scale ~seed ~seeds (dist_config ())
          in
          dist_counters := Vliw_dist.Coordinator.counters_list r.d_stats;
          List.map
            (fun (s, cells) ->
              ( s,
                E.Fig10.of_cells ~scheme_names:r.d_scheme_names
                  ~mix_names:r.d_mix_names cells ))
            r.d_grids)
  in
  let replicate_seeds =
    if replicates = 0 then None
    else Some (E.Replicates.derive_seeds ~seed replicates)
  in
  let ctx =
    E.Registry.make_ctx ~scale ~seed ~jobs ~telemetry ~max_retries ?checkpoint
      ~resume ~log:note ~on_event ?replicate_seeds ?replicate_exec ?grid_exec ()
  in
  (* Ledger export of the last experiment that defined one (e.g.
     "adaptive", whose grid is not the shared fig10 sweep). Under "all"
     only standard entries run, none of which exports info, so the
     fig10 fallback below still applies there. *)
  let last_info = ref None in
  let one entry =
    let text, csv, info = E.Registry.run_entry_full ctx entry in
    print_string text;
    Option.iter (export_csv csv_dir (E.Registry.id entry ^ ".csv")) csv;
    if info <> None then last_info := info
  in
  Fun.protect ~finally:close_log (fun () ->
      match name with
      | "list" -> list_experiments ()
      | "all" ->
        List.iter
          (fun entry ->
            one entry;
            print_newline ())
          E.Registry.standard
      | id -> (
        match E.Registry.find id with
        | Some entry -> one entry
        | None -> usage "unknown experiment: %s (see `vliwsim exp list`)" id));
  if telemetry then begin
    match sweep_telemetry ctx with
    | None ->
      prerr_endline
        "note: --telemetry had no effect (experiment does not run the \
         shared sweep)"
    | Some cells ->
      let snap = E.Sweep.merged_telemetry cells in
      print_newline ();
      print_string "Telemetry (aggregated over the shared sweep):\n";
      print_string (Vliw_telemetry.Report.render snap);
      export_csv csv_dir "telemetry.csv" (E.Sweep.telemetry_csv cells)
  end;
  let degraded = degraded_warning () in
  Option.iter (fun w -> prerr_string w; flush stderr) degraded;
  if name <> "list" then begin
    let wall_s = Unix.gettimeofday () -. t0 in
    let cells, scheme_names, mix_names, gauges, policy, info_counters =
      match !last_info with
      | Some (i : E.Registry.ledger_info) ->
        ( Array.map E.Sweep.ledger_cell i.li_cells,
          i.li_scheme_names,
          i.li_mix_names,
          i.li_gauges,
          i.li_policy,
          (E.Sweep.merged_telemetry i.li_cells).counters )
      | None ->
        if Lazy.is_val ctx.E.Registry.fig10 then begin
          let d = Lazy.force ctx.E.Registry.fig10 in
          ( Array.map E.Sweep.ledger_cell d.E.Fig10.cells,
            d.E.Fig10.grid.scheme_names,
            d.E.Fig10.grid.mix_names,
            [ ("ipc.mean", E.Common.grid_mean d.E.Fig10.grid) ],
            "static",
            [] )
        end
        else ([||], [], [], [], "static", [])
    in
    let counters =
      (if info_counters <> [] then info_counters
       else
         match sweep_telemetry ctx with
         | Some cells -> (E.Sweep.merged_telemetry cells).counters
         | None -> [])
      @ !dist_counters
    in
    ignore
      (record_run ~no_ledger ~runs_dir ~metrics_out
         (Ledger.make ~counters ~gauges ~cells ~policy ~cmd:"exp" ~label:name
            ~scale:(E.Common.scale_name scale) ~seed ~jobs ~scheme_names
            ~mix_names ~wall_s ()))
  end;
  if degraded = None then 0 else 1

let exp_cmd =
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("An experiment id ("
            ^ String.concat ", " E.Registry.ids
            ^ "), $(b,all) for every standard experiment, or $(b,list) to \
               show the registry."))
  in
  let doc = "Regenerate a table or figure from the paper." in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also export the experiment's data as CSV files into DIR.")
  in
  let telemetry_arg =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:
            "Collect per-cell counters during the shared sweep and print \
             the aggregated stall attribution (observation-only; results \
             are unchanged). With $(b,--csv), also writes telemetry.csv.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Retry a failing sweep cell up to $(docv) times before \
             recording it as degraded (n/a) instead of aborting the \
             sweep; degraded cells are listed on stderr and the command \
             exits 1. Retries cannot change results: cells are pure \
             functions of their seeds.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Journal every completed cell of the shared (mix x scheme) \
             sweep to $(docv) (atomic rewrite per cell; kill-safe at any \
             point).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restore cells already recorded in the $(b,--checkpoint) \
             journal instead of re-simulating them (bit-identical); only \
             missing cells run. A journal from a different configuration \
             is ignored.")
  in
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Run the shared sweep on $(docv) local worker processes via \
             the distributed coordinator instead of in-process domains \
             ($(b,0) = in-process). Results are bit-identical for any N; \
             the coordinator's dist.* counters join the ledger record.")
  in
  let replicates_arg =
    Arg.(
      value & opt int 0
      & info [ "replicates" ] ~docv:"R"
          ~doc:
            "For the $(b,replicates) experiment: run $(docv) seeds \
             derived deterministically from $(b,--seed) instead of the \
             built-in list (e.g. $(b,--replicates 100) for per-cell \
             confidence intervals at scale).")
  in
  Cmd.v (Cmd.info "exp" ~doc)
    Term.(
      const run_experiment $ scale_arg $ seed_arg $ csv_arg $ jobs_arg
      $ quiet_arg $ telemetry_arg $ retries_arg $ checkpoint_arg
      $ resume_arg $ no_ledger_arg $ runs_dir_arg $ metrics_out_arg
      $ log_json_arg $ workers_arg $ replicates_arg $ name_arg)

(* --- run ------------------------------------------------------------ *)

let resolve_scheme name =
  match Vliw_merge.Scheme_name.parse name with
  | Ok scheme -> scheme
  | Error msg -> usage "unknown scheme %s: %s" name msg

let run_sim scale seed scheme_name mix_name benchmarks perfect fixed_priority
    no_stall_dmiss fixed_slots trace_len no_ledger runs_dir metrics_out =
  let scheme = resolve_scheme scheme_name in
  let t0 = Unix.gettimeofday () in
  let mode = match trace_len with None -> `Block | Some n -> `Trace n in
  let profiles =
    match benchmarks with
    | [] ->
      (match Vliw_workloads.Mixes.find mix_name with
      | Some mix -> mix.members
      | None -> usage "unknown mix: %s" mix_name)
    | names ->
      List.map
        (fun n ->
          match Vliw_workloads.Benchmarks.find n with
          | Some p -> p
          | None -> usage "unknown benchmark: %s" n)
        names
  in
  let routing =
    if fixed_slots then Vliw_merge.Conflict.Fixed_slots
    else Vliw_merge.Conflict.Flexible
  in
  let config =
    Vliw_sim.Config.make ~rotate_priority:(not fixed_priority)
      ~stall_on_dmiss:(not no_stall_dmiss) ~routing scheme
  in
  let metrics =
    Vliw_sim.Multitask.run config ~perfect_mem:perfect ~seed
      ~schedule:(E.Common.schedule_of_scale scale) ~mode profiles
  in
  Format.printf "scheme %s = %s on [%s]@." scheme_name
    (Vliw_merge.Scheme.to_string scheme)
    (String.concat ", "
       (List.map (fun (p : Vliw_compiler.Profile.t) -> p.name) profiles));
  Format.printf "%a@." Vliw_sim.Metrics.pp metrics;
  Format.printf "avg threads merged per issuing cycle: %.2f@."
    (Vliw_sim.Metrics.avg_threads_merged metrics);
  Array.iter
    (fun (pt : Vliw_sim.Metrics.per_thread) ->
      Format.printf "  %-16s ops=%-9d instrs=%d@." pt.name pt.ops pt.instrs)
    metrics.per_thread;
  let workload =
    match benchmarks with
    | [] -> mix_name
    | names -> String.concat "," names
  in
  let label = Printf.sprintf "%s on %s" scheme_name workload in
  let wall_s = Unix.gettimeofday () -. t0 in
  (* A one-cell grid, so `runs diff` can bit-compare and attribute drift
     across single-simulation records just like sweep records. *)
  let cells =
    [|
      {
        Ledger.mix = workload;
        scheme = scheme_name;
        ipc = Vliw_sim.Metrics.ipc metrics;
        elapsed_s = wall_s;
        started_s = 0.0;
        worker = 0;
        attempts = 1;
        degraded = false;
      };
    |]
  in
  ignore
    (record_run ~no_ledger ~runs_dir ~metrics_out
       (Ledger.make ~cells
          ~gauges:
            [
              ("ipc", Vliw_sim.Metrics.ipc metrics);
              ( "threads_merged.avg",
                Vliw_sim.Metrics.avg_threads_merged metrics );
            ]
          ~cmd:"run" ~label ~scale:(E.Common.scale_name scale) ~seed ~jobs:1
          ~scheme_names:[ scheme_name ] ~mix_names:[ workload ] ~wall_s ()));
  0

let run_cmd =
  let scheme_arg =
    Arg.(
      value & opt string "2SC3"
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Merging scheme name (see $(b,schemes)).")
  in
  let mix_arg =
    Arg.(
      value & opt string "LLHH"
      & info [ "mix" ] ~docv:"MIX" ~doc:"Table 2 workload mix name.")
  in
  let bench_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "benchmarks" ] ~docv:"NAMES"
          ~doc:"Comma-separated benchmark names (overrides $(b,--mix)).")
  in
  let perfect_arg =
    Arg.(value & flag & info [ "perfect" ] ~doc:"Perfect memory (no cache misses).")
  in
  let fixed_arg =
    Arg.(
      value & flag
      & info [ "fixed-priority" ]
          ~doc:"Disable round-robin priority rotation (ablation).")
  in
  let nostall_arg =
    Arg.(
      value & flag
      & info [ "no-stall-dmiss" ]
          ~doc:"Ideal non-blocking data cache (ablation).")
  in
  let fixedslots_arg =
    Arg.(
      value & flag
      & info [ "fixed-slots" ]
          ~doc:"Remove the SMT routing block: operations keep their \
                original issue slots (ablation).")
  in
  let tracelen_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-len" ] ~docv:"N"
          ~doc:"Compile with N-block trace regions instead of per-block \
                scheduling.")
  in
  let doc = "Simulate one scheme on one workload." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run_sim $ scale_arg $ seed_arg $ scheme_arg $ mix_arg $ bench_arg
      $ perfect_arg $ fixed_arg $ nostall_arg $ fixedslots_arg $ tracelen_arg
      $ no_ledger_arg $ runs_dir_arg $ metrics_out_arg)

(* --- schemes / benchmarks ------------------------------------------- *)

let list_schemes () =
  let table =
    Vliw_util.Text_table.create
      ~header:[ "Name"; "Structure"; "Delay"; "Transistors"; "Description" ]
  in
  List.iter
    (fun (e : Vliw_merge.Catalog.entry) ->
      Vliw_util.Text_table.add_row table
        [
          e.name;
          Vliw_merge.Scheme.to_string e.scheme;
          (if e.name = "ST" then "-"
           else Printf.sprintf "%.1f" (Vliw_cost.Scheme_cost.delay e.scheme));
          (if e.name = "ST" then "-"
           else Printf.sprintf "%.0f" (Vliw_cost.Scheme_cost.transistors e.scheme));
          e.description;
        ])
    Vliw_merge.Catalog.all;
  print_string (Vliw_util.Text_table.render table);
  0

let schemes_cmd =
  Cmd.v
    (Cmd.info "schemes" ~doc:"List the merging-scheme catalog with hardware costs.")
    Term.(const list_schemes $ const ())

let list_benchmarks () =
  let table =
    Vliw_util.Text_table.create
      ~header:[ "Name"; "ILP"; "IPCr"; "IPCp"; "WS(KB)"; "Description" ]
  in
  List.iter
    (fun (p : Vliw_compiler.Profile.t) ->
      Vliw_util.Text_table.add_row table
        [
          p.name;
          Vliw_compiler.Profile.ilp_letter p.ilp;
          Printf.sprintf "%.2f" p.target_ipc_real;
          Printf.sprintf "%.2f" p.target_ipc_perfect;
          string_of_int p.working_set_kb;
          p.description;
        ])
    Vliw_workloads.Benchmarks.all;
  print_string (Vliw_util.Text_table.render table);
  0

let write_or_print output text =
  match output with
  | None -> print_string text
  | Some path ->
    (* Atomic rewrite: a killed invocation never leaves a half-written
       artifact behind for downstream tooling to choke on. *)
    Vliw_util.Atomic_io.write_file ~path text;
    Printf.eprintf "wrote %s\n%!" path

let run_trace scheme_name mix_name cycles perfect format output =
  let scheme = resolve_scheme scheme_name in
  let mix =
    match Vliw_workloads.Mixes.find mix_name with
    | Some m -> m
    | None -> usage "unknown mix: %s" mix_name
  in
  let config = Vliw_sim.Config.make scheme in
  let n = Vliw_sim.Config.contexts config in
  let profiles =
    List.filteri (fun i _ -> i < n) mix.members
  in
  let options = { Vliw_sim.Trace.default_options with cycles; perfect_mem = perfect } in
  (match format with
  | `Ascii -> write_or_print output (Vliw_sim.Trace.run config ~options profiles)
  | `Chrome ->
    let lanes, recorder = Vliw_sim.Trace.record config ~options profiles in
    let process_name =
      Printf.sprintf "vliwsim %s on %s" scheme_name mix_name
    in
    write_or_print output
      (Vliw_telemetry.Chrome_trace.of_recorder ~process_name ~lanes recorder));
  0

let format_conv =
  let parse = function
    | "ascii" -> Ok `Ascii
    | "chrome" -> Ok `Chrome
    | s -> Error (`Msg (Printf.sprintf "unknown format %S (ascii|chrome)" s))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with `Ascii -> "ascii" | `Chrome -> "chrome")
  in
  Arg.conv (parse, print)

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write to $(docv) instead of stdout.")

let trace_cmd =
  let scheme_arg =
    Arg.(
      value & opt string "2SC3"
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"Merging scheme name.")
  in
  let mix_arg =
    Arg.(
      value & opt string "LLHH"
      & info [ "mix" ] ~docv:"MIX" ~doc:"Table 2 workload mix name.")
  in
  let cycles_arg =
    Arg.(
      value & opt int 20
      & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to display.")
  in
  let perfect_arg =
    Arg.(value & flag & info [ "perfect" ] ~doc:"Perfect memory.")
  in
  let format_arg =
    Arg.(
      value & opt format_conv `Ascii
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "$(b,ascii) renders the per-cycle table; $(b,chrome) emits \
             Chrome trace-event JSON (one lane per hardware thread — load \
             in Perfetto or chrome://tracing).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Show a cycle-by-cycle merge trace (a dynamic Figure 1).")
    Term.(
      const run_trace $ scheme_arg $ mix_arg $ cycles_arg $ perfect_arg
      $ format_arg $ output_arg)

(* --- profile -------------------------------------------------------- *)

let run_profile scale seed jobs quiet trace_out csv_dir name =
  (* As in `exp`: a degraded cell is named on stderr and fails the exit
     status. *)
  let on_event, degraded_warning =
    E.Sweep.watch_degraded (progress_meter ~quiet None)
  in
  let ctx = E.Registry.make_ctx ~scale ~seed ~jobs ~telemetry:true ~on_event () in
  let entry =
    match E.Registry.find name with
    | Some entry -> entry
    | None -> usage "unknown experiment: %s (see `vliwsim exp list`)" name
  in
  let _, _, info = E.Registry.run_entry_full ctx entry in
  let cells =
    match info with
    | Some i
      when Array.exists
             (fun (c : E.Sweep.cell) -> c.telemetry <> None)
             i.E.Registry.li_cells ->
      Some i.E.Registry.li_cells
    | _ -> sweep_telemetry ctx
  in
  let degraded = degraded_warning () in
  Option.iter prerr_string degraded;
  match cells with
  | None ->
    prerr_endline
      ("experiment " ^ name
     ^ " does not run the shared (mix x scheme) sweep; nothing to profile");
    1
  | Some cells ->
    let snap = E.Sweep.merged_telemetry cells in
    Printf.printf "Profile of %s: %d sweep cells, %.1f CPU-seconds simulated\n\n"
      name (Array.length cells)
      (E.Sweep.total_elapsed_s cells);
    print_string (Vliw_telemetry.Report.render snap);
    let events =
      List.filter
        (fun (k, _) -> String.length k > 7 && String.sub k 0 7 = "events.")
        (Vliw_telemetry.Counters.flat snap)
    in
    if events <> [] then begin
      let table = Vliw_util.Text_table.create ~header:[ "Event"; "Count" ] in
      List.iter
        (fun (k, v) -> Vliw_util.Text_table.add_row table [ k; v ])
        events;
      print_newline ();
      print_string (Vliw_util.Text_table.render table)
    end;
    Option.iter
      (fun path -> write_or_print (Some path) (E.Sweep.chrome_trace cells))
      trace_out;
    export_csv csv_dir (name ^ ".telemetry.csv") (E.Sweep.telemetry_csv cells);
    if degraded = None then 0 else 1

let profile_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 string "fig10"
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment to profile (must run a (mix x scheme) sweep: \
                fig6, fig10, fig11, fig12, claims or adaptive).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "trace" ] ~docv:"FILE"
          ~doc:
            "Also write the sweep's execution timeline (one lane per pool \
             worker) as Chrome trace-event JSON to $(docv).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Export per-cell counters as CSV into DIR.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run an experiment with telemetry and print where the issue \
          slots went (stall attribution plus event counts).")
    Term.(
      const run_profile $ scale_arg $ seed_arg $ jobs_arg $ quiet_arg
      $ trace_arg $ csv_arg $ name_arg)

let run_compile bench_name mode_str trace_len dump seed =
  let profile =
    match Vliw_workloads.Benchmarks.find bench_name with
    | Some p -> p
    | None -> usage "unknown benchmark: %s" bench_name
  in
  let mode =
    match mode_str with
    | "block" -> `Block
    | "trace" -> `Trace trace_len
    | other -> usage "unknown mode %s (block|trace)" other
  in
  let machine = Vliw_isa.Machine.default in
  let program = Vliw_compiler.Program.generate ~seed ~mode machine profile in
  (match Vliw_compiler.Program.validate machine program with
  | Ok () -> ()
  | Error msg -> failwith ("generated program failed validation: " ^ msg));
  Format.printf "benchmark %s, %s scheduling@." profile.name
    (match mode with `Block -> "block" | `Trace n -> Printf.sprintf "%d-block trace" n);
  Format.printf "  regions: %d, instructions: %d, operations: %d@."
    (Array.length program.blocks) program.total_instrs program.total_ops;
  Format.printf "  static ops/instruction: %.2f@."
    (Vliw_compiler.Program.static_ipc program);
  Format.printf "  code footprint: %d KB@."
    (program.total_instrs * program.instr_bytes / 1024);
  if dump then print_string (Vliw_compiler.Asm.to_string program);
  0

let compile_cmd =
  let bench_arg =
    Arg.(
      value & opt string "g721encode"
      & info [ "benchmark" ] ~docv:"NAME" ~doc:"Benchmark profile to compile.")
  in
  let mode_arg =
    Arg.(
      value & opt string "block"
      & info [ "mode" ] ~docv:"MODE" ~doc:"Scheduling mode: block or trace.")
  in
  let len_arg =
    Arg.(
      value & opt int 4
      & info [ "trace-len" ] ~docv:"N" ~doc:"Blocks per trace region.")
  in
  let dump_arg =
    Arg.(value & flag & info [ "dump" ] ~doc:"Print the full program text.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Run the synthetic compiler on a benchmark and show the result.")
    Term.(const run_compile $ bench_arg $ mode_arg $ len_arg $ dump_arg $ seed_arg)

let benchmarks_cmd =
  Cmd.v
    (Cmd.info "benchmarks" ~doc:"List the Table 1 benchmark profiles.")
    Term.(const list_benchmarks $ const ())

(* --- runs / report --------------------------------------------------- *)

let find_run ~runs_dir wanted =
  match Ledger.find ~dir:runs_dir wanted with
  | Some r -> r
  | None ->
    if Ledger.load ~dir:runs_dir = [] then
      usage "run ledger %s is empty (run `vliwsim exp ...` first)"
        (Ledger.ledger_path ~dir:runs_dir)
    else usage "unknown run id %s (see `vliwsim runs list`)" wanted

let runs_list runs_dir =
  match Ledger.load ~dir:runs_dir with
  | [] ->
    Printf.eprintf "no runs recorded in %s yet\n"
      (Ledger.ledger_path ~dir:runs_dir);
    0
  | runs ->
    let table =
      Vliw_util.Text_table.create
        ~header:
          [ "Id"; "When"; "Cmd"; "Label"; "Scale"; "Jobs"; "Cells";
            "Mean IPC"; "Wall(s)"; "Git" ]
    in
    List.iter
      (fun (r : Ledger.run) ->
        let tm = Unix.gmtime r.time_s in
        Vliw_util.Text_table.add_row table
          [
            r.id;
            Printf.sprintf "%04d-%02d-%02d %02d:%02d" (tm.Unix.tm_year + 1900)
              (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour
              tm.Unix.tm_min;
            r.cmd;
            r.label;
            r.scale;
            string_of_int r.jobs;
            string_of_int (Array.length r.cells);
            E.Common.ipc_string ~decimals:2 (Ledger.mean_ipc r);
            Printf.sprintf "%.2f" r.wall_s;
            r.git_rev;
          ])
      runs;
    print_string (Vliw_util.Text_table.render table);
    0

let runs_show runs_dir wanted =
  let r = find_run ~runs_dir wanted in
  Printf.printf "run %s: %s %s\n" r.Ledger.id r.cmd r.label;
  Printf.printf "  recorded:    %s\n"
    (let tm = Unix.gmtime r.time_s in
     Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
       (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
       tm.Unix.tm_sec);
  Printf.printf "  git:         %s\n" r.git_rev;
  Printf.printf "  fingerprint: %s\n" r.fingerprint;
  if r.policy <> "static" then Printf.printf "  policy:      %s\n" r.policy;
  Printf.printf "  scale/seed:  %s / 0x%Lx, %d job(s), %.2fs wall\n" r.scale
    r.seed r.jobs r.wall_s;
  Printf.printf "  fault stats: %d retries, %d degraded, %d timeouts, %d resumed\n"
    r.retries r.degraded r.timeouts r.resumed;
  if Array.length r.cells > 0 then begin
    Printf.printf "  grid digest: %s\n\n" (Ledger.grid_digest r.cells);
    let table =
      Vliw_util.Text_table.create ~header:("Mix" :: r.scheme_names)
    in
    let lookup = Hashtbl.create 64 in
    Array.iter
      (fun (c : Ledger.cell) -> Hashtbl.replace lookup (c.mix, c.scheme) c.ipc)
      r.cells;
    List.iter
      (fun mix ->
        Vliw_util.Text_table.add_row table
          (mix
          :: List.map
               (fun scheme ->
                 match Hashtbl.find_opt lookup (mix, scheme) with
                 | Some ipc -> E.Common.ipc_string ~decimals:2 ipc
                 | None -> "-")
               r.scheme_names))
      r.mix_names;
    print_string (Vliw_util.Text_table.render table)
  end;
  if r.gauges <> [] then begin
    print_newline ();
    List.iter
      (fun (k, v) -> Printf.printf "  %-24s %.4f\n" k v)
      r.gauges
  end;
  if r.counters <> [] then
    Printf.printf "\n  %d telemetry counter(s) recorded (export with `vliwsim \
                   runs export-metrics %s`)\n"
      (List.length r.counters) r.id;
  0

let runs_diff runs_dir a b =
  let ra = find_run ~runs_dir a and rb = find_run ~runs_dir b in
  if ra.Ledger.fingerprint <> rb.Ledger.fingerprint then begin
    Printf.eprintf
      "note: configuration fingerprints differ (%s vs %s) — comparing anyway\n%!"
      ra.fingerprint rb.fingerprint;
    if ra.policy <> rb.policy then
      Printf.eprintf "note: controller policies differ (%s: %s vs %s: %s)\n%!"
        ra.id ra.policy rb.id rb.policy
  end;
  match Ledger.diff ra rb with
  | Ledger.Identical ->
    Printf.printf "runs %s and %s: IPC grids bit-identical (%d cells, digest %s)\n"
      ra.id rb.id (Array.length ra.cells)
      (Ledger.grid_digest ra.cells);
    0
  | Ledger.Shape_mismatch msg ->
    Printf.printf "runs %s and %s: grids not comparable: %s\n" ra.id rb.id msg;
    1
  | Ledger.Drift { mix; scheme; ipc_a; ipc_b; differing } ->
    Printf.printf
      "runs %s and %s: %d of %d cells differ; first drift at (%s, %s): %s vs %s\n"
      ra.id rb.id differing (Array.length ra.cells) mix scheme
      (E.Common.ipc_string ~decimals:6 ipc_a)
      (E.Common.ipc_string ~decimals:6 ipc_b);
    Printf.printf "  %s: git %s, recorded %s\n" ra.id ra.git_rev
      (Printf.sprintf "%.0f" ra.time_s);
    Printf.printf "  %s: git %s, recorded %s\n" rb.id rb.git_rev
      (Printf.sprintf "%.0f" rb.time_s);
    1

let runs_export_metrics runs_dir wanted output =
  write_or_print output (Openmetrics.of_run (find_run ~runs_dir wanted));
  0

let runs_lint file =
  if not (Sys.file_exists file) then usage "no such file: %s" file;
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Openmetrics.lint text with
  | [] ->
    Printf.printf "%s: OpenMetrics exposition OK\n" file;
    0
  | errors ->
    List.iter (fun e -> Printf.eprintf "%s: %s\n" file e) errors;
    Printf.eprintf "%s: %d violation(s)\n%!" file (List.length errors);
    1

(* Re-derive the span forest from a --trace-out Chrome file (ids travel
   in each event's args) and run the structural validator over it: every
   parent present, every child nested inside its parent. This is what
   the CI trace-smoke job runs against a merged 2-worker trace. *)
let runs_lint_trace slack file =
  if not (Sys.file_exists file) then usage "no such file: %s" file;
  let text = In_channel.with_open_bin file In_channel.input_all in
  let module J = Vliw_util.Json in
  match J.parse text with
  | Error e ->
    Printf.eprintf "%s: not valid JSON: %s\n%!" file e;
    1
  | Ok doc ->
    let events =
      match J.member "traceEvents" doc with Some (J.List es) -> es | _ -> []
    in
    let errors = ref [] and spans = ref [] in
    List.iter
      (fun ev ->
        match J.member "ph" ev with
        | Some (J.Str "X") -> (
          let sarg k =
            match J.member "args" ev with
            | Some args -> (
              match J.member k args with Some (J.Str s) -> Some s | _ -> None)
            | None -> None
          in
          let numf k =
            match J.member k ev with Some (J.Num v) -> Some v | _ -> None
          in
          match (sarg "trace", sarg "span", sarg "kind", numf "ts", numf "dur")
          with
          | Some tr, Some sp, Some kd, Some ts, Some dur -> (
            let parent =
              match sarg "parent" with
              | None -> Ok None
              | Some p -> Result.map Option.some (Span.id_of_hex p)
            in
            match (Span.id_of_hex tr, Span.id_of_hex sp, parent,
                   Span.kind_of_name kd)
            with
            | Ok trace, Ok id, Ok parent, Some kind ->
              let lane =
                match J.member "tid" ev with
                | Some (J.Num t) -> Printf.sprintf "lane %d" (int_of_float t)
                | _ -> "?"
              in
              let name =
                match J.member "name" ev with Some (J.Str n) -> n | _ -> ""
              in
              spans :=
                {
                  Span.trace;
                  id;
                  parent;
                  kind;
                  name;
                  lane;
                  start_s = ts /. 1e6;
                  dur_s = dur /. 1e6;
                }
                :: !spans
            | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ ->
              errors := ("bad span id: " ^ e) :: !errors
            | _, _, _, None -> errors := ("unknown span kind " ^ kd) :: !errors
            )
          | _ ->
            errors :=
              "X event missing trace/span/kind args or ts/dur" :: !errors)
        | _ -> ())
      events;
    let spans = List.rev !spans in
    let problems = List.rev !errors @ Span.validate ~slack_s:slack spans in
    if spans = [] then begin
      Printf.eprintf "%s: no spans found in the trace\n%!" file;
      1
    end
    else begin
      match problems with
      | [] ->
        Printf.printf "%s: %d span(s), every parent present, well-nested\n"
          file (List.length spans);
        0
      | ps ->
        List.iter (fun e -> Printf.eprintf "%s: %s\n" file e) ps;
        Printf.eprintf "%s: %d violation(s)\n%!" file (List.length ps);
        1
    end

let runs_gc runs_dir dry_run =
  let report = Ledger.gc ~dry_run ~dir:runs_dir () in
  List.iter
    (fun (r : Ledger.run) ->
      Printf.printf "%s %s: %s %s (%s, fingerprint %s)\n"
        (if dry_run then "would drop" else "dropped")
        r.id r.cmd r.label r.scale r.fingerprint)
    report.Ledger.dropped;
  Printf.printf "%s: %d record(s) kept, %d superseded duplicate(s) %s\n"
    (Ledger.ledger_path ~dir:runs_dir)
    (List.length report.Ledger.kept)
    (List.length report.Ledger.dropped)
    (if dry_run then "found (dry run; ledger untouched)" else "removed");
  0

let runs_merge runs_dir dry_run sources =
  if sources = [] then
    usage "merge: pass at least one source ledger directory";
  List.iter
    (fun src ->
      if not (Sys.file_exists (Ledger.ledger_path ~dir:src)) then
        usage "merge: no ledger in %s" src)
    sources;
  let report = Ledger.merge ~dry_run ~dir:runs_dir ~from:sources () in
  List.iter
    (fun (r : Ledger.run) ->
      Printf.printf "%s %s: %s %s (%s, fingerprint %s)\n"
        (if dry_run then "would add" else "added")
        r.id r.cmd r.label r.scale r.fingerprint)
    report.Ledger.added;
  Printf.printf "%s: %d record(s) %s, %d identical duplicate(s) skipped\n"
    (Ledger.ledger_path ~dir:runs_dir)
    (List.length report.Ledger.added)
    (if dry_run then "would be merged (dry run; ledger untouched)"
     else "merged")
    (List.length report.Ledger.skipped);
  0

let run_id_pos n doc = Arg.(required & pos n (some string) None & info [] ~docv:"RUN" ~doc)

let runs_cmd =
  let list_cmd =
    Cmd.v
      (Cmd.info "list" ~doc:"List every recorded run (newest last).")
      Term.(const runs_list $ runs_dir_arg)
  in
  let show_cmd =
    Cmd.v
      (Cmd.info "show"
         ~doc:
           "Show one run in full: configuration, fault stats, the IPC \
            grid and gauges. $(b,latest) resolves to the newest run.")
      Term.(
        const runs_show $ runs_dir_arg
        $ run_id_pos 0 "Run id (or $(b,latest)).")
  in
  let diff_cmd =
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Bit-compare two runs' IPC grids. Exits 0 when every cell is \
            bit-identical; exits 1 and names the first differing (mix, \
            scheme) cell otherwise.")
      Term.(
        const runs_diff $ runs_dir_arg
        $ run_id_pos 0 "First run id (or $(b,latest))."
        $ run_id_pos 1 "Second run id (or $(b,latest)).")
  in
  let export_cmd =
    let id_arg =
      Arg.(
        value & pos 0 string "latest"
        & info [] ~docv:"RUN" ~doc:"Run id (default $(b,latest)).")
    in
    Cmd.v
      (Cmd.info "export-metrics"
         ~doc:
           "Render a recorded run as an OpenMetrics/Prometheus textfile \
            exposition (counters, histograms, gauges).")
      Term.(const runs_export_metrics $ runs_dir_arg $ id_arg $ output_arg)
  in
  let lint_cmd =
    let file_arg =
      Arg.(
        required & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"Exposition file to validate.")
    in
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Validate an OpenMetrics exposition file (HELP/TYPE \
            discipline, counter _total suffixes, label escaping, # EOF \
            terminator). Exits 1 on violations.")
      Term.(const runs_lint $ file_arg)
  in
  let lint_trace_cmd =
    let file_arg =
      Arg.(
        required & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"Chrome trace file to validate.")
    in
    let slack_arg =
      Arg.(
        value & opt float 0.05
        & info [ "slack" ] ~docv:"SECONDS"
            ~doc:
              "Nesting tolerance: a child may escape its parent's \
               interval by up to $(docv) (absorbs cross-process clock \
               reads).")
    in
    Cmd.v
      (Cmd.info "lint-trace"
         ~doc:
           "Validate a merged Chrome trace written by $(b,--trace-out): \
            valid JSON, every span's parent present in the trace, every \
            child span nested inside its parent (worker spans inside \
            their dispatch spans, and so on). Exits 1 on violations.")
      Term.(const runs_lint_trace $ slack_arg $ file_arg)
  in
  let gc_cmd =
    let dry_run_arg =
      Arg.(
        value & flag
        & info [ "dry-run" ]
            ~doc:"Report what would be dropped without touching the ledger.")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Compact the run ledger: of the records sharing a configuration \
            fingerprint AND a grid digest, keep only the newest. Records \
            with the same fingerprint but different grid bits are drift \
            evidence and are never collapsed.")
      Term.(const runs_gc $ runs_dir_arg $ dry_run_arg)
  in
  let merge_cmd =
    let dry_run_arg =
      Arg.(
        value & flag
        & info [ "dry-run" ]
            ~doc:"Report what would be merged without touching the ledger.")
    in
    let sources_arg =
      Arg.(
        value & pos_all string []
        & info [] ~docv:"SRC"
            ~doc:"Source ledger directory to merge records from.")
    in
    Cmd.v
      (Cmd.info "merge"
         ~doc:
           "Merge other ledgers (e.g. per-worker $(b,_runs) directories \
            from a distributed sweep) into $(b,--runs-dir), skipping \
            source records whose (fingerprint, grid digest) pair the \
            target already holds — the same dedup rule as $(b,gc). \
            Same-fingerprint records with different grid bits always \
            merge: they are drift evidence.")
      Term.(const runs_merge $ runs_dir_arg $ dry_run_arg $ sources_arg)
  in
  Cmd.group
    (Cmd.info "runs"
       ~doc:
         "Inspect the run ledger: list, show, diff, export metrics, gc, \
          merge.")
    [
      list_cmd; show_cmd; diff_cmd; export_cmd; lint_cmd; lint_trace_cmd;
      gc_cmd; merge_cmd;
    ]

let run_report runs_dir wanted output =
  let r = find_run ~runs_dir wanted in
  let runs = Ledger.load ~dir:runs_dir in
  write_or_print output (Vliw_telemetry.Html_report.render ~runs r);
  0

let report_cmd =
  let run_arg =
    Arg.(
      value & opt string "latest"
      & info [ "run" ] ~docv:"RUN"
          ~doc:"Ledger run to report on (default $(b,latest)).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Generate a self-contained HTML dashboard for a recorded run: \
          IPC grid, waste breakdown, stall attribution, sweep timeline \
          and the cross-run trajectory. One file, inline SVG, no \
          scripts, no external resources.")
    Term.(const run_report $ runs_dir_arg $ run_arg $ output_arg)

(* --- serve / submit -------------------------------------------------- *)

module Service = Vliw_service
module Wire = Vliw_util.Wire

(* The endpoint a client command dials: --socket wins over --tcp. *)
let client_endpoint cmd socket tcp =
  match Wire.endpoints ~socket ~tcp with
  | ep :: _ -> ep
  | [] -> usage "%s: pass --socket PATH or --tcp PORT" cmd

let connect_or_exit cmd endpoint =
  try Wire.connect endpoint
  with e ->
    Printf.eprintf "%s: cannot connect to %s: %s\n%!" cmd
      (Wire.endpoint_name endpoint) (Printexc.to_string e);
    exit 1

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to listen on (serve) or connect to (submit).")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Loopback TCP port to listen on (serve) or connect to (submit).")

let run_serve socket tcp runs_dir jobs no_ledger metrics_out max_inflight
    max_jobs quiet log_level log_format trace_out =
  if socket = None && tcp = None then
    usage "serve: pass --socket PATH and/or --tcp PORT";
  Service.Server.run
    {
      Service.Server.default_config with
      socket_path = socket;
      tcp_port = tcp;
      runs_dir;
      jobs;
      no_ledger;
      metrics_out;
      max_inflight;
      max_jobs;
      handle_signals = true;
      log = make_log ~component:"serve" ~quiet log_level log_format;
      trace_out;
    };
  0

let serve_cmd =
  let max_inflight_arg =
    Arg.(
      value
      & opt int Service.Server.default_config.Service.Server.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Queued/running jobs allowed per client connection.")
  in
  let max_jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-jobs" ] ~docv:"N"
          ~doc:
            "Drain and exit after completing $(docv) jobs (for smoke \
             tests and bounded CI sessions).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the sweep service: a daemon that accepts NDJSON sweep \
          submissions, serves cells already recorded in the run ledger \
          from a content-addressed cache without re-simulating, runs \
          cold cells on a worker pool with priority + backfilling \
          scheduling, and appends every completed job back to the \
          ledger (bit-identical to a local $(b,vliwsim exp) of the same \
          configuration). Shutdown is graceful: SIGINT/SIGTERM or a \
          $(b,shutdown) request drains the queue first.")
    Term.(
      const run_serve $ socket_arg $ tcp_arg $ runs_dir_arg $ jobs_arg
      $ no_ledger_arg $ metrics_out_arg $ max_inflight_arg $ max_jobs_arg
      $ quiet_arg $ log_level_arg $ log_format_arg $ trace_out_arg)

(* The submit client: one request per invocation, replies streamed to
   stdout as they arrive. Exit codes keep the CLI contract: 0 when the
   request succeeds, 1 on an error reply / lost connection (runtime),
   2 on bad flags (usage). *)
let run_submit socket tcp op tag scale seed priority mixes schemes quiet
    trace_out =
  (* Client-side trace context: ids travel with the request, the
     server's spans come back on the done reply, and the merged tree
     (rooted at this client's span) is written as a Chrome trace. *)
  let tracer =
    match trace_out with
    | None -> None
    | Some path ->
      let c = Span.collector ~seed:0xc11e47c0deL () in
      let trace = Span.fresh_id c in
      let root = Span.fresh_id c in
      Some (c, trace, root, path)
  in
  let req =
    match op with
    | "submit" ->
      Service.Request.Submit
        {
          tag;
          scale = E.Common.scale_name scale;
          seed;
          priority;
          mixes;
          schemes;
          trace =
            Option.map
              (fun (_, trace, root, _) ->
                { Service.Request.trace_id = trace; parent_span = Some root })
              tracer;
        }
    | "ping" -> Service.Request.Ping
    | "stats" -> Service.Request.Stats
    | "metrics" -> Service.Request.Metrics
    | "shutdown" -> Service.Request.Shutdown
    | s -> usage "unknown op %S (submit|ping|stats|metrics|shutdown)" s
  in
  let fd = connect_or_exit "submit" (client_endpoint "submit" socket tcp) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let t_send =
        match tracer with Some (c, _, _, _) -> Span.now c | None -> 0.0
      in
      Wire.write_line fd (Service.Request.to_json req);
      (* [submit] streams until its job's done/error reply; every other
         op completes on the first reply line. *)
      let conn = Wire.conn fd in
      let module J = Vliw_util.Json in
      let reply_kind doc =
        match J.member "reply" doc with
        | Some (J.Str kind) -> Some kind
        | _ -> None
      in
      let handle doc =
        match reply_kind doc with
        | Some "error" ->
          Printf.eprintf "submit: %s\n%!"
            (match J.member "error" doc with
            | Some (J.Str msg) -> msg
            | _ -> J.to_string doc);
          Some 1
        | Some "metrics" ->
          (* unwrap the exposition so stdout pipes straight into
             `vliwsim runs lint` *)
          (match J.member "exposition" doc with
          | Some (J.Str text) -> print_string text
          | _ -> print_string (Vliw_util.Ndjson.line doc));
          Some 0
        | Some "done" ->
          print_string (Vliw_util.Ndjson.line doc);
          (match tracer with
          | None -> ()
          | Some (c, trace, root, path) ->
            (match J.member "spans" doc with
            | Some spans_json -> (
              match Span.list_of_json spans_json with
              | Ok sps -> List.iter (Span.add c) sps
              | Error e ->
                Printf.eprintf "submit: bad spans in reply: %s\n%!" e)
            | None -> ());
            Span.add c
              {
                Span.trace;
                id = root;
                parent = None;
                kind = Span.Submit;
                name = "client";
                lane = "client";
                start_s = t_send;
                dur_s = Span.now c -. t_send;
              };
            Vliw_util.Atomic_io.write_file ~path
              (Span.to_chrome ~process_name:"vliwsim submit" (Span.spans c));
            Printf.eprintf "wrote %s\n%!" path);
          Some 0
        | Some ("pong" | "stats" | "shutting_down") ->
          print_string (Vliw_util.Ndjson.line doc);
          Some 0
        | _ ->
          (* accepted and event lines: progress, not completion *)
          if not quiet then print_string (Vliw_util.Ndjson.line doc);
          if op = "submit" then None else Some 0
      in
      let rec read_loop () =
        match Wire.read conn with
        | Wire.Eof _ | Wire.Reset ->
          Printf.eprintf "submit: connection closed before the reply\n%!";
          1
        | Wire.Lines lines ->
          let rec consume = function
            | [] -> read_loop ()
            | Ok doc :: rest -> (
              match handle doc with Some code -> code | None -> consume rest)
            | Error e :: _ ->
              Printf.eprintf "submit: bad reply line: %s\n%!"
                (Vliw_util.Ndjson.error_message e);
              1
          in
          consume lines
      in
      read_loop ())

let submit_cmd =
  let op_arg =
    Arg.(
      value & opt string "submit"
      & info [ "op" ] ~docv:"OP"
          ~doc:
            "Request to send: $(b,submit) (default), $(b,ping), \
             $(b,stats), $(b,metrics) (prints the OpenMetrics exposition \
             raw) or $(b,shutdown) (graceful drain).")
  in
  let tag_arg =
    Arg.(
      value & opt string ""
      & info [ "tag" ] ~docv:"TAG"
          ~doc:"Label for the job (becomes the ledger record's label).")
  in
  let priority_arg =
    Arg.(
      value & opt int 0
      & info [ "priority" ] ~docv:"N"
          ~doc:
            "Scheduling priority (higher preempts at the next batch \
             boundary; FIFO within a priority).")
  in
  let mixes_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "mixes" ] ~docv:"MIXES"
          ~doc:"Comma-separated mix names (default: all Table 2 mixes).")
  in
  let schemes_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "schemes" ] ~docv:"SCHEMES"
          ~doc:
            "Comma-separated scheme names (default: every catalog scheme \
             except ST — the fig10 grid).")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a sweep to a running $(b,vliwsim serve) daemon and \
          stream its NDJSON replies to stdout until the job completes. \
          Cells the service has already computed (this session or any \
          recorded run) come back as cache hits without re-simulation.")
    Term.(
      const run_submit $ socket_arg $ tcp_arg $ op_arg $ tag_arg $ scale_arg
      $ seed_arg $ priority_arg $ mixes_arg $ schemes_arg $ quiet_arg
      $ trace_out_arg)

(* --- worker / dist --------------------------------------------------- *)

module Dist = Vliw_dist

(* The worker endpoint of a distributed sweep. Spawned by the
   coordinator over a pipe pair (stdio transport, the default) or
   started by hand with --connect/--connect-tcp against a coordinator
   listener. Protocol lines are the only bytes on stdout; diagnostics
   go to stderr. *)
let run_worker connect connect_tcp die_after_cells quiet log_level log_format
    =
  let log =
    make_log
      ~component:(Printf.sprintf "worker[%d]" (Unix.getpid ()))
      ~quiet log_level log_format
  in
  let input, output =
    match (connect, connect_tcp) with
    | Some _, Some _ -> usage "worker: --connect and --connect-tcp conflict"
    | Some _, None | None, Some _ ->
      let fd =
        connect_or_exit "worker" (client_endpoint "worker" connect connect_tcp)
      in
      (fd, fd)
    | None, None -> (Unix.stdin, Unix.stdout)
  in
  match Dist.Worker.serve ?die_after_cells ~log ~input ~output () with
  | () -> 0
  | exception Dist.Worker.Killed ->
    Log.warn log "fault injection: dying mid-shard" [];
    1

let worker_cmd =
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:"Connect to a coordinator's Unix-domain listener at $(docv).")
  in
  let connect_tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "connect-tcp" ] ~docv:"PORT"
          ~doc:"Connect to a coordinator's loopback TCP listener on $(docv).")
  in
  let die_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "die-after-cells" ] ~docv:"N"
          ~doc:
            "Fault injection: exit abruptly (mid-shard, no shard-done \
             message) right after the $(docv)-th cell result. The \
             coordinator must recover by re-queuing the stranded cells.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run a distributed-sweep worker. Without flags it speaks the \
          NDJSON shard protocol on stdin/stdout (how the coordinator \
          spawns it); with $(b,--connect)/$(b,--connect-tcp) it dials a \
          $(b,vliwsim dist) listener, adding this process to the fleet. \
          Cells are simulated exactly as in-process sweeps — bit-identical \
          by construction.")
    Term.(
      const run_worker $ connect_arg $ connect_tcp_arg $ die_arg $ quiet_arg
      $ log_level_arg $ log_format_arg)

let run_dist scale seed workers replicates shard_size max_retries shard_timeout
    checkpoint resume listen_socket listen_tcp chaos_kill no_ledger runs_dir
    metrics_out log_json quiet log_level log_format trace_out =
  if workers < 0 then usage "--workers must be non-negative";
  if replicates < 0 then usage "--replicates must be non-negative";
  if max_retries < 0 then usage "--max-retries must be non-negative";
  if resume && checkpoint = None then
    usage "--resume requires --checkpoint FILE (no journal to resume from)";
  if workers = 0 && listen_socket = None && listen_tcp = None then
    usage
      "dist: no worker transport (pass --workers N and/or \
       --listen-socket/--listen-tcp)";
  let seeds =
    if replicates = 0 then [ seed ]
    else E.Replicates.derive_seeds ~seed replicates
  in
  let on_event, close_log = event_logger ~quiet log_json in
  (* Degraded cells are named on stderr and fail the exit status, as
     under `exp`. *)
  let on_event, degraded_warning =
    E.Sweep.watch_degraded (progress_meter ~quiet on_event)
  in
  let tracer =
    match trace_out with
    | None -> None
    | Some _ -> Some (Span.collector ~seed:0xd157c0deL ())
  in
  let config =
    {
      Dist.Coordinator.default_config with
      workers;
      worker_argv =
        (if workers > 0 then [| Sys.executable_name; "worker" |] else [||]);
      listen_socket;
      listen_tcp;
      shard_size;
      max_retries;
      shard_timeout_s = shard_timeout;
      checkpoint;
      resume;
      die_first_worker_after = chaos_kill;
      log = make_log ~component:"dist" ~quiet log_level log_format;
      on_event = Some on_event;
      tracer;
    }
  in
  let result =
    Fun.protect ~finally:close_log (fun () ->
        Dist.Coordinator.run ~scale ~seed ~seeds config)
  in
  let counters = Dist.Coordinator.counters_list result.d_stats in
  let datas =
    List.map
      (fun (s, cells) ->
        ( s,
          E.Fig10.of_cells ~scheme_names:result.d_scheme_names
            ~mix_names:result.d_mix_names cells ))
      result.d_grids
  in
  let degraded = degraded_warning () in
  Option.iter (fun w -> prerr_string w; flush stderr) degraded;
  (* One ledger record per seed — fingerprint-compatible with `exp`
     records of the same configuration, so `runs diff` proves the
     distributed grid bit-identical to a single-process one. The dist.*
     counters ride on every record; the replicate summary (if any)
     carries the per-cell confidence intervals as gauges. *)
  let n_seeds = List.length datas in
  let wall_per_seed = result.d_wall_s /. float_of_int (max 1 n_seeds) in
  (* Fleet-wide latency quantiles (per span kind) ride every record's
     gauges, so the HTML report's latency panel works on dist runs. *)
  let span_gauges =
    match tracer with
    | None -> []
    | Some c -> Span.latency_gauges (Span.spans c)
  in
  let t_ledger0 =
    match tracer with Some c -> Span.now c | None -> 0.0
  in
  List.iteri
    (fun i (s, (d : E.Fig10.data)) ->
      let is_last = i = n_seeds - 1 && replicates = 0 in
      ignore
        (record_run ~no_ledger ~runs_dir
           ~metrics_out:(if is_last then metrics_out else None)
           (Ledger.make ~counters
              ~gauges:
                (("ipc.mean", E.Common.grid_mean d.grid) :: span_gauges)
              ~cells:(Array.map E.Sweep.ledger_cell d.cells)
              ~cmd:"dist" ~label:"fig10"
              ~scale:(E.Common.scale_name scale) ~seed:s
              ~jobs:(max 1 workers) ~scheme_names:d.grid.scheme_names
              ~mix_names:d.grid.mix_names ~wall_s:wall_per_seed ())))
    datas;
  (match (tracer, trace_out) with
  | Some c, Some path ->
    ignore
      (Span.record c
         ~trace:(Span.fresh_id c)
         ~kind:Span.Ledger_append ~name:"dist" ~lane:"coordinator"
         ~start_s:t_ledger0
         ~dur_s:(Span.now c -. t_ledger0)
         ());
    Vliw_util.Atomic_io.write_file ~path (Span.to_chrome (Span.spans c));
    Printf.eprintf "wrote %s\n%!" path
  | _ -> ());
  if replicates = 0 then begin
    match datas with
    | [ (_, d) ] -> print_string (E.Fig10.render d)
    | _ -> ()
  end
  else begin
    let t = E.Replicates.of_grids datas in
    print_string (E.Replicates.render t);
    ignore
      (record_run ~no_ledger ~runs_dir ~metrics_out
         (Ledger.make ~counters
            ~gauges:
              (("replicates.n", float_of_int t.n)
              :: E.Replicates.cell_gauges t.cells)
              (* non-static policy: the summary must never share a
                 fingerprint with a plain fig10 record of the master
                 seed (it summarizes the replicate seeds instead) *)
            ~policy:"replicates" ~cmd:"dist" ~label:"replicates"
            ~scale:(E.Common.scale_name scale) ~seed ~jobs:(max 1 workers)
            ~scheme_names:result.d_scheme_names
            ~mix_names:result.d_mix_names ~wall_s:result.d_wall_s ()))
  end;
  if degraded = None then 0 else 1

let dist_cmd =
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Local worker processes to keep alive ($(b,0) = none; then a \
             listener must supply the fleet). Workers that die are \
             respawned and their shards re-queued.")
  in
  let replicates_arg =
    Arg.(
      value & opt int 0
      & info [ "replicates" ] ~docv:"R"
          ~doc:
            "Sweep $(docv) replicate seeds (derived deterministically \
             from $(b,--seed)) instead of the single seed, and append a \
             summary record with per-cell 95% confidence intervals to \
             the ledger.")
  in
  let shard_size_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-size" ] ~docv:"CELLS"
          ~doc:
            "Cells per work unit (default: grid size / 4x the fleet). \
             Any value yields bit-identical results.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Per-cell retry budget before a failing cell degrades to \
             n/a, exactly as in $(b,vliwsim exp): degraded cells are \
             listed on stderr and the command exits 1.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "shard-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Declare a worker dead after $(docv) of silence on an \
             assigned shard and re-queue its unreported cells.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Journal completed cells to $(docv) (same format as \
             $(b,vliwsim exp --checkpoint); multi-replicate runs suffix \
             it per seed).")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restore cells already in the $(b,--checkpoint) journal \
             instead of re-simulating them.")
  in
  let listen_socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen-socket" ] ~docv:"PATH"
          ~doc:
            "Also accept $(b,vliwsim worker --connect) peers on a \
             Unix-domain listener at $(docv).")
  in
  let listen_tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen-tcp" ] ~docv:"PORT"
          ~doc:
            "Also accept $(b,vliwsim worker --connect-tcp) peers on \
             loopback port $(docv).")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-kill-after" ] ~docv:"CELLS"
          ~doc:
            "Fault injection: the first spawned worker exits abruptly \
             after $(docv) cells, exercising the re-queue path (the \
             merged grid must still be bit-identical).")
  in
  Cmd.v
    (Cmd.info "dist"
       ~doc:
         "Run the shared (mix x scheme) sweep as a distributed sharded \
          sweep: a coordinator dispatches shards to worker processes \
          (spawned locally and/or connected via listeners), survives \
          worker deaths by re-queuing, and merges one grid per replicate \
          that is bit-identical to a single-process $(b,vliwsim exp) run \
          — verify with $(b,vliwsim runs diff).")
    Term.(
      const run_dist $ scale_arg $ seed_arg $ workers_arg $ replicates_arg
      $ shard_size_arg $ retries_arg $ timeout_arg $ checkpoint_arg
      $ resume_arg $ listen_socket_arg $ listen_tcp_arg $ chaos_arg
      $ no_ledger_arg $ runs_dir_arg $ metrics_out_arg $ log_json_arg
      $ quiet_arg $ log_level_arg $ log_format_arg $ trace_out_arg)

(* --- top -------------------------------------------------------------- *)

(* One poll = one short-lived connection carrying a single {"op":"stats"}
   line. The serve daemon keeps the connection open but a fresh one per
   frame costs nothing; the dist coordinator answers a stats query and
   then drops the peer — so reconnecting each frame is the one shape
   that monitors both daemons. *)
let poll_stats endpoint =
  match Wire.connect endpoint with
  | exception e -> Error (Printexc.to_string e)
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          Wire.write_line fd (Service.Request.to_json Service.Request.Stats)
        with
        | () ->
          let conn = Wire.conn fd in
          let rec read_reply () =
            match Wire.read conn with
            | Wire.Lines [] -> read_reply ()
            | Wire.Lines (Ok doc :: _) -> Ok doc
            | Wire.Lines (Error e :: _) ->
              Error (Vliw_util.Ndjson.error_message e)
            | Wire.Eof _ -> Error "connection closed before the stats reply"
            | Wire.Reset -> Error "connection reset"
          in
          read_reply ()
        | exception Unix.Unix_error (e, _, _) ->
          Error ("write failed: " ^ Unix.error_message e))

let render_top ~target ~history doc =
  let module J = Vliw_util.Json in
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let num key = match J.member key doc with Some (J.Num v) -> Some v | _ -> None in
  let inum key = Option.map int_of_float (num key) in
  let counters =
    match J.member "counters" doc with
    | Some (J.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match v with J.Num n -> Some (k, n) | _ -> None)
        kvs
    | _ -> []
  in
  let counter k = Option.value ~default:0.0 (List.assoc_opt k counters) in
  let kind =
    match J.member "kind" doc with Some (J.Str s) -> s | _ -> "service"
  in
  let draining =
    match J.member "draining" doc with Some (J.Bool d) -> d | _ -> false
  in
  line "vliwsim top — %s @ %s%s" kind target
    (if draining then "  [draining]" else "");
  (match kind with
  | "dist" ->
    let completed = Option.value ~default:0 (inum "completed") in
    let total = Option.value ~default:0 (inum "total") in
    line "progress      %d/%d cells (%.1f%%)  wall %.1fs" completed total
      (if total = 0 then 0.0
       else 100.0 *. float_of_int completed /. float_of_int total)
      (Option.value ~default:0.0 (num "wall_s"));
    line "queue         %d shard(s)"
      (Option.value ~default:0 (inum "queue_depth"));
    line "retried       %.0f  degraded %.0f  deaths %.0f"
      (counter "dist.cells.retried")
      (counter "dist.cells.degraded")
      (counter "dist.workers.died");
    let workers =
      match J.member "workers" doc with Some (J.List ws) -> ws | _ -> []
    in
    line "workers       %d attached" (List.length workers);
    List.iter
      (fun w ->
        let wnum key =
          match J.member key w with
          | Some (J.Num v) -> int_of_float v
          | _ -> 0
        in
        let ready =
          match J.member "ready" w with Some (J.Bool r) -> r | _ -> false
        in
        let cells = wnum "cells" in
        (* [ready] only means the worker has greeted the coordinator;
           what it is doing is told by the cells it holds. *)
        line "  worker %-4d %s  cells=%d" (wnum "worker")
          (if cells > 0 then "busy" else if ready then "idle" else "starting")
          cells)
      workers
  | _ ->
    line "queue depth   %d" (Option.value ~default:0 (inum "queue_depth"));
    let inflight =
      match J.member "inflight" doc with Some (J.List l) -> l | _ -> []
    in
    let inflight_jobs =
      List.fold_left
        (fun acc c ->
          match J.member "jobs" c with
          | Some (J.Num n) -> acc + int_of_float n
          | _ -> acc)
        0 inflight
    in
    line "clients       %d (%d in-flight job(s))"
      (Option.value ~default:0 (inum "clients"))
      inflight_jobs;
    let cached = counter "service.cells.cached" in
    let simulated = counter "service.cells.simulated" in
    line "cache         %d cell(s), hit rate %s"
      (Option.value ~default:0 (inum "cache_cells"))
      (if cached +. simulated <= 0.0 then "-"
       else Printf.sprintf "%.1f%%" (100.0 *. cached /. (cached +. simulated)));
    line "jobs done     %.0f" (counter "service.jobs.completed"));
  (match history with
  | [] -> ()
  | rates ->
    let last = List.nth rates (List.length rates - 1) in
    line "cells/s       %.1f  %s" last
      (Vliw_util.Ascii_chart.sparkline ~width:30 rates));
  (match J.member "latency" doc with
  | Some (J.Obj kvs) ->
    let get k =
      match List.assoc_opt k kvs with Some (J.Num v) -> Some v | _ -> None
    in
    line "latency (s)   p50 / p95 / p99";
    List.iter
      (fun kind ->
        let k = Span.kind_name kind in
        match
          (get ("span." ^ k ^ ".p50"), get ("span." ^ k ^ ".p95"),
           get ("span." ^ k ^ ".p99"), get ("span." ^ k ^ ".count"))
        with
        | Some p50, Some p95, Some p99, Some n ->
          line "  %-12s %.4f / %.4f / %.4f  (n=%.0f)" k p50 p95 p99 n
        | _ -> ())
      Span.all_kinds
  | _ -> ());
  Buffer.contents b

let run_top socket tcp interval once =
  if interval <= 0.0 then usage "top: --interval must be positive";
  let endpoint = client_endpoint "top" socket tcp in
  let target = Wire.endpoint_name endpoint in
  let cells_done counters_doc =
    let module J = Vliw_util.Json in
    match J.member "counters" counters_doc with
    | Some (J.Obj kvs) ->
      List.fold_left
        (fun acc (k, v) ->
          match (k, v) with
          | ( ( "service.cells.cached" | "service.cells.simulated"
              | "dist.cells.simulated" | "dist.cells.restored" ),
              J.Num n ) ->
            acc +. n
          | _ -> acc)
        0.0 kvs
    | _ -> 0.0
  in
  let history = ref [] in
  let prev = ref None in
  let rec loop () =
    match poll_stats endpoint with
    | Error e ->
      if once then begin
        Printf.eprintf "top: %s\n%!" e;
        1
      end
      else begin
        Printf.printf "\027[H\027[2Jvliwsim top — %s\nunreachable: %s \
                       (retrying every %.1fs)\n%!"
          target e interval;
        Unix.sleepf interval;
        loop ()
      end
    | Ok doc ->
      let now = Unix.gettimeofday () in
      let total = cells_done doc in
      (match !prev with
      | Some (t0, c0) when now > t0 ->
        history := !history @ [ (total -. c0) /. (now -. t0) ]
      | _ -> ());
      prev := Some (now, total);
      let frame = render_top ~target ~history:!history doc in
      if once then begin
        print_string frame;
        0
      end
      else begin
        print_string ("\027[H\027[2J" ^ frame);
        flush stdout;
        Unix.sleepf interval;
        loop ()
      end
  in
  loop ()

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between polls (each poll is one connection).")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Render a single frame without terminal escape codes and \
             exit (0 on a valid stats reply) — for scripts and CI.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live fleet monitor: poll a running $(b,serve) daemon or \
          $(b,dist) coordinator over its socket and render queue depth, \
          in-flight work per client/worker, cache hit rate, per-kind \
          latency quantiles and a cells/s sparkline, refreshing in \
          place.")
    Term.(const run_top $ socket_arg $ tcp_arg $ interval_arg $ once_arg)

(* --- check ---------------------------------------------------------- *)

let run_check scale seed jobs quiet =
  Vliw_sim.Invariants.set_enforced true;
  let failures = ref 0 in
  let report name = function
    | Ok () -> Printf.printf "ok   %s\n%!" name
    | Error msg ->
      incr failures;
      Printf.printf "FAIL %s: %s\n%!" name msg
  in
  let catching f =
    match f () with
    | () -> Ok ()
    | exception Vliw_sim.Invariants.Violation msg -> Error msg
  in
  (* Batched kernel vs oracle on every catalog scheme. *)
  List.iter
    (fun (e : Vliw_merge.Catalog.entry) ->
      report
        ("select_batched = select_reference: " ^ e.name)
        (catching (fun () -> Vliw_sim.Invariants.check_select ~seed e.scheme)))
    Vliw_merge.Catalog.all;
  (* Every registered experiment with enforcement on: each simulation's
     metrics record passes through [Invariants.check_metrics] (Multitask
     hook) and each telemetry cell through [check_attribution]. One ctx:
     the shared fig10 grid is forced once and reused. A sweep contains a
     failing cell (a [Violation] included) as a degraded cell rather than
     raising, so [catching] cannot see it: the ctx's event watch does. *)
  let on_event, degraded_warning =
    E.Sweep.watch_degraded (progress_meter ~quiet None)
  in
  let ctx = E.Registry.make_ctx ~scale ~seed ~jobs ~telemetry:true ~on_event () in
  List.iter
    (fun entry ->
      report
        ("experiment: " ^ E.Registry.id entry)
        (catching (fun () -> ignore (E.Registry.run_entry ctx entry))))
    E.Registry.standard;
  report "sweep: no degraded cells"
    (match degraded_warning () with
    | None -> Ok ()
    | Some w ->
      (* one line: the warning's per-cell lines, after its header *)
      let cells = List.tl (String.split_on_char '\n' w) in
      Error
        (String.concat "; "
           (List.filter (( <> ) "") (List.map String.trim cells))));
  (match sweep_telemetry ctx with
  | None -> ()
  | Some cells ->
    report "sweep: exact stall attribution"
      (catching (fun () ->
           Vliw_sim.Invariants.check_attribution (E.Sweep.merged_telemetry cells))));
  if !failures = 0 then begin
    print_endline "all checks passed";
    0
  end
  else begin
    Printf.eprintf "%d check(s) failed\n" !failures;
    1
  end

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the self-check battery: conservation invariants on every \
          registered experiment (telemetry on, enforcement on) and the \
          sampled select-vs-oracle probe on every catalog scheme. Exits 1 \
          if any check fails.")
    Term.(const run_check $ scale_arg $ seed_arg $ jobs_arg $ quiet_arg)

let () =
  let doc = "Thread merging schemes for multithreaded clustered VLIW processors" in
  let info = Cmd.info "vliwsim" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        exp_cmd; run_cmd; trace_cmd; profile_cmd; compile_cmd; check_cmd;
        serve_cmd; submit_cmd; dist_cmd; worker_cmd; top_cmd; runs_cmd;
        report_cmd; schemes_cmd; benchmarks_cmd;
      ]
  in
  (* Uniform exit-code policy. [~catch:false] lets command-body
     exceptions reach us instead of cmdliner's backtrace dump (which
     exits 124): usage problems (ours or cmdliner's) are 2, runtime
     failures are 1, and both diagnose on stderr. *)
  match Cmd.eval_value ~catch:false group with
  | Ok (`Ok code) -> exit code
  | Ok (`Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 1 (* unreachable with ~catch:false *)
  | exception Usage_error msg ->
    Printf.eprintf "vliwsim: %s\n" msg;
    exit 2
  | exception e ->
    Printf.eprintf "vliwsim: error: %s\n" (Printexc.to_string e);
    exit 1
