(* The benchmark's workloads. Each is a fixed unit of work (a "round")
   run whole, again and again, for the measured window; every round of a
   run sees the same inputs, so its output digest must repeat exactly.

   Every round pays its own set-up and times it apart from the work that
   follows: the set-up is everything from starting the round's processes
   to its first operation, and the work it sets up is then used by that
   same round, never paid a second time inside the timed work.
   - In-process sweeps run an untraced round the way a user runs the
     CLI, in a fresh process ([main.exe round W SEED]): set-up is exec,
     runtime and module start-up, then what the round does before its
     first operation (compiling the grid's rows, making the registry
     context).
   - The service: a daemon process started over a fresh runs directory,
     bound, its cache preloaded, and answering a ping.
   - The fleet: two worker processes spawned on socket pairs, each with
     its Ready greeting waiting; the coordinator is handed those
     connections and reads the greetings itself.

   A traced round runs the same work with bench-side spans around the
   calls into each layer (and, for the service and the fleet, with
   their own span tracers switched on). *)

module E = Vliw_experiments
module J = Vliw_util.Json
module Ndjson = Vliw_util.Ndjson
module Span = Vliw_telemetry.Span
module P = Probe

type ctx = {
  seed : int64;
  exe : string;  (** this executable: child rounds, daemons and workers *)
  scratch : string;  (** private directory inside the checkout *)
}

type trace = {
  spans : P.span list;  (** for the Chrome trace *)
  round_s : float;  (** the stretch of the round the spans cover *)
  covered_s : float;  (** sum of the spans that tile [round_s] *)
  busy : (string * float) list;
      (** self seconds per layer: "compile", "simulate", "control" *)
  lanes : float;  (** parallel lanes the busy time is spread over *)
  extra : (string * float) list;  (** workload-specific layer metrics *)
}

type round = {
  setup_s : float;  (** from starting the round to its first operation *)
  wall_s : float;  (** the work after set-up *)
  ops_ms : float list;  (** latency of every operation of the round *)
  failed : int;  (** operations whose output failed a check *)
  digest : string;  (** everything the round computed, hashed *)
  trace : trace option;
}

type t = {
  name : string;
  pinned : string;  (** round digest at [Common.default_seed] *)
  prepare : ctx -> traced:bool -> round;
      (** [prepare ctx] makes the run's inputs (untimed); each
          application of the result sets up and runs one round. *)
  child : (ctx -> report) option;
      (** in-process workloads: the untraced round, as the child process
          [main.exe round W SEED] runs it *)
}

(* What a child process reports about the round it ran. Times are
   absolute wall-clock seconds, so the parent can measure set-up from
   the moment it spawned the child. *)
and report = {
  first_op_s : float;
  end_s : float;
  r_ops_ms : float list;
  r_failed : int;
  r_digest : string;
}

let report_to_json r =
  J.Obj
    [
      ("first_op_s", J.Num r.first_op_s);
      ("end_s", J.Num r.end_s);
      ("ops_ms", J.List (List.map (fun x -> J.Num x) r.r_ops_ms));
      ("failed", J.Num (float_of_int r.r_failed));
      ("digest", J.Str r.r_digest);
    ]

let report_of_json doc =
  let num k = Option.bind (J.member k doc) J.to_float in
  match
    ( num "first_op_s",
      num "end_s",
      Option.bind (J.member "ops_ms" doc) J.to_list,
      Option.bind (J.member "failed" doc) J.to_int,
      Option.bind (J.member "digest" doc) J.to_string_opt )
  with
  | Some first_op_s, Some end_s, Some ops, Some r_failed, Some r_digest ->
    Some
      {
        first_op_s;
        end_s;
        r_ops_ms = List.filter_map J.to_float ops;
        r_failed;
        r_digest;
      }
  | _ -> None

let fig10_schemes = E.Fig10.scheme_names

let column name = E.Sweep.static_column (Vliw_merge.Catalog.find_exn name)

(* --- output checks --------------------------------------------------------- *)

(* Checks that hold for every seed, so a run on a seed without a pinned
   digest still verifies its outputs: every cell simulated to a positive
   finite IPC, and the parallel and serial forms of the same merge tree
   agree bit for bit (the sweep shares each row's seed across columns
   precisely so that they do). Returns the number of failing cells. *)
let equivalent_pairs = [ ("C4", "3CCC"); ("2SC3", "3SCC") ]

let bad_cells (cells : E.Sweep.cell array) =
  let bits (c : E.Sweep.cell) = Int64.bits_of_float c.ipc in
  let bad = Hashtbl.create 8 in
  Array.iter
    (fun (c : E.Sweep.cell) ->
      if c.error <> None || not (Float.is_finite c.ipc && c.ipc > 0.0) then
        Hashtbl.replace bad (c.mix, c.scheme) ())
    cells;
  let find mix scheme =
    Array.find_opt
      (fun (c : E.Sweep.cell) -> c.mix = mix && c.scheme = scheme)
      cells
  in
  Array.iter
    (fun (c : E.Sweep.cell) ->
      List.iter
        (fun (a, b) ->
          if c.scheme = a then
            match find c.mix b with
            | Some d when bits c <> bits d ->
              Hashtbl.replace bad (c.mix, a) ();
              Hashtbl.replace bad (c.mix, b) ()
            | _ -> ())
        equivalent_pairs)
    cells;
  Hashtbl.length bad

let cell ~mix ~scheme ~ipc ~elapsed_s =
  {
    E.Sweep.mix;
    scheme;
    ipc;
    elapsed_s;
    started_s = 0.0;
    worker = 0;
    telemetry = None;
    attempts = 1;
    error = None;
  }

let cells_ms (cells : E.Sweep.cell array) =
  Array.to_list (Array.map (fun (c : E.Sweep.cell) -> c.elapsed_s *. 1000.0) cells)

(* --- in-process sweeps ------------------------------------------------------ *)

(* One untraced round in a fresh child process; its set-up runs from the
   spawn to the first operation the child reports. *)
let in_child ctx name =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = [| ctx.exe; "round"; name; Int64.to_string ctx.seed |] in
  let t_spawn = P.now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () -> Unix.create_process ctx.exe argv Unix.stdin w Unix.stderr)
  in
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let status = P.waitpid_retry pid in
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match (status, Result.to_option (J.parse last)) with
  | Unix.WEXITED 0, Some doc -> (
    match report_of_json doc with
    | Some rep ->
      {
        setup_s = rep.first_op_s -. t_spawn;
        wall_s = rep.end_s -. rep.first_op_s;
        ops_ms = rep.r_ops_ms;
        failed = rep.r_failed;
        digest = rep.r_digest;
        trace = None;
      }
    | None -> failwith ("round " ^ name ^ ": malformed report: " ^ last))
  | _ -> failwith (Printf.sprintf "round %s: child process failed (%S)" name last)

let in_process ~name ~traced_round ctx ~traced =
  if traced then traced_round ctx else in_child ctx name

(* The fig10 columns over [mixes], as `exp` sweeps them; the sweep's
   Sweep_started event marks the end of its set-up (every row compiled). *)
let sweep ctx ~scale ~telemetry mixes =
  let first = ref nan in
  let on_event = function E.Sweep.Sweep_started _ -> first := P.now () | _ -> () in
  let _, _, cells =
    E.Sweep.run_cells ~scale ~seed:ctx.seed ~scheme_names:fig10_schemes
      ~mix_names:mixes ~telemetry ~jobs:1 ~on_event ()
  in
  (!first, P.now (), cells)

let sweep_report ?(failed = bad_cells) ctx ~scale ~telemetry mixes =
  let first_op_s, end_s, cells = sweep ctx ~scale ~telemetry mixes in
  {
    first_op_s;
    end_s;
    r_ops_ms = cells_ms cells;
    r_failed = failed cells;
    r_digest = P.grid_digest cells;
  }

let layer_sum (items : P.span list) layer =
  P.sum
    (List.filter_map
       (fun (s : P.span) -> if s.layer = layer then Some s.dur_s else None)
       items)

let top_sum (items : P.span list) =
  P.sum (List.filter_map (fun (s : P.span) -> if s.top then Some s.dur_s else None) items)

(* A grid driven as [prepare_row] for every row, then [simulate_prepared]
   per cell — the path the service and the workers take,
   property-tested bit-identical to [run_cells] — with a span around
   every call. Returns the prepare phase's seconds and the cells. *)
let spanned_grid ?(top = true) buf ~scale ~seed ~mixes =
  let t0 = P.now () in
  let rows =
    List.map
      (fun mix ->
        P.span buf ~top ~layer:"compile" ~lane:"bench" ("prepare_row " ^ mix) (fun () ->
            (mix, E.Sweep.prepare_row ~scale ~seed mix)))
      mixes
  in
  let prepare_s = P.now () -. t0 in
  let cells =
    List.concat_map
      (fun (mix, pr) ->
        List.map
          (fun scheme ->
            let t0 = P.now () in
            let ipc = E.Sweep.simulate_prepared pr (column scheme) in
            let dt = P.now () -. t0 in
            P.add buf
              { P.layer = "simulate"; name = mix ^ "/" ^ scheme; lane = "bench"; start_s = t0; dur_s = dt; top };
            cell ~mix ~scheme ~ipc ~elapsed_s:dt)
          fig10_schemes)
      rows
  in
  (prepare_s, Array.of_list cells)

let grid_default =
  let name = "grid-default" in
  let mixes = [ "LLLL"; "LLHH"; "MMMM"; "HHHH" ] and scale = E.Common.Default in
  let traced_round ctx =
    let buf = P.spans () in
    let t0 = P.now () in
    let setup_s, cells = spanned_grid buf ~scale ~seed:ctx.seed ~mixes in
    let round_s = P.now () -. t0 in
    {
      setup_s;
      wall_s = round_s -. setup_s;
      ops_ms = cells_ms cells;
      failed = bad_cells cells;
      digest = P.grid_digest cells;
      trace =
        Some
          {
            spans = buf.items;
            round_s;
            covered_s = top_sum buf.items;
            busy =
              [ ("compile", layer_sum buf.items "compile"); ("simulate", layer_sum buf.items "simulate") ];
            lanes = 1.0;
            extra = [];
          };
    }
  in
  {
    name;
    pinned = "0393a7d2e06b5919";
    prepare = in_process ~name ~traced_round;
    child = Some (fun ctx -> sweep_report ctx ~scale ~telemetry:false mixes);
  }

let grid_observed =
  let name = "grid-observed" in
  let mixes = Vliw_workloads.Mixes.names and scale = E.Common.Quick in
  (* Telemetry must really have been collected: an observed grid whose
     cells carry no counters ran the unobserved kernel. *)
  let failed (cells : E.Sweep.cell array) =
    max (bad_cells cells)
      (Array.fold_left
         (fun n (c : E.Sweep.cell) ->
           match c.telemetry with
           | Some s when s.Vliw_telemetry.Counters.counters <> [] -> n
           | _ -> n + 1)
         0 cells)
  in
  (* Traced: the same single sweep, with a compile span up to its first
     cell and one span per cell from the sweep's own cell timings. *)
  let traced_round ctx =
    let t0 = P.now () in
    let first, t_end, cells = sweep ctx ~scale ~telemetry:true mixes in
    let compile = { P.layer = "compile"; name = "compile rows"; lane = "bench"; start_s = t0; dur_s = first -. t0; top = true } in
    let spans =
      compile
      :: Array.to_list
           (Array.map
              (fun (c : E.Sweep.cell) ->
                {
                  P.layer = "simulate";
                  name = c.mix ^ "/" ^ c.scheme;
                  lane = "bench";
                  start_s = first +. c.started_s;
                  dur_s = c.elapsed_s;
                  top = true;
                })
              cells)
    in
    {
      setup_s = first -. t0;
      wall_s = t_end -. first;
      ops_ms = cells_ms cells;
      failed = failed cells;
      digest = P.grid_digest cells;
      trace =
        Some
          {
            spans;
            round_s = t_end -. t0;
            covered_s = top_sum spans;
            busy = [ ("compile", layer_sum spans "compile"); ("simulate", layer_sum spans "simulate") ];
            lanes = 1.0;
            extra = [];
          };
    }
  in
  {
    name;
    (* the fig10 quick digest: telemetry on must equal telemetry off *)
    pinned = "1be9dd88d31f8c0b";
    prepare = in_process ~name ~traced_round;
    child = Some (fun ctx -> sweep_report ~failed ctx ~scale ~telemetry:true mixes);
  }

(* The registry ids the benchmark reports a share for. *)
let registry_ids =
  [
    "table1"; "table2"; "fig4"; "fig5"; "fig6"; "fig9"; "fig10"; "fig11";
    "fig12"; "claims"; "ablations"; "ext8"; "baselines"; "sensitivity";
    "compiler"; "waste"; "speedup";
  ]

(* One `exp all` fold over a fresh registry context. Returns when the
   first experiment started, when the fold ended, and each experiment's
   text (None if it raised) and seconds. *)
let fold ctx ?grid_exec buf =
  let rctx = E.Registry.make_ctx ~scale:E.Common.Quick ~seed:ctx.seed ~jobs:1 ?grid_exec () in
  let first = P.now () in
  let outcomes =
    List.map
      (fun entry ->
        let id = E.Registry.id entry in
        let t0 = P.now () in
        let text =
          match E.Registry.run_entry rctx entry with
          | text, _ -> Some text
          | exception e ->
            prerr_endline ("perfbench: " ^ id ^ ": " ^ Printexc.to_string e);
            None
        in
        let dt = P.now () -. t0 in
        P.add buf
          { P.layer = "experiment"; name = id; lane = "registry"; start_s = t0; dur_s = dt; top = true };
        (id, text, dt))
      E.Registry.standard
  in
  let failed = if List.exists (fun (_, text, _) -> text = None) outcomes then 1 else 0 in
  let digest =
    P.digest_strings
      (List.concat_map (fun (id, text, _) -> [ id; Option.value text ~default:"<failed>" ]) outcomes)
  in
  (first, P.now (), outcomes, failed, digest)

let exp_all_quick =
  let name = "exp-all-quick" in
  let mixes = Vliw_workloads.Mixes.names in
  (* Traced: the fig10 grid is injected through [grid_exec] as
     [prepare_row] + [simulate_prepared] with spans; the other
     experiments' internals have no spans. *)
  let traced_round ctx =
    let buf = P.spans () in
    let grid_exec ~scheme_names:_ =
      (fig10_schemes, mixes, snd (spanned_grid ~top:false buf ~scale:E.Common.Quick ~seed:ctx.seed ~mixes))
    in
    let t0 = P.now () in
    let first, t_end, outcomes, failed, digest = fold ctx ~grid_exec buf in
    let fold_s = t_end -. first in
    {
      setup_s = first -. t0;
      wall_s = fold_s;
      ops_ms = [ fold_s *. 1000.0 ];
      failed;
      digest;
      trace =
        Some
          {
            spans = buf.items;
            round_s = fold_s;
            covered_s = top_sum buf.items;
            busy = [ ("compile", layer_sum buf.items "compile"); ("simulate", layer_sum buf.items "simulate") ];
            lanes = 1.0;
            extra =
              List.map
                (fun id ->
                  ( "registry.entry_frac." ^ id,
                    match List.find_opt (fun (i, _, _) -> i = id) outcomes with
                    | Some (_, _, dt) -> dt /. fold_s
                    | None -> 0.0 ))
                registry_ids;
          };
    }
  in
  {
    name;
    pinned = "059c63bf8169ba55";
    prepare = in_process ~name ~traced_round;
    (* the user's operation is the whole `exp all` *)
    child =
      Some
        (fun ctx ->
          let first_op_s, end_s, _, r_failed, r_digest = fold ctx (P.spans ()) in
          { first_op_s; end_s; r_ops_ms = [ (end_s -. first_op_s) *. 1000.0 ]; r_failed; r_digest });
  }

(* --- the sweep service ------------------------------------------------------ *)

(* A blocking NDJSON client over the daemon's Unix socket. Reads time out
   rather than hang the run if the daemon wedges. *)
type conn = {
  fd : Unix.file_descr;
  reader : Ndjson.reader;
  buf : Bytes.t;
  mutable pending : J.t list;
}

let read_timeout_s = 60.0

(* Connect once the daemon has bound [path]; give up if it exits first. *)
let connect ~exited path =
  let deadline = P.now () +. 30.0 in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; reader = Ndjson.reader (); buf = Bytes.create 65536; pending = [] }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when P.now () < deadline && not (exited ()) ->
      Unix.close fd;
      Unix.sleepf 0.001;
      attempt ()
  in
  attempt ()

let send conn doc =
  let line = Ndjson.line doc in
  let rec push off =
    if off < String.length line then
      push (off + Unix.write_substring conn.fd line off (String.length line - off))
  in
  push 0

let rec next conn =
  match conn.pending with
  | d :: rest ->
    conn.pending <- rest;
    d
  | [] ->
    (match Unix.select [ conn.fd ] [] [] read_timeout_s with
    | [], _, _ -> failwith "serve: no reply within the read timeout"
    | _ -> ());
    let n = Unix.read conn.fd conn.buf 0 (Bytes.length conn.buf) in
    if n = 0 then failwith "serve: daemon closed the connection";
    conn.pending <-
      List.map
        (function
          | Ok d -> d
          | Error e -> failwith ("serve: bad reply line: " ^ Ndjson.error_message e))
        (Ndjson.feed conn.reader ~len:n (Bytes.unsafe_to_string conn.buf));
    next conn

let str key doc = Option.bind (J.member key doc) J.to_string_opt
let num key doc = Option.bind (J.member key doc) J.to_int

let rec await conn pred =
  let d = next conn in
  match pred d with Some v -> v | None -> await conn pred

let reply kind d = if str "reply" d = Some kind then Some d else None

type job = { mix : string; schemes : string list; job_seed : int64 }

(* [n] jobs of one mix and four random fig10 schemes each, with fresh
   master seeds. Mixes are dealt round-robin from a random start, so
   every seed asks for the same amount of work per mix. *)
let random_jobs rng n =
  let mixes = Array.of_list Vliw_workloads.Mixes.names in
  let schemes = Array.of_list fig10_schemes in
  let start = Vliw_util.Rng.int rng (Array.length mixes) in
  List.init n (fun i ->
      let mix = mixes.((start + i) mod Array.length mixes) in
      let pool = Array.copy schemes in
      Vliw_util.Rng.shuffle rng pool;
      {
        mix;
        schemes = Array.to_list (Array.sub pool 0 4);
        job_seed = Vliw_util.Rng.next_int64 rng;
      })

type daemon = {
  pid : int;
  conn : conn;
  dir : string;
  tracer : Span.collector option;  (** trace ids for traced submits *)
}

let round_counter = ref 0

(* Start a daemon over a fresh runs directory (seeded with [ledger] when
   given) and wait until it answers a ping. The daemon is its own
   single-domain process, [main.exe serve-daemon DIR], as [vliwsim
   serve] is deployed: run as a second domain of this process, every
   minor collection would have to handshake with the client's idle
   domain, which makes latency track the load on the other core. *)
let start_daemon ctx ?ledger ~traced () =
  incr round_counter;
  let dir = Filename.concat ctx.scratch (Printf.sprintf "serve%d" !round_counter) in
  P.mkdir_p dir;
  Option.iter
    (fun src ->
      Vliw_util.Atomic_io.write_file
        ~path:(Vliw_telemetry.Ledger.ledger_path ~dir)
        (In_channel.with_open_bin src In_channel.input_all))
    ledger;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process ctx.exe [| ctx.exe; "serve-daemon"; dir |] null null Unix.stderr)
  in
  let exited () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> false
    | _ -> true
  in
  let conn = connect ~exited (Filename.concat dir "svc.sock") in
  send conn (Vliw_service.Request.to_json Vliw_service.Request.Ping);
  ignore (await conn (reply "pong"));
  let tracer = if traced then Some (Span.collector ~seed:0xbe4c4L ()) else None in
  { pid; conn; dir; tracer }

let stop_daemon d =
  let graceful =
    match
      send d.conn (Vliw_service.Request.to_json Vliw_service.Request.Shutdown);
      await d.conn (reply "shutting_down")
    with
    | _ -> true
    | exception _ -> false
  in
  Unix.close d.conn.fd;
  if not graceful then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  let status = P.waitpid_retry d.pid in
  P.remove_tree d.dir;
  if not (graceful && status = Unix.WEXITED 0) then
    failwith "serve: the daemon did not shut down cleanly"

(* One closed-loop job: submit, then read until its [done] (or an error
   reply). A traced submit carries trace ids, so the daemon records the
   job's span tree and returns it on the [done] reply. *)
let submit d ~tag job =
  let trace =
    Option.map
      (fun c ->
        { Vliw_service.Request.trace_id = Span.fresh_id c; parent_span = Some (Span.fresh_id c) })
      d.tracer
  in
  let t0 = P.now () in
  send d.conn
    (Vliw_service.Request.to_json
       (Vliw_service.Request.Submit
          {
            tag;
            scale = "quick";
            seed = job.job_seed;
            priority = 0;
            mixes = [ job.mix ];
            schemes = job.schemes;
            trace;
          }));
  let outcome =
    await d.conn (fun doc ->
        match str "reply" doc with
        | Some "done" when str "tag" doc = Some tag -> Some (Some doc)
        | Some "error" -> Some None
        | _ -> None)
  in
  (P.now () -. t0, t0, outcome)

let reply_spans doc =
  match Option.map Span.list_of_json (J.member "spans" doc) with
  | Some (Ok spans) -> spans
  | _ -> []

(* Layer shares from the daemon's span trees: simulation is its
   [simulate_cell] spans; everything else the daemon did for a job
   (queueing, planning, compiling the row, recording the ledger) is the
   control plane; the client's round trip beyond the daemon's [submit]
   span is wire and client time, left to the residual. *)
let serve_trace spans ~client_spans =
  let total kind =
    P.sum
      (List.filter_map
         (fun (s : Span.t) -> if s.kind = kind then Some s.dur_s else None)
         spans)
  in
  let simulate = total Span.Simulate_cell in
  let control = total Span.Submit -. simulate in
  ( List.map (P.of_service_span ~layer:"control") spans @ client_spans,
    [ ("simulate", simulate); ("control", control) ],
    total Span.Ledger_append )

let serve_jobs d ~jobs ~check =
  let client = ref [] in
  let outcomes =
    List.mapi
      (fun i job ->
        let tag = Printf.sprintf "t%d" i in
        let dt, t0, outcome = submit d ~tag job in
        client :=
          { P.layer = "client"; name = tag ^ " " ^ job.mix; lane = "client"; start_s = t0; dur_s = dt; top = true }
          :: !client;
        (i, job, dt, outcome))
      jobs
  in
  let failed =
    List.length
      (List.filter
         (fun (i, job, _, outcome) ->
           match outcome with
           | None -> true
           | Some doc ->
             num "degraded" doc <> Some 0
             || num "cells" doc <> Some (List.length job.schemes)
             || not (check i job doc))
         outcomes)
  in
  let digests =
    List.map
      (fun (_, _, _, o) ->
        match o with Some doc -> Option.value (str "digest" doc) ~default:"?" | None -> "?")
      outcomes
  in
  let cells kind =
    List.fold_left
      (fun n (_, _, _, o) ->
        match o with Some doc -> n + Option.value (num kind doc) ~default:0 | None -> n)
      0 outcomes
  in
  let trace =
    match d.tracer with
    | None -> None
    | Some _ ->
      let daemon_spans =
        List.concat_map
          (fun (_, _, _, o) -> match o with Some doc -> reply_spans doc | None -> [])
          outcomes
      in
      let spans, busy, ledger_s = serve_trace daemon_spans ~client_spans:!client in
      let round_s = top_sum !client in
      let cached = cells "cached" and simulated = cells "simulated" in
      Some
        {
          spans;
          round_s;
          covered_s = round_s;
          busy;
          lanes = 1.0;
          extra =
            [
              ( "serve.cache_hit_frac",
                float_of_int cached /. float_of_int (max 1 (cached + simulated)) );
              ("serve.cells_simulated", float_of_int simulated);
              ("serve.ledger_append_frac", ledger_s /. round_s);
            ];
        }
  in
  (List.map (fun (_, _, dt, _) -> dt *. 1000.0) outcomes, failed, P.digest_strings digests, trace)

(* A round against its own daemon: set-up is the daemon's start. *)
let serve_round ctx ?ledger ~jobs ~check ~traced () =
  let d, setup_s = P.timed (start_daemon ctx ?ledger ~traced) in
  let t0 = P.now () in
  let result = try Ok (serve_jobs d ~jobs ~check) with e -> Error e in
  let wall_s = P.now () -. t0 in
  (match result with
  | Ok _ -> stop_daemon d
  | Error _ -> ( try stop_daemon d with _ -> ()));
  match result with
  | Ok (ops_ms, failed, digest, trace) -> { setup_s; wall_s; ops_ms; failed; digest; trace }
  | Error e -> raise e

let serve_cold =
  let per_round = 27 in
  {
    name = "serve-cold";
    pinned = "cd14a1c892d100cb";
    prepare =
      (fun ctx ->
        let jobs =
          random_jobs (Vliw_util.Rng.create (Int64.logxor ctx.seed 0xc01dL)) per_round
        in
        (* a cold job finds nothing cached and simulates every cell *)
        let check _ (job : job) doc =
          num "cached" doc = Some 0 && num "simulated" doc = Some (List.length job.schemes)
        in
        fun ~traced -> serve_round ctx ~jobs ~check ~traced ());
    child = None;
  }

let serve_warm =
  let distinct = 18 and per_round = 180 in
  {
    name = "serve-warm";
    pinned = "459db5303dd746d1";
    prepare =
      (fun ctx ->
        let rng = Vliw_util.Rng.create (Int64.logxor ctx.seed 0x3a53L) in
        let base = Array.of_list (random_jobs rng distinct) in
        (* The daemon's cache is preloaded from a ledger of these jobs,
           simulated here once per run; each warm reply must carry
           exactly the locally computed grid digest. *)
        let base_dir = Filename.concat ctx.scratch "warm-base" in
        let expected =
          Array.map
            (fun job ->
              let scheme_names, mix_names, cells =
                E.Sweep.run_cells ~scale:E.Common.Quick ~seed:job.job_seed
                  ~scheme_names:job.schemes ~mix_names:[ job.mix ] ~jobs:1 ()
              in
              let module L = Vliw_telemetry.Ledger in
              let ledger_cells =
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
              in
              ignore
                (L.append ~dir:base_dir
                   (L.make ~cells:ledger_cells ~cmd:"exp" ~label:"perfbench"
                      ~scale:"quick" ~seed:job.job_seed ~jobs:1 ~scheme_names
                      ~mix_names ~wall_s:0.0 ()));
              P.grid_digest cells)
            base
        in
        let order = Array.init per_round (fun i -> i mod distinct) in
        Vliw_util.Rng.shuffle rng order;
        let jobs = Array.to_list (Array.map (fun i -> base.(i)) order) in
        let check i (job : job) doc =
          num "simulated" doc = Some 0
          && num "cached" doc = Some (List.length job.schemes)
          && str "digest" doc = Some expected.(order.(i))
        in
        let ledger = Vliw_telemetry.Ledger.ledger_path ~dir:base_dir in
        fun ~traced -> serve_round ctx ~ledger ~jobs ~check ~traced ());
    child = None;
  }

(* --- the distributed fleet --------------------------------------------------- *)

let fleet_size = 2

(* Spawn the fleet on socket pairs and wait until every worker's Ready
   greeting is waiting to be read. The greetings stay unread: the
   coordinator takes the connections as pre-connected peers and reads
   them itself. *)
let spawn_fleet ctx =
  let workers =
    List.init fleet_size (fun _ ->
        let mine, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let pid =
          Fun.protect
            ~finally:(fun () -> Unix.close theirs)
            (fun () -> Unix.create_process ctx.exe [| ctx.exe; "worker" |] theirs theirs Unix.stderr)
        in
        (pid, mine))
  in
  let deadline = P.now () +. read_timeout_s in
  let rec wait pending =
    if pending <> [] then
      let remaining = deadline -. P.now () in
      if remaining <= 0.0 then failwith "dist: a worker did not greet";
      match Unix.select pending [] [] remaining with
      | ready, _, _ -> wait (List.filter (fun fd -> not (List.mem fd ready)) pending)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pending
  in
  (try wait (List.map snd workers)
   with e ->
     List.iter
       (fun (pid, fd) ->
         Unix.close fd;
         (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
         ignore (P.waitpid_retry pid))
       workers;
     raise e);
  workers

let dist_replicates =
  let replicates = 8 in
  let round ctx ~seeds ~traced =
    let workers, setup_s = P.timed (fun () -> spawn_fleet ctx) in
    let tracer = if traced then Some (Span.collector ~seed:0xd157L ()) else None in
    let cfg =
      {
        Vliw_dist.Coordinator.default_config with
        worker_argv = [||];
        attached = List.map snd workers;
        tracer;
      }
    in
    let t0 = P.now () in
    (* the coordinator closes the connections; the processes are ours *)
    let res =
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun (pid, _) ->
              match P.waitpid_retry pid with
              | Unix.WEXITED 0 -> ()
              | _ -> failwith "dist: a worker did not exit cleanly")
            workers)
        (fun () ->
          let r =
            Vliw_dist.Coordinator.run ~scale:E.Common.Quick ~seeds
              ~scheme_names:fig10_schemes ~mix_names:Vliw_workloads.Mixes.names cfg
          in
          (r, P.now () -. t0))
    in
    let res, wall = res in
    let st = res.d_stats in
    let grids = res.d_grids in
    let cells = Array.concat (List.map snd grids) in
    let failed =
      List.fold_left (fun n (_, g) -> n + bad_cells g) 0 grids
      + (if st.workers_died > 0 then Array.length cells else 0)
    in
    let trace =
      Option.map
        (fun t ->
          let spans = Span.spans t in
          let total kind =
            P.sum
              (List.filter_map
                 (fun (s : Span.t) -> if s.kind = kind then Some s.dur_s else None)
                 spans)
          in
          (* a worker's prepare_row span nests inside the simulate_cell
             span of the first cell it compiles a row for *)
          let compile = total Span.Prepare_row and cells = total Span.Simulate_cell in
          let top =
            { P.layer = "dist"; name = "Coordinator.run"; lane = "bench"; start_s = t0; dur_s = wall; top = true }
          in
          {
            spans = top :: List.map (P.of_service_span ~layer:"dist") spans;
            round_s = wall;
            covered_s = wall;
            busy =
              [
                ("compile", compile);
                ("simulate", cells -. compile);
                ("control", total Span.Dispatch -. cells);
              ];
            lanes = float_of_int fleet_size;
            extra =
              [
                ("dist.shards_dispatched", float_of_int st.shards_dispatched);
                ("dist.shards_requeued", float_of_int st.shards_requeued);
                ("dist.workers_died", float_of_int st.workers_died);
                ("dist.cells_degraded", float_of_int st.cells_degraded);
                ("dist.worker_busy_frac", cells /. (float_of_int fleet_size *. wall));
                ("dist.spawn_s", setup_s);
              ];
          })
        tracer
    in
    {
      setup_s;
      wall_s = wall;
      ops_ms = cells_ms cells;
      failed = min failed (Array.length cells);
      digest =
        P.digest_strings
          (List.map (fun (s, g) -> Printf.sprintf "%Lx=%s" s (P.grid_digest g)) grids);
      trace;
    }
  in
  {
    name = "dist-replicates";
    pinned = "a1ebb9d87895c654";
    prepare =
      (fun ctx ->
        let seeds = E.Replicates.derive_seeds ~seed:ctx.seed replicates in
        round ctx ~seeds);
    child = None;
  }

let all =
  [ grid_default; exp_all_quick; grid_observed; serve_cold; serve_warm; dist_replicates ]

let names = List.map (fun w -> w.name) all

let find name = List.find_opt (fun w -> w.name = name) all
