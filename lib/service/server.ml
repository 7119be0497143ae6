(* The daemon: one select-driven event loop, no helper threads.

   Shape of a turn:
   1. select over the listeners and every connected client (zero
      timeout while cold cells are queued — the loop must not sleep on
      idle sockets while there is work to run);
   2. accept / read: bytes feed each client's NDJSON reader, completed
      lines become requests, framing errors become error replies
      (connection kept — rejection is per-line);
   3. if the queue is non-empty, plan ONE batch (Scheduler.plan over a
      snapshot of the queue) and run it on the Domain pool.

   Batches are the responsiveness unit: a batch holds at most [jobs]
   units, each one sharing class of a job's cold cells on one row
   (Sweep.run_class simulates it once and finishes every member), so a
   higher-priority submission arriving mid-sweep preempts
   at the next batch boundary, and new clients wait at most one batch
   for their accept/cache-hit replies. Cache hits never enter the
   queue at all — they are answered synchronously at submit time.

   Socket writes happen only in the loop's own domain (results are
   processed after the pool barrier returns), so no send is ever
   concurrent with another and replies of one client stay ordered. A
   client that dies mid-job orphans the job: it keeps running (the
   results still feed the cache and the ledger) with its sends
   dropped. *)

module J = Vliw_util.Json
module Ndjson = Vliw_util.Ndjson
module Wire = Vliw_util.Wire
module Log = Vliw_util.Log
module E = Vliw_experiments
module Ledger = Vliw_telemetry.Ledger
module Counters = Vliw_telemetry.Counters
module Span = Vliw_telemetry.Span

type config = {
  socket_path : string option;
  tcp_port : int option;
  runs_dir : string;
  jobs : int;
  no_ledger : bool;
  metrics_out : string option;
  max_line_bytes : int;
  max_inflight : int;
  max_requests : int;
  max_jobs : int option;
  handle_signals : bool;
  log : Log.t;
  tracer : Span.collector option;
  trace_out : string option;
}

let default_config =
  {
    socket_path = None;
    tcp_port = None;
    runs_dir = Ledger.default_dir;
    jobs = 1;
    no_ledger = false;
    metrics_out = None;
    max_line_bytes = 1 lsl 20;
    max_inflight = 4;
    max_requests = 10_000;
    max_jobs = None;
    handle_signals = false;
    log = Log.null;
    tracer = None;
    trace_out = None;
  }

(* --- jobs -------------------------------------------------------------- *)

(* A batch unit: one sharing class of a job's cold slots on one row, run
   by one pool task. *)
type batch_unit = {
  u_row : E.Sweep.row;
  u_cols : E.Sweep.column array;  (* the row's cold columns *)
  u_slots : int array;  (* each column's slot in [j_slots] *)
  u_members : int list;  (* the class, as indices into [u_cols] *)
}

type job = {
  j_id : string;
  j_tag : string;
  j_client : int;  (* client id; sends are dropped once it is gone *)
  j_priority : int;
  j_arrival : int;
  j_scale : E.Common.scale;
  j_seed : int64;
  j_schemes : string list;
  j_mixes : string list;
  j_slots : (string * string) array;  (* mix-major (mix, scheme) *)
  j_tally : E.Sweep.Tally.t;  (* the job's finished cells, slot-indexed *)
  mutable j_pending : batch_unit list;  (* undispatched cold classes *)
  j_t0 : float;
  (* tracing: (trace id, client parent span, client asked) when the job
     is traced — either the request carried ids or server tracing is on.
     Spans only ride the "done" reply when the client asked. *)
  j_trace : (int64 * int64 option * bool) option;
  j_root : int64;  (* preallocated submit-span id; children hang here *)
  j_t0c : float;  (* tracer-clock sibling of [j_t0] *)
  mutable j_sched : bool;  (* queue_wait + schedule recorded already *)
  mutable j_spans : Span.t list;  (* this job's spans, newest first *)
}

type client = {
  c_id : int;
  c_conn : Wire.conn;
  mutable c_inflight : int;
  mutable c_requests : int;
  mutable c_closed : bool;
}

let with_fields extra = function
  | J.Obj fields -> J.Obj (extra @ fields)
  | other -> other

(* A cell answered from the cache: no attempt, no error. *)
let cached (c : E.Sweep.cell) = c.attempts = 0 && c.error = None

(* --- the loop ---------------------------------------------------------- *)

let run cfg =
  if cfg.socket_path = None && cfg.tcp_port = None then
    invalid_arg "Server.run: no listener configured (socket or tcp)";
  (* Counters belong to this run, so daemons sharing a process keep
     separate numbers. All are created up front: a fresh exposition
     lists each one at zero. *)
  let registry = Counters.create () in
  let counter name = Counters.counter registry ("service." ^ name) in
  let requests = counter "requests" in
  let rejected = counter "requests.rejected" in
  let submits = counter "submits" in
  let jobs_completed = counter "jobs.completed" in
  let cells_cached = counter "cells.cached" in
  let cells_simulated = counter "cells.simulated" in
  let cells_degraded = counter "cells.degraded" in
  let cache_preloaded = counter "cache.preloaded" in
  let clients_accepted = counter "clients.accepted" in
  let effective_jobs =
    if cfg.jobs <= 0 then Vliw_util.Pool.auto_jobs () else cfg.jobs
  in
  let cache = Cache.create () in
  Counters.add cache_preloaded (Cache.preload cache ~dir:cfg.runs_dir);
  Log.info cfg.log "cache preloaded"
    [
      ("cells", Log.I (Counters.value cache_preloaded));
      ("ledger", Log.S (Ledger.ledger_path ~dir:cfg.runs_dir));
    ];
  (* The collector always exists (per-request tracing works even on an
     untraced daemon); it only accumulates spans for traced jobs, so an
     untraced deployment records nothing. *)
  let tracer =
    match cfg.tracer with
    | Some c -> c
    | None -> Span.collector ~seed:0x5e21e5713ea11L ()
  in
  let server_traced = cfg.tracer <> None || cfg.trace_out <> None in
  let job_span job ?parent ~kind ~name ~lane ~start_s ~dur_s () =
    match job.j_trace with
    | None -> ()
    | Some (trace, _, _) ->
      let sp =
        Span.record tracer ~trace ?parent ~kind ~name ~lane ~start_s ~dur_s ()
      in
      job.j_spans <- sp :: job.j_spans
  in
  (* Rows compiled once and shared across jobs. *)
  let rows = E.Sweep.row_memo () in
  let draining = ref false in
  if cfg.handle_signals then begin
    let drain _ = draining := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain)
  end;
  Wire.ignore_sigpipe ();
  (* client and job state *)
  let clients : (int, client) Hashtbl.t = Hashtbl.create 16 in
  let next_client = ref 0 in
  let next_job = ref 0 in
  let next_arrival = ref 0 in
  let queue : job list ref = ref [] in
  let exposition () =
    Vliw_telemetry.Openmetrics.render
      ~labels:[ ("component", "service") ]
      ~snapshot:(Counters.snapshot registry)
      ~gauges:
        [
          ("service.cache.cells", float_of_int (Cache.size cache));
          ("service.clients", float_of_int (Hashtbl.length clients));
          ("service.queue.depth", float_of_int (List.length !queue));
        ]
      ()
  in
  let write_metrics () =
    Option.iter
      (fun path ->
        try Vliw_util.Atomic_io.write_file ~path (exposition ())
        with e ->
          Log.warn cfg.log "could not write metrics"
            [ ("path", Log.S path); ("err", Log.S (Printexc.to_string e)) ])
      cfg.metrics_out
  in
  let close_client c =
    if not c.c_closed then begin
      c.c_closed <- true;
      Hashtbl.remove clients c.c_id;
      try Unix.close (Wire.fd c.c_conn) with Unix.Unix_error _ -> ()
    end
  in
  let send c doc =
    if not c.c_closed then
      try Wire.write_line (Wire.fd c.c_conn) doc
      with Unix.Unix_error _ ->
        (* peer gone mid-write: drop the client, keep its jobs *)
        close_client c
  in
  let send_to_client_id id doc =
    match Hashtbl.find_opt clients id with
    | Some c -> send c doc
    | None -> ()
  in
  let send_error c ?job msg =
    Counters.incr rejected;
    send c
      (J.Obj
         (("reply", J.Str "error")
         :: ((match job with Some id -> [ ("job", J.Str id) ] | None -> [])
            @ [ ("error", J.Str msg) ])))
  in
  (* A job's event stream, tagged with its id; a finished cell also
     says whether the cache answered it. *)
  let job_events ~client ~id ev =
    let extra =
      match ev with
      | E.Sweep.Cell_finished r -> [ ("cached", J.Bool (cached r.cell)) ]
      | _ -> []
    in
    send_to_client_id client
      (with_fields (("job", J.Str id) :: extra) (E.Sweep.json_of_event ev))
  in
  let finish_cell job idx (cell : E.Sweep.cell) =
    if cached cell then Counters.incr cells_cached
    else if cell.error <> None then Counters.incr cells_degraded
    else begin
      Counters.incr cells_simulated;
      Cache.add cache
        ~key:
          (Cache.cell_key
             ~scale:(E.Common.scale_name job.j_scale)
             ~seed:job.j_seed ~mix:cell.mix ~scheme:cell.scheme)
        ~ipc:cell.ipc
    end;
    E.Sweep.Tally.finish job.j_tally idx cell
  in
  (* A job's cold slots as batch units: per row, its cold columns'
     sharing classes. Rows compile here, in the loop's domain (compilation
     must not race); pool workers only simulate. *)
  let batch_units job cold =
    let n_schemes = List.length job.j_schemes in
    List.concat
      (List.mapi
         (fun r mix ->
           match List.filter (fun i -> i / n_schemes = r) cold with
           | [] -> []
           | slots ->
             let u_row =
               E.Sweep.memo_row rows ~scale:job.j_scale ~seed:job.j_seed mix
             in
             let u_slots = Array.of_list slots in
             let u_cols =
               Array.map
                 (fun i ->
                   E.Sweep.static_column
                     (Vliw_merge.Catalog.find_exn (snd job.j_slots.(i))))
                 u_slots
             in
             List.map
               (fun u_members -> { u_row; u_cols; u_slots; u_members })
               (E.Sweep.classes u_row u_cols))
         job.j_mixes)
  in
  let complete job =
    E.Sweep.Tally.completed job.j_tally = Array.length job.j_slots
  in
  let finalize job =
    let wall_s = E.Sweep.Tally.close job.j_tally in
    let tallied = E.Sweep.Tally.cells job.j_tally in
    let count p = Array.fold_left (fun n c -> if p c then n + 1 else n) 0 tallied in
    let n_cached = count cached
    and n_degraded = count (fun (c : E.Sweep.cell) -> c.error <> None) in
    let n_simulated = Array.length tallied - n_cached - n_degraded in
    let cells = Array.map E.Sweep.ledger_cell tallied in
    let mean =
      let sum = ref 0.0 and n = ref 0 in
      Array.iter
        (fun (c : Ledger.cell) ->
          if not (Float.is_nan c.ipc) then begin
            sum := !sum +. c.ipc;
            incr n
          end)
        cells;
      if !n = 0 then Float.nan else !sum /. float_of_int !n
    in
    let record =
      Ledger.make
        ~counters:
          [
            ("service.cells.cached", n_cached);
            ("service.cells.degraded", n_degraded);
            ("service.cells.simulated", n_simulated);
          ]
        ~gauges:
          ((if Float.is_nan mean then [] else [ ("ipc.mean", mean) ])
          @ Span.latency_gauges (List.rev job.j_spans))
        ~cells ~cmd:"serve"
        ~label:(if job.j_tag = "" then job.j_id else job.j_tag)
        ~scale:(E.Common.scale_name job.j_scale)
        ~seed:job.j_seed ~jobs:effective_jobs ~scheme_names:job.j_schemes
        ~mix_names:job.j_mixes ~wall_s ()
    in
    let run_id =
      if cfg.no_ledger then None
      else begin
        let t_app = Span.now tracer in
        match Ledger.append ~dir:cfg.runs_dir record with
        | r ->
          job_span job ~parent:job.j_root ~kind:Span.Ledger_append
            ~name:job.j_id ~lane:"server" ~start_s:t_app
            ~dur_s:(Span.now tracer -. t_app) ();
          Some r.Ledger.id
        | exception e ->
          Log.warn cfg.log "could not record serve ledger entry"
            [
              ("job", Log.S job.j_id); ("err", Log.S (Printexc.to_string e));
            ];
          None
      end
    in
    (* Close the root submit span last so every child fits inside it,
       then feed the finished tree to the exposition histograms. *)
    (match job.j_trace with
    | None -> ()
    | Some (trace, parent, _) ->
      let sp =
        {
          Span.trace;
          id = job.j_root;
          parent;
          kind = Span.Submit;
          name = job.j_id;
          lane = "server";
          start_s = job.j_t0c;
          dur_s = Span.now tracer -. job.j_t0c;
        }
      in
      Span.add tracer sp;
      job.j_spans <- sp :: job.j_spans;
      Span.observe_histograms registry (List.rev job.j_spans));
    send_to_client_id job.j_client
      (J.Obj
         ([
            ("reply", J.Str "done");
            ("job", J.Str job.j_id);
            ("tag", J.Str job.j_tag);
          ]
         @ (match run_id with Some id -> [ ("run", J.Str id) ] | None -> [])
         @ [
             ("digest", J.Str (Ledger.grid_digest cells));
             ("cells", J.Num (float_of_int (Array.length cells)));
             ("cached", J.Num (float_of_int n_cached));
             ("simulated", J.Num (float_of_int n_simulated));
             ("degraded", J.Num (float_of_int n_degraded));
             ("wall_s", J.Num wall_s);
           ]
         @
         match job.j_trace with
         | Some (trace, _, true) ->
           [
             ("trace", J.Str (Span.id_to_hex trace));
             ("spans", Span.list_to_json (List.rev job.j_spans));
           ]
         | _ -> []));
    (match Hashtbl.find_opt clients job.j_client with
    | Some c -> c.c_inflight <- max 0 (c.c_inflight - 1)
    | None -> ());
    Counters.incr jobs_completed;
    Log.debug cfg.log "job done"
      [
        ("job", Log.S job.j_id);
        ("client", Log.I job.j_client);
        ("cached", Log.I n_cached);
        ("simulated", Log.I n_simulated);
        ("wall_s", Log.F wall_s);
      ];
    (match cfg.max_jobs with
    | Some n when Counters.value jobs_completed >= n ->
      Log.info cfg.log "max-jobs reached; draining" [ ("max_jobs", Log.I n) ];
      draining := true
    | _ -> ());
    write_metrics ()
  in
  (* --- request handling ----------------------------------------------- *)
  let handle_submit c (s : Request.submit) =
    let invalid msg =
      send_error c msg;
      None
    in
    match E.Common.scale_of_name s.scale with
    | None -> invalid (Printf.sprintf "unknown scale %S (quick|default|full)" s.scale)
    | Some scale -> (
      let mixes =
        match s.mixes with [] -> Vliw_workloads.Mixes.names | ms -> ms
      in
      let schemes = match s.schemes with [] -> E.Fig10.scheme_names | ss -> ss in
      match
        ( List.find_opt (fun m -> Vliw_workloads.Mixes.find m = None) mixes,
          List.find_opt (fun n -> Vliw_merge.Catalog.find n = None) schemes )
      with
      | Some m, _ -> invalid (Printf.sprintf "unknown mix %S" m)
      | _, Some n -> invalid (Printf.sprintf "unknown scheme %S" n)
      | None, None ->
        if !draining then invalid "server is draining; submission refused"
        else if c.c_inflight >= cfg.max_inflight then
          invalid
            (Printf.sprintf "per-client in-flight limit reached (%d)"
               cfg.max_inflight)
        else begin
          incr next_job;
          incr next_arrival;
          Counters.incr submits;
          let id = Printf.sprintf "j%d" !next_job in
          let slots =
            Array.of_list
              (List.concat_map
                 (fun mix -> List.map (fun scheme -> (mix, scheme)) schemes)
                 mixes)
          in
          (* Cache pass at submit time: hits are answered immediately
             and never occupy a scheduler slot. *)
          let hits =
            Array.map
              (fun (mix, scheme) ->
                Cache.find cache
                  ~key:
                    (Cache.cell_key
                       ~scale:(E.Common.scale_name scale)
                       ~seed:s.seed ~mix ~scheme))
              slots
          in
          let cold =
            List.filter
              (fun i -> Option.is_none hits.(i))
              (List.init (Array.length slots) Fun.id)
          in
          send c
            (J.Obj
               [
                 ("reply", J.Str "accepted");
                 ("job", J.Str id);
                 ("tag", J.Str s.tag);
                 ("cells", J.Num (float_of_int (Array.length slots)));
                 ( "cached",
                   J.Num (float_of_int (Array.length slots - List.length cold))
                 );
                 ("cold", J.Num (float_of_int (List.length cold)));
                 ("queue_depth", J.Num (float_of_int (List.length !queue)));
               ]);
          let j_trace =
            match s.trace with
            | Some { Request.trace_id; parent_span } ->
              Some (trace_id, parent_span, true)
            | None ->
              if server_traced then Some (Span.fresh_id tracer, None, false)
              else None
          in
          let job =
            {
              j_id = id;
              j_tag = s.tag;
              j_client = c.c_id;
              j_priority = s.priority;
              j_arrival = !next_arrival;
              j_scale = scale;
              j_seed = s.seed;
              j_schemes = schemes;
              j_mixes = mixes;
              j_slots = slots;
              j_tally =
                E.Sweep.Tally.create
                  ~on_event:(job_events ~client:c.c_id ~id)
                  ~scale ~seed:s.seed ~jobs:effective_jobs (Array.length slots);
              j_pending = [];
              j_t0 = Unix.gettimeofday ();
              j_trace;
              j_root =
                (match j_trace with
                | Some _ -> Span.fresh_id tracer
                | None -> 0L);
              j_t0c = Span.now tracer;
              j_sched = false;
              j_spans = [];
            }
          in
          c.c_inflight <- c.c_inflight + 1;
          Log.debug cfg.log "submit accepted"
            [
              ("job", Log.S job.j_id);
              ("client", Log.I c.c_id);
              ("cells", Log.I (Array.length slots));
              ("traced", Log.B (j_trace <> None));
            ];
          Array.iteri
            (fun i hit ->
              Option.iter
                (fun ipc ->
                  let mix, scheme = slots.(i) in
                  finish_cell job i
                    (E.Sweep.cell_of_outcome ~attempts:0 ~mix ~scheme (Ok ipc)))
                hit)
            hits;
          if complete job then begin
            finalize job;
            None
          end
          else begin
            job.j_pending <- batch_units job cold;
            Some job
          end
        end)
  in
  let handle_request c req =
    Counters.incr requests;
    c.c_requests <- c.c_requests + 1;
    if c.c_requests > cfg.max_requests then begin
      send_error c
        (Printf.sprintf "per-client request limit reached (%d)"
           cfg.max_requests);
      close_client c
    end
    else
      match req with
      | Request.Ping -> send c (J.Obj [ ("reply", J.Str "pong") ])
      | Request.Stats ->
        let inflight =
          Hashtbl.fold
            (fun _ cl acc ->
              if cl.c_inflight > 0 then
                J.Obj
                  [
                    ("client", J.Num (float_of_int cl.c_id));
                    ("jobs", J.Num (float_of_int cl.c_inflight));
                  ]
                :: acc
              else acc)
            clients []
        in
        let latency =
          match Span.latency_gauges (Span.spans tracer) with
          | [] -> []
          | gs ->
            [ ("latency", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) gs)) ]
        in
        send c
          (J.Obj
             ([
                ("reply", J.Str "stats");
                ("kind", J.Str "service");
                ("queue_depth", J.Num (float_of_int (List.length !queue)));
                ("cache_cells", J.Num (float_of_int (Cache.size cache)));
                ("clients", J.Num (float_of_int (Hashtbl.length clients)));
                ("draining", J.Bool !draining);
                ("inflight", J.List inflight);
                ( "counters",
                  J.Obj
                    (List.map
                       (fun (k, v) -> (k, J.Num (float_of_int v)))
                       (Counters.snapshot registry).Counters.counters) );
              ]
             @ latency))
      | Request.Metrics ->
        send c
          (J.Obj
             [
               ("reply", J.Str "metrics");
               ("exposition", J.Str (exposition ()));
             ])
      | Request.Shutdown ->
        draining := true;
        send c (J.Obj [ ("reply", J.Str "shutting_down") ])
      | Request.Submit s -> (
        match handle_submit c s with
        | Some job -> queue := !queue @ [ job ]
        | None -> ())
  in
  let handle_line c = function
    | Ok doc -> (
      match Request.of_json doc with
      | Ok req -> handle_request c req
      | Error msg ->
        Counters.incr requests;
        send_error c msg)
    | Error framing ->
      Counters.incr requests;
      send_error c (Ndjson.error_message framing)
  in
  let read_client c =
    match Wire.read c.c_conn with
    | Wire.Lines lines -> List.iter (handle_line c) lines
    | Wire.Eof _ | Wire.Reset ->
      (* an unterminated trailing line is a peer bug, but there is no
         one left to tell *)
      close_client c
  in
  let accept fd =
    match Wire.accept ~max_line_bytes:cfg.max_line_bytes fd with
    | Some conn ->
      incr next_client;
      Counters.incr clients_accepted;
      Log.debug cfg.log "client accepted" [ ("client", Log.I !next_client) ];
      Hashtbl.replace clients !next_client
        {
          c_id = !next_client;
          c_conn = conn;
          c_inflight = 0;
          c_requests = 0;
          c_closed = false;
        }
    | None -> ()
  in
  (* --- one batch of cold cells ----------------------------------------- *)
  let run_batch () =
    let snapshot =
      List.map
        (fun job ->
          {
            Scheduler.jid = job.j_id;
            priority = job.j_priority;
            arrival = job.j_arrival;
            cells = List.map (fun u -> (job, u)) job.j_pending;
          })
        !queue
    in
    let t_plan0 = Span.now tracer in
    let batch, _ = Scheduler.plan ~capacity:effective_jobs snapshot in
    let t_plan1 = Span.now tracer in
    let batch = Array.of_list batch in
    Array.iter
      (fun (_, (job, u)) ->
        job.j_pending <- List.filter (fun u' -> u' != u) job.j_pending)
      batch;
    queue := List.filter (fun job -> job.j_pending <> []) !queue;
    (* A traced job's first batch closes its queue_wait (submit -> this
       planning pass) and pins the plan cost as its schedule span. *)
    Array.iter
      (fun (_, (job, _)) ->
        if not job.j_sched then begin
          job.j_sched <- true;
          job_span job ~parent:job.j_root ~kind:Span.Queue_wait ~name:job.j_id
            ~lane:"server" ~start_s:job.j_t0c
            ~dur_s:(t_plan0 -. job.j_t0c) ();
          job_span job ~parent:job.j_root ~kind:Span.Schedule ~name:job.j_id
            ~lane:"server" ~start_s:t_plan0
            ~dur_s:(t_plan1 -. t_plan0) ()
        end)
      batch;
    let tasks =
      Array.map
        (fun (_, (job, u)) ~worker ->
          E.Sweep.run_class ~epoch:job.j_t0 ~worker u.u_row u.u_cols u.u_members)
        batch
    in
    let results = Vliw_util.Pool.run_results ~jobs:cfg.jobs tasks in
    let touched = Hashtbl.create 8 in
    Array.iteri
      (fun k res ->
        let _, (job, u) = batch.(k) in
        Hashtbl.replace touched job.j_id job;
        match res with
        | Ok cells ->
          let rep = List.hd u.u_members
          and (first : E.Sweep.cell), _ = List.hd cells in
          job_span job ~parent:job.j_root ~kind:Span.Simulate_cell
            ~name:(u.u_row.name ^ "/" ^ u.u_cols.(rep).col_name)
            ~lane:(Printf.sprintf "pool %d" first.worker)
            ~start_s:t_plan1
            ~dur_s:(E.Sweep.total_elapsed_s (Array.of_list (List.map fst cells)))
            ();
          List.iter2
            (fun j (cell, _) -> finish_cell job u.u_slots.(j) cell)
            u.u_members cells
        | Error e ->
          List.iter
            (fun j ->
              let slot = u.u_slots.(j) in
              let mix, scheme = job.j_slots.(slot) in
              finish_cell job slot
                (E.Sweep.cell_of_outcome ~attempts:1 ~mix ~scheme
                   (Error (Printexc.to_string e))))
            u.u_members)
      results;
    Hashtbl.iter (fun _ job -> if complete job then finalize job) touched
  in
  (* --- main loop -------------------------------------------------------- *)
  let listeners = ref [] in
  let cleanup () =
    List.iter (fun (ep, fd) -> Wire.close_listener ep fd) !listeners;
    Hashtbl.iter
      (fun _ c -> try Unix.close (Wire.fd c.c_conn) with Unix.Unix_error _ -> ())
      clients;
    Hashtbl.reset clients
  in
  Fun.protect ~finally:cleanup (fun () ->
      (* A listener that fails (a live daemon owns the socket path)
         raises before it joins [listeners], so cleanup never unlinks a
         path this daemon did not bind. *)
      List.iter
        (fun ep ->
          listeners := (ep, Wire.listen ep) :: !listeners;
          Log.info cfg.log "listening"
            [ ("endpoint", Log.S (Wire.endpoint_name ep)) ])
        (Wire.endpoints ~socket:cfg.socket_path ~tcp:cfg.tcp_port);
      write_metrics ();
      let finished () = !draining && !queue = [] in
      while not (finished ()) do
        let ready =
          Wire.select
            ~listeners:(if !draining then [] else List.map snd !listeners)
            ~timeout:(if !queue <> [] then 0.0 else 0.2)
            (Hashtbl.fold (fun _ c acc -> (c.c_conn, c) :: acc) clients [])
        in
        List.iter
          (function
            | Wire.Accept fd -> accept fd
            | Wire.Readable c -> if not c.c_closed then read_client c)
          ready;
        if !queue <> [] then run_batch ()
      done;
      write_metrics ();
      Option.iter
        (fun path ->
          try
            Vliw_util.Atomic_io.write_file ~path
              (Span.to_chrome ~process_name:"vliwsim serve"
                 (Span.spans tracer))
          with e ->
            Log.warn cfg.log "could not write trace"
              [ ("path", Log.S path); ("err", Log.S (Printexc.to_string e)) ])
        cfg.trace_out;
      Log.info cfg.log "shutdown"
        [
          ("jobs", Log.I (Counters.value jobs_completed));
          ("cached", Log.I (Counters.value cells_cached));
          ("simulated", Log.I (Counters.value cells_simulated));
        ])
