(* The coordinator event loop.

   Single domain, select-driven, mirroring the service daemon's shape:
   parallelism lives in the worker processes, so the loop only shuffles
   NDJSON lines and never blocks on simulation. Dispatch is pull-based:
   an idle ready worker claims the head of the shard queue. All
   determinism rests on cells being pure functions of (scale, master
   seed, mix, scheme) — which worker computes a cell, in what order,
   after how many deaths, cannot change its bits.

   Fault handling has two distinct layers, deliberately matching the
   in-process sweep's semantics:
   - a *simulation* failure consumes the cell's retry budget
     ([max_retries], then degrade to nan);
   - a *worker* death (EOF, broken pipe, shard timeout) is free for the
     cells it strands — they re-queue with budget intact — except that
     a cell observed on [max_retries + 3] dying workers degrades too,
     so a poison cell that crashes its host cannot re-queue forever. *)

module E = Vliw_experiments
module Ndjson = Vliw_util.Ndjson
module Wire = Vliw_util.Wire
module J = Vliw_util.Json
module Log = Vliw_util.Log
module Span = Vliw_telemetry.Span

type stats = {
  mutable cells_simulated : int;
  mutable cells_restored : int;
  mutable cells_retried : int;
  mutable cells_degraded : int;
  mutable shards_dispatched : int;
  mutable shards_completed : int;
  mutable shards_requeued : int;
  mutable workers_spawned : int;
  mutable workers_attached : int;
  mutable workers_died : int;
  mutable workers_timeouts : int;
}

let make_stats () =
  {
    cells_simulated = 0;
    cells_restored = 0;
    cells_retried = 0;
    cells_degraded = 0;
    shards_dispatched = 0;
    shards_completed = 0;
    shards_requeued = 0;
    workers_spawned = 0;
    workers_attached = 0;
    workers_died = 0;
    workers_timeouts = 0;
  }

let counters_list s =
  [
    ("dist.cells.degraded", s.cells_degraded);
    ("dist.cells.restored", s.cells_restored);
    ("dist.cells.retried", s.cells_retried);
    ("dist.cells.simulated", s.cells_simulated);
    ("dist.shards.completed", s.shards_completed);
    ("dist.shards.dispatched", s.shards_dispatched);
    ("dist.shards.requeued", s.shards_requeued);
    ("dist.workers.attached", s.workers_attached);
    ("dist.workers.died", s.workers_died);
    ("dist.workers.spawned", s.workers_spawned);
    ("dist.workers.timeouts", s.workers_timeouts);
  ]

type config = {
  workers : int;
  worker_argv : string array;
  attached : Unix.file_descr list;
  listen_socket : string option;
  listen_tcp : int option;
  shard_size : int option;
  max_retries : int;
  shard_timeout_s : float option;
  checkpoint : string option;
  resume : bool;
  die_first_worker_after : int option;
  log : Log.t;
  on_event : (E.Sweep.event -> unit) option;
  tracer : Span.collector option;
}

let default_config =
  {
    workers = 0;
    worker_argv = [||];
    attached = [];
    listen_socket = None;
    listen_tcp = None;
    shard_size = None;
    max_retries = 0;
    shard_timeout_s = None;
    checkpoint = None;
    resume = false;
    die_first_worker_after = None;
    log = Log.null;
    on_event = None;
    tracer = None;
  }

type result = {
  d_scheme_names : string list;
  d_mix_names : string list;
  d_grids : (int64 * E.Sweep.cell array) list;
  d_wall_s : float;
  d_stats : stats;
}

(* --- internal state ---------------------------------------------------- *)

(* A queued shard: grid index + spec per cell, so results route without
   re-hashing. Plan's ids restart per seed; the coordinator assigns its
   own dense ids (re-queued fragments get fresh ones too). *)
type ishard = {
  is_id : int;
  is_seed_idx : int;
  mutable is_cells : (int * Plan.cell_spec) list;
  is_born : float;  (* tracer clock at queueing; 0 when untraced *)
}

type wrk = {
  w_id : int;
  w_pid : int option;  (* None for attached transports *)
  w_in : Unix.file_descr;
  w_out : Wire.conn;  (* reads the same fd as [w_in] on socket transports *)
  mutable w_ready : bool;
  mutable w_shard : ishard option;
  mutable w_deadline : float;  (* infinity when idle or no timeout *)
  mutable w_closed : bool;
  (* open dispatch span: (shard span id, dispatch span id, start) *)
  mutable w_trace : (int64 * int64 * float) option;
}

(* One replicate's grid: its cells are the tally's slots [ss_base ..
   ss_base + n_cells - 1], mix-major. *)
type seed_state = {
  ss_seed : int64;
  ss_base : int;
  ss_attempts : int array;  (* failed simulation attempts per cell *)
  ss_deaths : int array;  (* dying workers observed per cell *)
  ss_journal : E.Sweep.journal option;
}

let run ?(scale = E.Common.Default) ?(seed = E.Common.default_seed) ?seeds
    ?scheme_names ?mix_names cfg =
  let seeds = match seeds with Some (_ :: _ as s) -> s | _ -> [ seed ] in
  let scheme_names =
    match scheme_names with Some s -> s | None -> E.Fig10.scheme_names
  in
  let mix_names =
    match mix_names with Some m -> m | None -> Vliw_workloads.Mixes.names
  in
  List.iter
    (fun m ->
      if Vliw_workloads.Mixes.find m = None then
        invalid_arg ("dist: unknown mix " ^ m))
    mix_names;
  List.iter
    (fun s ->
      if Vliw_merge.Catalog.find s = None then
        invalid_arg ("dist: unknown scheme " ^ s))
    scheme_names;
  if
    (cfg.workers <= 0 || Array.length cfg.worker_argv = 0)
    && cfg.attached = []
    && cfg.listen_socket = None
    && cfg.listen_tcp = None
  then failwith "dist: no worker transport configured";
  Wire.ignore_sigpipe ();
  let stats = make_stats () in
  let scale_str = E.Common.scale_name scale in
  let grid_cells = Plan.cells_of_grid ~mix_names ~scheme_names in
  let n_cells = List.length grid_cells in
  let total = n_cells * List.length seeds in
  let t0 = Unix.gettimeofday () in
  let emit ev = Option.iter (fun f -> f ev) cfg.on_event in
  (* Trace context: one trace per run, a root span the per-shard trees
     hang under. The root id is allocated now (children reference it)
     but its span is recorded at the end, once its duration is known. *)
  let trace_ctx =
    Option.map
      (fun c ->
        let trace = Span.fresh_id c in
        let root = Span.fresh_id c in
        (c, trace, root, Span.now c))
      cfg.tracer
  in
  let tnow () =
    match trace_ctx with Some (c, _, _, _) -> Span.now c | None -> 0.0
  in
  (* --- per-seed grids and journals, one tally ------------------------- *)
  let index = Hashtbl.create (max 1 n_cells) in
  List.iteri
    (fun i (c : Plan.cell_spec) -> Hashtbl.replace index (c.mix, c.scheme) i)
    grid_cells;
  let multi = List.length seeds > 1 in
  let states =
    Array.of_list
      (List.mapi
         (fun idx sd ->
           {
             ss_seed = sd;
             ss_base = idx * n_cells;
             ss_attempts = Array.make (max 1 n_cells) 0;
             ss_deaths = Array.make (max 1 n_cells) 0;
             ss_journal =
               Option.map
                 (fun path ->
                   (* Replicated runs keep one journal per seed: a
                      journal header pins exactly one (scale, seed,
                      grid). *)
                   E.Sweep.open_journal
                     ~log:(fun msg -> Log.warn cfg.log msg [])
                     ~resume:cfg.resume ~scale ~seed:sd ~scheme_names ~mix_names
                     (if multi then Printf.sprintf "%s.s%Lx" path sd else path))
                 cfg.checkpoint;
           })
         seeds)
  in
  let workers : (int, wrk) Hashtbl.t = Hashtbl.create 8 in
  let planned_workers = max 1 (cfg.workers + List.length cfg.attached) in
  let tally =
    E.Sweep.Tally.create ?on_event:cfg.on_event
      ~workers:(fun () -> Hashtbl.length workers)
      ~scale ~seed:(List.hd seeds) ~jobs:planned_workers total
  in
  let is_done st i = E.Sweep.Tally.finished tally (st.ss_base + i) in
  let finish_cell st i (cell : E.Sweep.cell) =
    if not (is_done st i) then begin
      if cell.error <> None then stats.cells_degraded <- stats.cells_degraded + 1
      else if cell.attempts = 0 then stats.cells_restored <- stats.cells_restored + 1
      else stats.cells_simulated <- stats.cells_simulated + 1;
      E.Sweep.Tally.finish ?journal:st.ss_journal tally (st.ss_base + i) cell
    end
  in
  (* The one cell constructor of a worker's outcome. *)
  let outcome_cell ?elapsed_s (w : wrk) ~attempts ~mix ~scheme outcome =
    E.Sweep.cell_of_outcome ?elapsed_s ~started_s:(Unix.gettimeofday () -. t0)
      ~worker:w.w_id ~attempts ~mix ~scheme outcome
  in
  (* Journaled cells are reported first, right after the sweep starts. *)
  Array.iter
    (fun st ->
      Option.iter
        (fun j ->
          List.iteri
            (fun i (c : Plan.cell_spec) ->
              Option.iter (finish_cell st i)
                (E.Sweep.restored j ~mix:c.mix ~scheme:c.scheme))
            grid_cells)
        st.ss_journal)
    states;
  (* --- shard queue ------------------------------------------------------ *)
  let next_shard = ref 0 in
  let shard_seed : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let queue : ishard Queue.t = Queue.create () in
  let new_shard seed_idx cells =
    let s =
      {
        is_id = !next_shard;
        is_seed_idx = seed_idx;
        is_cells = cells;
        is_born = tnow ();
      }
    in
    incr next_shard;
    Hashtbl.replace shard_seed s.is_id seed_idx;
    s
  in
  Array.iteri
    (fun idx st ->
      List.iter
        (fun (p : Plan.shard) ->
          let cells =
            List.filter_map
              (fun (c : Plan.cell_spec) ->
                let i = Hashtbl.find index (c.mix, c.scheme) in
                if is_done st i then None else Some (i, c))
              p.cells
          in
          if cells <> [] then Queue.push (new_shard idx cells) queue)
        (Plan.make ?shard_size:cfg.shard_size ~workers:planned_workers
           ~seeds:[ st.ss_seed ] ~mix_names ~scheme_names ()))
    states;
  (* --- workers ---------------------------------------------------------- *)
  let snapshot () = Hashtbl.fold (fun _ w acc -> w :: acc) workers [] in
  let next_worker = ref 0 in
  let spawned_total = ref 0 in
  let respawn_budget = cfg.workers + 8 in
  let add_worker ~pid ~fd_in out =
    let w =
      {
        w_id = !next_worker;
        w_pid = pid;
        w_in = fd_in;
        w_out = out;
        w_ready = false;
        w_shard = None;
        w_deadline = infinity;
        w_closed = false;
        w_trace = None;
      }
    in
    incr next_worker;
    Hashtbl.replace workers w.w_id w;
    w
  in
  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let close_transport w =
    close_fd w.w_in;
    if Wire.fd w.w_out <> w.w_in then close_fd (Wire.fd w.w_out)
  in
  (* Quiet removal for peers that were never workers (stats monitors):
     no death is charged and nothing re-queues. *)
  let drop_peer (w : wrk) =
    if not w.w_closed then begin
      w.w_closed <- true;
      Hashtbl.remove workers w.w_id;
      close_transport w
    end
  in
  (* Close the open shard/dispatch spans of [w]'s current shard, whether
     it completed or died: the dispatch span ends now either way. *)
  let close_dispatch (w : wrk) =
    (match (trace_ctx, w.w_trace, w.w_shard) with
    | Some (c, trace, root, _), Some (shard_span, disp_span, t_disp), Some s ->
      let now = Span.now c in
      let name = Printf.sprintf "shard %d" s.is_id in
      Span.add c
        {
          Span.trace;
          id = disp_span;
          parent = Some shard_span;
          kind = Span.Dispatch;
          name = Printf.sprintf "%s worker %d" name w.w_id;
          lane = "coordinator";
          start_s = t_disp;
          dur_s = now -. t_disp;
        };
      Span.add c
        {
          Span.trace;
          id = shard_span;
          parent = Some root;
          kind = Span.Shard;
          name;
          lane = "coordinator";
          start_s = s.is_born;
          dur_s = now -. s.is_born;
        }
    | _ -> ());
    w.w_trace <- None
  in
  let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> () in
  let spawn_worker () =
    if Array.length cfg.worker_argv = 0 || !spawned_total >= respawn_budget then
      false
    else begin
      let argv =
        match cfg.die_first_worker_after with
        | Some n when !spawned_total = 0 ->
          Array.append cfg.worker_argv
            [| "--die-after-cells"; string_of_int n |]
        | _ -> cfg.worker_argv
      in
      let stdin_r, stdin_w = Unix.pipe () in
      let stdout_r, stdout_w = Unix.pipe () in
      match Unix.create_process argv.(0) argv stdin_r stdout_w Unix.stderr with
      | pid ->
        Unix.close stdin_r;
        Unix.close stdout_w;
        (* parent-side ends must not leak into later-spawned siblings,
           or one worker's EOF waits on another's exit *)
        Unix.set_close_on_exec stdin_w;
        Unix.set_close_on_exec stdout_r;
        incr spawned_total;
        stats.workers_spawned <- stats.workers_spawned + 1;
        let w = add_worker ~pid:(Some pid) ~fd_in:stdin_w (Wire.conn stdout_r) in
        Log.info cfg.log "worker spawned"
          [ ("worker", Log.I w.w_id); ("pid", Log.I pid) ];
        true
      | exception e ->
        List.iter close_fd [ stdin_r; stdin_w; stdout_r; stdout_w ];
        Log.warn cfg.log "worker spawn failed"
          [ ("err", Log.S (Printexc.to_string e)) ];
        false
    end
  in
  let worker_died ?(timeout = false) reason (w : wrk) =
    if not w.w_closed then begin
      w.w_closed <- true;
      Hashtbl.remove workers w.w_id;
      close_transport w;
      (match w.w_pid with
      | Some pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid
      | None -> ());
      stats.workers_died <- stats.workers_died + 1;
      if timeout then stats.workers_timeouts <- stats.workers_timeouts + 1;
      Log.warn cfg.log "worker died"
        [ ("worker", Log.I w.w_id); ("reason", Log.S reason) ];
      close_dispatch w;
      match w.w_shard with
      | None -> ()
      | Some s ->
        w.w_shard <- None;
        let st = states.(s.is_seed_idx) in
        let live =
          List.filter_map
            (fun (i, (c : Plan.cell_spec)) ->
              if is_done st i then None
              else begin
                st.ss_deaths.(i) <- st.ss_deaths.(i) + 1;
                if st.ss_deaths.(i) > cfg.max_retries + 3 then begin
                  let err =
                    "worker died repeatedly while simulating this cell"
                  in
                  emit
                    (E.Sweep.Cell_degraded
                       {
                         mix = c.mix;
                         scheme = c.scheme;
                         attempts = st.ss_attempts.(i);
                         error = err;
                       });
                  finish_cell st i
                    (outcome_cell w ~attempts:st.ss_attempts.(i) ~mix:c.mix
                       ~scheme:c.scheme (Error err));
                  None
                end
                else Some (i, c)
              end)
            s.is_cells
        in
        if live <> [] then begin
          stats.shards_requeued <- stats.shards_requeued + 1;
          Queue.push (new_shard s.is_seed_idx live) queue
        end
    end
  in
  let send (w : wrk) msg =
    if w.w_closed then false
    else
      match Wire.write_line w.w_in (Protocol.to_worker_to_json msg) with
      | () -> true
      | exception Unix.Unix_error _ ->
        worker_died "write failed" w;
        false
  in
  (* --- inbound messages ------------------------------------------------- *)
  let handle_cell_result (w : wrk) c_shard (r : Protocol.cell_result) =
    match Hashtbl.find_opt shard_seed c_shard with
    | None -> Log.warn cfg.log "stale result" [ ("shard", Log.I c_shard) ]
    | Some seed_idx -> (
      let st = states.(seed_idx) in
      (match w.w_shard with
      | Some s when s.is_id = c_shard ->
        s.is_cells <-
          List.filter
            (fun (_, (c : Plan.cell_spec)) ->
              not (c.mix = r.r_mix && c.scheme = r.r_scheme))
            s.is_cells;
        (* progress resets the silence budget *)
        Option.iter
          (fun t -> w.w_deadline <- Unix.gettimeofday () +. t)
          cfg.shard_timeout_s
      | _ -> ());
      match Hashtbl.find_opt index (r.r_mix, r.r_scheme) with
      | None ->
        Log.warn cfg.log "result for unknown cell"
          [ ("mix", Log.S r.r_mix); ("scheme", Log.S r.r_scheme) ]
      | Some i ->
        if is_done st i then
          (* duplicate delivery after a timeout/requeue race: cells are
             pure functions of their key, so first-wins is exact *)
          ()
        else (
          match r.r_error with
          | None ->
            finish_cell st i
              (outcome_cell ~elapsed_s:r.r_elapsed_s w
                 ~attempts:(st.ss_attempts.(i) + 1) ~mix:r.r_mix ~scheme:r.r_scheme
                 (Ok r.r_ipc))
          | Some err ->
            st.ss_attempts.(i) <- st.ss_attempts.(i) + 1;
            if st.ss_attempts.(i) <= cfg.max_retries then begin
              stats.cells_retried <- stats.cells_retried + 1;
              (match trace_ctx with
              | Some (c, trace, root, _) ->
                ignore
                  (Span.record c ~trace ~parent:root ~kind:Span.Retry
                     ~name:(r.r_mix ^ "/" ^ r.r_scheme)
                     ~lane:"coordinator" ~start_s:(Span.now c) ~dur_s:0.0 ())
              | None -> ());
              emit
                (E.Sweep.Cell_retried
                   {
                     mix = r.r_mix;
                     scheme = r.r_scheme;
                     attempt = st.ss_attempts.(i);
                     error = err;
                   });
              Queue.push
                (new_shard seed_idx
                   [ (i, { Plan.mix = r.r_mix; scheme = r.r_scheme }) ])
                queue
            end
            else begin
              emit
                (E.Sweep.Cell_degraded
                   {
                     mix = r.r_mix;
                     scheme = r.r_scheme;
                     attempts = st.ss_attempts.(i);
                     error = err;
                   });
              finish_cell st i
                (outcome_cell ~elapsed_s:r.r_elapsed_s w
                   ~attempts:st.ss_attempts.(i) ~mix:r.r_mix ~scheme:r.r_scheme
                   (Error err))
            end))
  in
  (* The live-stats reply for [vliwsim top]: same ["reply":"stats"]
     shape as the service daemon's, tagged ["kind":"dist"]. *)
  let stats_json () =
    let num n = J.Num (float_of_int n) in
    let worker_rows =
      Hashtbl.fold
        (fun _ w acc ->
          if w.w_pid = None && not w.w_ready then acc (* stats monitors *)
          else
            J.Obj
              [
                ("worker", num w.w_id);
                ("ready", J.Bool w.w_ready);
                ( "cells",
                  num
                    (match w.w_shard with
                    | Some s -> List.length s.is_cells
                    | None -> 0) );
              ]
            :: acc)
        workers []
    in
    let latency =
      match cfg.tracer with
      | None -> []
      | Some c ->
        [
          ( "latency",
            J.Obj
              (List.map
                 (fun (k, v) -> (k, J.Num v))
                 (Span.latency_gauges (Span.spans c))) );
        ]
    in
    J.Obj
      ([
         ("reply", J.Str "stats");
         ("kind", J.Str "dist");
         ("completed", num (E.Sweep.Tally.completed tally));
         ("total", num total);
         ("queue_depth", num (Queue.length queue));
         ("wall_s", J.Num (Unix.gettimeofday () -. t0));
         ("workers", J.List worker_rows);
         ( "counters",
           J.Obj (List.map (fun (k, v) -> (k, num v)) (counters_list stats)) );
       ]
      @ latency)
  in
  let handle_msg (w : wrk) = function
    | Protocol.Ready _ ->
      if (not w.w_ready) && w.w_pid = None then
        stats.workers_attached <- stats.workers_attached + 1;
      w.w_ready <- true
    | Protocol.Query_stats ->
      (* a monitor, not a worker: answer and drop the connection *)
      (try Wire.write_line w.w_in (stats_json ()) with Unix.Unix_error _ -> ());
      drop_peer w
    | Protocol.Cell { c_shard; c_result } -> handle_cell_result w c_shard c_result
    | Protocol.Shard_done { d_shard; d_spans } -> (
      match w.w_shard with
      | Some s when s.is_id = d_shard ->
        (match trace_ctx with
        | Some (c, _, _, _) ->
          (* worker child spans merge under this worker's lane *)
          let lane = Printf.sprintf "worker %d" w.w_id in
          List.iter (fun sp -> Span.add c { sp with Span.lane }) d_spans
        | None -> ());
        close_dispatch w;
        w.w_shard <- None;
        w.w_deadline <- infinity;
        stats.shards_completed <- stats.shards_completed + 1;
        let st = states.(s.is_seed_idx) in
        let leftover =
          List.filter (fun (i, _) -> not (is_done st i)) s.is_cells
        in
        if leftover <> [] then begin
          (* a healthy worker skipped cells: re-queue, no death charged *)
          stats.shards_requeued <- stats.shards_requeued + 1;
          Queue.push (new_shard s.is_seed_idx leftover) queue
        end
      | _ -> ())
  in
  let read_worker (w : wrk) =
    match Wire.read w.w_out with
    | Wire.Lines lines ->
      List.iter
        (fun line ->
          if not w.w_closed then
            match line with
            | Ok doc -> (
              match Protocol.from_worker_of_json doc with
              | Ok msg -> handle_msg w msg
              | Error e -> worker_died ("protocol error: " ^ e) w)
            | Error framing ->
              worker_died ("framing error: " ^ Ndjson.error_message framing) w)
        lines
    (* a peer that hung up before greeting was never a worker (a
       listener's liveness probe, say): no death is charged *)
    | Wire.Eof _ when w.w_pid = None && not w.w_ready -> drop_peer w
    | Wire.Eof _ -> worker_died "eof" w
    | Wire.Reset -> worker_died "read failed" w
  in
  let listeners =
    List.map
      (fun ep ->
        let fd = Wire.listen ep in
        Log.info cfg.log "listening"
          [ ("endpoint", Log.S (Wire.endpoint_name ep)) ];
        (ep, fd))
      (Wire.endpoints ~socket:cfg.listen_socket ~tcp:cfg.listen_tcp)
  in
  (* An accepted peer may be a worker or a [vliwsim top] monitor; it is
     only counted as attached once it greets with Ready. *)
  let accept fd =
    match Wire.accept fd with
    | Some conn ->
      let w = add_worker ~pid:None ~fd_in:(Wire.fd conn) conn in
      Log.info cfg.log "peer attached" [ ("worker", Log.I w.w_id) ]
    | None -> ()
  in
  (* pre-connected transports join the fleet before the loop starts *)
  List.iter
    (fun fd ->
      let w = add_worker ~pid:None ~fd_in:fd (Wire.conn fd) in
      Log.info cfg.log "peer attached"
        [ ("worker", Log.I w.w_id); ("preconnected", Log.B true) ])
    cfg.attached;
  (* --- scheduling ------------------------------------------------------- *)
  let dispatch () =
    List.iter
      (fun w ->
        if
          (not w.w_closed) && w.w_ready && w.w_shard = None
          && not (Queue.is_empty queue)
        then begin
          let s = Queue.pop queue in
          (* Allocate the shard + dispatch span ids up front: the
             worker's child spans reference the dispatch id, so it must
             cross the wire with the assign. The spans themselves are
             recorded when the dispatch closes. *)
          let a_trace, w_trace =
            match trace_ctx with
            | None -> (None, None)
            | Some (c, trace, _root, _) ->
              let shard_span = Span.fresh_id c in
              let disp_span = Span.fresh_id c in
              ( Some { Protocol.t_trace = trace; t_parent = Some disp_span },
                Some (shard_span, disp_span, Span.now c) )
          in
          let assign =
            {
              Protocol.a_shard = s.is_id;
              a_scale = scale_str;
              a_seed = states.(s.is_seed_idx).ss_seed;
              a_cells = List.map snd s.is_cells;
              a_trace;
            }
          in
          if send w (Protocol.Assign assign) then begin
            w.w_shard <- Some s;
            (match (trace_ctx, w_trace) with
            | Some (c, trace, _, _), Some (shard_span, _, t_disp) ->
              ignore
                (Span.record c ~trace ~parent:shard_span ~kind:Span.Queue_wait
                   ~name:(Printf.sprintf "shard %d" s.is_id)
                   ~lane:"coordinator" ~start_s:s.is_born
                   ~dur_s:(t_disp -. s.is_born) ())
            | _ -> ());
            w.w_trace <- w_trace;
            w.w_deadline <-
              (match cfg.shard_timeout_s with
              | Some t -> Unix.gettimeofday () +. t
              | None -> infinity);
            stats.shards_dispatched <- stats.shards_dispatched + 1
          end
          else Queue.push s queue (* send marked the worker dead *)
        end)
      (snapshot ())
  in
  let maintain () =
    let now = Unix.gettimeofday () in
    List.iter
      (fun w ->
        if (not w.w_closed) && w.w_deadline < now then
          worker_died ~timeout:true "shard timeout" w)
      (snapshot ());
    let keep_spawning = ref true in
    while
      !keep_spawning
      && Hashtbl.length workers < cfg.workers
      && not (Queue.is_empty queue)
    do
      keep_spawning := spawn_worker ()
    done
  in
  let poll listeners =
    List.iter
      (function
        | Wire.Accept fd -> accept fd
        | Wire.Readable w -> if not w.w_closed then read_worker w)
      (Wire.select ~listeners ~timeout:0.2
         (Hashtbl.fold (fun _ w acc -> (w.w_out, w) :: acc) workers []))
  in
  let unfinished () = E.Sweep.Tally.completed tally < total in
  let stuck () =
    unfinished () && Hashtbl.length workers = 0 && listeners = []
  in
  (* --- main loop -------------------------------------------------------- *)
  let cleanup () =
    List.iter (fun (ep, fd) -> Wire.close_listener ep fd) listeners;
    List.iter
      (fun w ->
        if not w.w_closed then begin
          w.w_closed <- true;
          close_transport w;
          match w.w_pid with
          | Some pid ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            reap pid
          | None -> ()
        end)
      (snapshot ());
    Hashtbl.reset workers
  in
  Fun.protect ~finally:cleanup (fun () ->
      if unfinished () then
        for _ = 1 to cfg.workers do
          ignore (spawn_worker ())
        done;
      while unfinished () do
        maintain ();
        if stuck () then
          failwith "dist: no workers available and none can be spawned";
        dispatch ();
        poll (List.map snd listeners)
      done;
      (* A traced run reads the Shard_done still owed by each worker
         that has sent its shard's last cell: it carries that shard's
         child spans. *)
      let owed () =
        trace_ctx <> None
        && List.exists
             (fun w ->
               match w.w_shard with
               | Some s -> (not w.w_closed) && s.is_cells = []
               | None -> false)
             (snapshot ())
      in
      let give_up = Unix.gettimeofday () +. 5.0 in
      while owed () && Unix.gettimeofday () < give_up do
        poll []
      done;
      (* orderly shutdown: Quit, close (EOF doubles as quit), reap *)
      List.iter
        (fun w ->
          (* a rival worker may have finished this worker's cells via a
             requeue race; its dispatch span still has to close *)
          close_dispatch w;
          if send w Protocol.Quit then begin
            w.w_closed <- true;
            Hashtbl.remove workers w.w_id;
            close_transport w;
            Option.iter reap w.w_pid
          end)
        (snapshot ()));
  (match trace_ctx with
  | Some (c, trace, root, t_start) ->
    Span.add c
      {
        Span.trace;
        id = root;
        parent = None;
        kind = Span.Submit;
        name = "dist sweep";
        lane = "coordinator";
        start_s = t_start;
        dur_s = Span.now c -. t_start;
      }
  | None -> ());
  let wall_s = E.Sweep.Tally.close tally in
  let cells = E.Sweep.Tally.cells tally in
  {
    d_scheme_names = scheme_names;
    d_mix_names = mix_names;
    d_grids =
      Array.to_list
        (Array.map
           (fun st -> (st.ss_seed, Array.sub cells st.ss_base n_cells))
           states);
    d_wall_s = wall_s;
    d_stats = stats;
  }
