(* The coordinator's I/O shell around {!Dispatch}, which makes every
   decision: which peer gets which shard, what a death or a failed cell
   costs, when the sweep is over. The shell owns what touches the
   world: the select loop, accepting, spawning and reaping workers,
   decoding their lines, the tally and journals, the log, the tracer
   and the [top] stats reply. It stamps every input with one clock (the
   tracer's, when tracing, so spans and deadlines agree) and runs until
   the core says [Done]. All determinism rests on cells being pure
   functions of (scale, master seed, mix, scheme): which worker
   computes a cell, in what order, after how many deaths, cannot change
   its bits. *)

module E = Vliw_experiments
module Ndjson = Vliw_util.Ndjson
module Wire = Vliw_util.Wire
module J = Vliw_util.Json
module Log = Vliw_util.Log
module Span = Vliw_telemetry.Span
module Report = Vliw_telemetry.Report

type stats = Dispatch.stats

(* The dist.* counters, plus the sweep.* names a ledger record reads its
   resumed-cell and timeout totals from (as for an in-process sweep). *)
let counters_list (s : stats) =
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
  @ List.filter
      (fun (_, v) -> v > 0)
      [
        (Report.n_sweep_resumed, s.cells_restored);
        (Report.n_sweep_timeouts, s.workers_timeouts);
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
  { workers = 0; worker_argv = [||]; attached = []; listen_socket = None; listen_tcp = None;
    shard_size = None; max_retries = 0; shard_timeout_s = None; checkpoint = None;
    resume = false; die_first_worker_after = None; log = Log.null; on_event = None;
    tracer = None }

type result = {
  d_scheme_names : string list;
  d_mix_names : string list;
  d_grids : (int64 * E.Sweep.cell array) list;
  d_wall_s : float;
  d_stats : stats;
}

(* A peer's transport, and the spans of its open dispatch: (shard id,
   shard span, dispatch span, shard queued at, dispatched at). *)
type transport = {
  id : int;
  pid : int option;  (* None for attached transports *)
  fd_in : Unix.file_descr;
  conn : Wire.conn;  (* reads the same fd as [fd_in] on socket transports *)
  mutable open_span : (int * int64 * int64 * float * float) option;
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
  let check what known =
    List.iter (fun n -> if not (known n) then invalid_arg ("dist: unknown " ^ what ^ " " ^ n))
  in
  check "mix" (fun m -> Vliw_workloads.Mixes.find m <> None) mix_names;
  check "scheme" (fun s -> Vliw_merge.Catalog.find s <> None) scheme_names;
  let spawn = if Array.length cfg.worker_argv = 0 then 0 else max 0 cfg.workers in
  let listening = cfg.listen_socket <> None || cfg.listen_tcp <> None in
  if spawn = 0 && cfg.attached = [] && not listening then
    failwith "dist: no worker transport configured";
  Wire.ignore_sigpipe ();
  let clock =
    match cfg.tracer with Some c -> fun () -> Span.now c | None -> Unix.gettimeofday
  in
  let t0 = clock () in
  (* One trace per run: a root span the per-shard trees hang under,
     recorded at the end once its duration is known. *)
  let trace_ctx = Option.map (fun c -> (c, Span.fresh_id c, Span.fresh_id c)) cfg.tracer in
  (* A span whose id crossed the wire or has children, closed now. *)
  let span c trace ~id ?parent kind name start_s =
    let lane = "coordinator" and dur_s = Span.now c -. start_s in
    Span.add c { Span.trace; id; parent; kind; name; lane; start_s; dur_s }
  in
  let n_cells = List.length mix_names * List.length scheme_names in
  let multi = List.length seeds > 1 in
  let journals =
    Array.of_list
      (List.map
         (fun sd ->
           Option.map
             (fun path ->
               (* Replicated runs keep one journal per seed: a journal
                  header pins exactly one (scale, seed, grid). *)
               E.Sweep.open_journal
                 ~log:(fun msg -> Log.warn cfg.log msg [])
                 ~resume:cfg.resume ~scale ~seed:sd ~scheme_names ~mix_names
                 (if multi then Printf.sprintf "%s.s%Lx" path sd else path))
             cfg.checkpoint)
         seeds)
  in
  let peers : (int, transport) Hashtbl.t = Hashtbl.create 8 in
  let fleet = max 1 (cfg.workers + List.length cfg.attached) in
  let tally =
    E.Sweep.Tally.create ?on_event:cfg.on_event
      ~workers:(fun () -> Hashtbl.length peers)
      ~scale ~seed:(List.hd seeds) ~jobs:fleet
      (n_cells * List.length seeds)
  in
  let core =
    Dispatch.create
      ~restored:(fun idx (c : Plan.cell_spec) ->
        Option.bind journals.(idx) (E.Sweep.restored ~mix:c.mix ~scheme:c.scheme))
      { Dispatch.scale = E.Common.scale_name scale; seeds; mix_names; scheme_names;
        shard_size = cfg.shard_size; fleet; spawn; listening; max_retries = cfg.max_retries;
        shard_timeout_s = cfg.shard_timeout_s }
      ~now:t0
  in
  (* --- transports ------------------------------------------------------- *)
  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let close_dispatch tp =
    match (trace_ctx, tp.open_span) with
    | Some (c, trace, root), Some (shard, shard_span, disp_span, born, t_disp) ->
      tp.open_span <- None;
      let name = Printf.sprintf "shard %d" shard in
      span c trace ~id:disp_span ~parent:shard_span Span.Dispatch
        (Printf.sprintf "%s worker %d" name tp.id) t_disp;
      span c trace ~id:shard_span ~parent:root Span.Shard name born
    | _ -> ()
  in
  (* The one way a transport closes: a worker told to quit, a monitor or
     a peer that hung up, a dead worker, or what is left at exit. *)
  let close_peer ?(quit = false) ?(kill = false) p =
    match Hashtbl.find_opt peers p with
    | None -> ()
    | Some tp ->
      Hashtbl.remove peers p;
      close_dispatch tp;
      if quit then (
        try Wire.write_line tp.fd_in (Protocol.to_worker_to_json Protocol.Quit)
        with Unix.Unix_error _ -> ());
      close_fd tp.fd_in;
      if Wire.fd tp.conn <> tp.fd_in then close_fd (Wire.fd tp.conn);
      Option.iter
        (fun pid ->
          if kill then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        tp.pid
  in
  let next_peer = ref 0 in
  let add_peer ?pid fd_in conn =
    let id = !next_peer in
    incr next_peer;
    Hashtbl.replace peers id { id; pid; fd_in; conn; open_span = None };
    id
  in
  (* The live-stats reply for [vliwsim top]: same ["reply":"stats"]
     shape as the service daemon's, tagged ["kind":"dist"]. *)
  let stats_json () =
    let stats = Dispatch.stats core in
    let num n = J.Num (float_of_int n) in
    let worker_row (p, ready, cells) =
      J.Obj [ ("worker", num p); ("ready", J.Bool ready); ("cells", num cells) ]
    in
    let gauges c = List.map (fun (k, v) -> (k, J.Num v)) (Span.latency_gauges (Span.spans c)) in
    let latency =
      Option.fold ~none:[] ~some:(fun c -> [ ("latency", J.Obj (gauges c)) ]) cfg.tracer
    in
    J.Obj
      ([
         ("reply", J.Str "stats");
         ("kind", J.Str "dist");
         ("completed", num (E.Sweep.Tally.completed tally));
         ("total", num (n_cells * List.length seeds));
         ("queue_depth", num (Dispatch.queue_depth core));
         ("wall_s", J.Num (clock () -. t0));
         ("workers", J.List (List.map worker_row (Dispatch.workers core)));
         ("counters", J.Obj (List.map (fun (k, v) -> (k, num v)) (counters_list stats)));
       ]
      @ latency)
  in
  (* --- carrying out the core's actions ---------------------------------- *)
  let over = ref false in
  let chaos = ref cfg.die_first_worker_after in
  let rec feed input = List.iter perform (Dispatch.step core ~now:(clock ()) input)
  and perform = function
    | Dispatch.Assign { peer; assign; queued_at } -> send_assign peer assign queued_at
    | Reply_stats p ->
      Option.iter
        (fun tp ->
          try Wire.write_line tp.fd_in (stats_json ()) with Unix.Unix_error _ -> ())
        (Hashtbl.find_opt peers p)
    | Close (p, Quit) -> close_peer ~quit:true p
    | Close (p, Drop) -> close_peer p
    | Close (p, Kill reason) ->
      Log.warn cfg.log "worker died" [ ("worker", Log.I p); ("reason", Log.S reason) ];
      close_peer ~kill:true p
    | Spawn -> spawn_worker ()
    | Finish (k, cell) ->
      E.Sweep.Tally.finish ?journal:journals.(k / n_cells) tally k cell
    | Event ev ->
      (match (ev, trace_ctx) with
      | E.Sweep.Cell_retried { mix; scheme; _ }, Some (c, trace, root) ->
        ignore
          (Span.record c ~trace ~parent:root ~kind:Span.Retry
             ~name:(mix ^ "/" ^ scheme) ~lane:"coordinator" ~start_s:(Span.now c)
             ~dur_s:0.0 ())
      | _ -> ());
      Option.iter (fun f -> f ev) cfg.on_event
    | Done -> over := true
    | Stuck -> failwith "dist: no workers available and none can be spawned"
  (* The shard and dispatch span ids cross the wire with the assign (the
     worker's child spans hang under the dispatch); the spans themselves
     are recorded when the dispatch closes. *)
  and send_assign p (a : Protocol.assign) born =
    Option.iter
      (fun tp ->
        let now = clock () in
        let ids =
          Option.map (fun (c, tr, _) -> (c, tr, Span.fresh_id c, Span.fresh_id c)) trace_ctx
        in
        let a_trace =
          Option.map (fun (_, t_trace, _, d) -> { Protocol.t_trace; t_parent = Some d }) ids
        in
        match Wire.write_line tp.fd_in (Protocol.to_worker_to_json (Assign { a with a_trace })) with
        | exception Unix.Unix_error _ -> feed (Dispatch.Lost (p, Failed "write failed"))
        | () ->
          Option.iter
            (fun (c, trace, shard_span, disp) ->
              tp.open_span <- Some (a.a_shard, shard_span, disp, born, now);
              ignore
                (Span.record c ~trace ~parent:shard_span ~kind:Span.Queue_wait
                   ~name:(Printf.sprintf "shard %d" a.a_shard)
                   ~lane:"coordinator" ~start_s:born ~dur_s:(now -. born) ()))
            ids)
      (Hashtbl.find_opt peers p)
  and spawn_worker () =
    let argv =
      match !chaos with
      | Some n -> Array.append cfg.worker_argv [| "--die-after-cells"; string_of_int n |]
      | None -> cfg.worker_argv
    in
    let stdin_r, stdin_w = Unix.pipe () in
    let stdout_r, stdout_w = Unix.pipe () in
    match Unix.create_process argv.(0) argv stdin_r stdout_w Unix.stderr with
    | pid ->
      Unix.close stdin_r;
      Unix.close stdout_w;
      (* parent-side ends must not leak into later-spawned siblings, or
         one worker's EOF waits on another's exit *)
      Unix.set_close_on_exec stdin_w;
      Unix.set_close_on_exec stdout_r;
      chaos := None;
      let p = add_peer ~pid stdin_w (Wire.conn stdout_r) in
      Log.info cfg.log "worker spawned" [ ("worker", Log.I p); ("pid", Log.I pid) ];
      feed (Dispatch.Joined { peer = p; spawned = true })
    | exception e ->
      List.iter close_fd [ stdin_r; stdin_w; stdout_r; stdout_w ];
      Log.warn cfg.log "worker spawn failed" [ ("err", Log.S (Printexc.to_string e)) ]
  in
  (* An attached peer may be a worker or a [vliwsim top] monitor; the
     core counts it as attached once it greets with Ready. *)
  let attach ?(preconnected = false) conn =
    let p = add_peer (Wire.fd conn) conn in
    Log.info cfg.log "peer attached"
      [ ("worker", Log.I p); ("preconnected", Log.B preconnected) ];
    feed (Dispatch.Joined { peer = p; spawned = false })
  in
  let on_message tp msg =
    (match (msg, tp.open_span, trace_ctx) with
    | Protocol.Shard_done { d_shard; d_spans }, Some (shard, _, _, _, _), Some (c, _, _)
      when shard = d_shard ->
      (* worker child spans merge under this worker's lane *)
      let lane = Printf.sprintf "worker %d" tp.id in
      List.iter (fun sp -> Span.add c { sp with Span.lane }) d_spans;
      close_dispatch tp
    | _ -> ());
    feed (Dispatch.Message (tp.id, msg))
  in
  let read tp =
    let lost why = feed (Dispatch.Lost (tp.id, why)) in
    match Wire.read tp.conn with
    | Wire.Lines lines ->
      List.iter
        (fun line ->
          if Hashtbl.mem peers tp.id then
            match line with
            | Error framing ->
              lost (Failed ("framing error: " ^ Ndjson.error_message framing))
            | Ok doc -> (
              match Protocol.from_worker_of_json doc with
              | Ok msg -> on_message tp msg
              | Error e -> lost (Failed ("protocol error: " ^ e))))
        lines
    | Wire.Eof _ -> lost Hangup
    | Wire.Reset -> lost (Failed "read failed")
  in
  let listeners =
    List.map
      (fun ep ->
        let fd = Wire.listen ep in
        Log.info cfg.log "listening" [ ("endpoint", Log.S (Wire.endpoint_name ep)) ];
        (ep, fd))
      (Wire.endpoints ~socket:cfg.listen_socket ~tcp:cfg.listen_tcp)
  in
  let cleanup () =
    List.iter (fun (ep, fd) -> Wire.close_listener ep fd) listeners;
    List.iter
      (fun p -> close_peer ~kill:true p)
      (Hashtbl.fold (fun p _ acc -> p :: acc) peers [])
  in
  Fun.protect ~finally:cleanup (fun () ->
      List.iter (fun fd -> attach ~preconnected:true (Wire.conn fd)) cfg.attached;
      while not !over do
        feed Dispatch.Tick;
        if not !over then
          List.iter
            (function
              | Wire.Accept fd -> Option.iter attach (Wire.accept fd)
              | Wire.Readable tp -> if Hashtbl.mem peers tp.id then read tp)
            (Wire.select ~listeners:(List.map snd listeners) ~timeout:0.2
               (Hashtbl.fold (fun _ tp acc -> (tp.conn, tp) :: acc) peers []))
      done);
  Option.iter (fun (c, trace, root) -> span c trace ~id:root Span.Submit "dist sweep" t0) trace_ctx;
  let wall_s = E.Sweep.Tally.close tally in
  let cells = E.Sweep.Tally.cells tally in
  {
    d_scheme_names = scheme_names;
    d_mix_names = mix_names;
    d_grids = List.mapi (fun i sd -> (sd, Array.sub cells (i * n_cells) n_cells)) seeds;
    d_wall_s = wall_s;
    d_stats = Dispatch.stats core;
  }
