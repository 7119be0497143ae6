module E = Vliw_experiments
module Ndjson = Vliw_util.Ndjson
module Wire = Vliw_util.Wire
module Log = Vliw_util.Log
module Span = Vliw_telemetry.Span

exception Killed

(* The coordinator may close the transport the instant the last cell
   result lands — before reading a trailing Shard_done. A write into a
   closed transport is an orderly end of service, not a fault. *)
exception Hangup

(* Span ids must be deterministic per (seed, shard) so a traced rerun
   produces the same tree; only the timestamps come from [clock]. *)
let tracer_seed ~seed ~shard =
  Int64.logxor seed (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (shard + 1)))

let serve ?die_after_cells ?(log = Log.null) ?(clock = Unix.gettimeofday)
    ~input ~output () =
  (* Prepared rows are the expensive step (program generation +
     compile), so they are memoized like the service daemon's.
     Per-invocation, so in-process test workers running as sibling
     domains never share mutable state. *)
  let rows = E.Sweep.row_memo () in
  (* Trace context of the assign being served: collector, trace id, and
     the coordinator's dispatch span its children hang under. *)
  let tracer : (Span.collector * int64 * int64 option) option ref = ref None in
  let lane = Printf.sprintf "pid %d" (Unix.getpid ()) in
  let traced kind name f =
    match !tracer with
    | None -> f ()
    | Some (c, trace, parent) ->
      let t0 = clock () in
      let finish () =
        ignore
          (Span.record c ~trace ?parent ~kind ~name ~lane ~start_s:t0
             ~dur_s:(clock () -. t0) ())
      in
      let v =
        try f ()
        with e ->
          finish ();
          raise e
      in
      finish ();
      v
  in
  let simulate ~scale ~seed (c : Plan.cell_spec) =
    (* a miss records its compile as a prepare_row span *)
    let pr =
      E.Sweep.memo_row rows ~compile:(traced Span.Prepare_row c.mix) ~scale ~seed
        c.mix
    in
    let column = E.Sweep.static_column (Vliw_merge.Catalog.find_exn c.scheme) in
    E.Sweep.simulate_prepared pr column
  in
  let completed = ref 0 in
  let emit msg =
    try Wire.write_line output (Protocol.from_worker_to_json msg)
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      raise Hangup
  in
  let run_cell ~shard ~scale ~seed (c : Plan.cell_spec) =
    let t0 = Unix.gettimeofday () in
    let result =
      match scale with
      | None ->
        {
          Protocol.r_mix = c.mix;
          r_scheme = c.scheme;
          r_ipc = Float.nan;
          r_elapsed_s = 0.0;
          r_error = Some "unknown scale in shard assignment";
        }
      | Some scale -> (
        match
          traced Span.Simulate_cell
            (c.mix ^ "/" ^ c.scheme)
            (fun () -> simulate ~scale ~seed c)
        with
        | ipc ->
          {
            Protocol.r_mix = c.mix;
            r_scheme = c.scheme;
            r_ipc = ipc;
            r_elapsed_s = Unix.gettimeofday () -. t0;
            r_error = None;
          }
        | exception e ->
          {
            Protocol.r_mix = c.mix;
            r_scheme = c.scheme;
            r_ipc = Float.nan;
            r_elapsed_s = Unix.gettimeofday () -. t0;
            r_error = Some (Printexc.to_string e);
          })
    in
    emit (Protocol.Cell { c_shard = shard; c_result = result });
    incr completed;
    match die_after_cells with
    | Some n when !completed >= n ->
      Log.warn log "fault injection: dying" [ ("cells", Log.I !completed) ];
      raise Killed
    | _ -> ()
  in
  let handle = function
    | Protocol.Quit -> false
    | Protocol.Assign a ->
      let scale = E.Common.scale_of_name a.a_scale in
      tracer :=
        (match a.a_trace with
        | None -> None
        | Some { t_trace; t_parent } ->
          let seed = tracer_seed ~seed:a.a_seed ~shard:a.a_shard in
          Some (Span.collector ~clock ~seed (), t_trace, t_parent));
      List.iter (run_cell ~shard:a.a_shard ~scale ~seed:a.a_seed) a.a_cells;
      let d_spans =
        match !tracer with None -> [] | Some (c, _, _) -> Span.spans c
      in
      tracer := None;
      emit (Protocol.Shard_done { d_shard = a.a_shard; d_spans });
      true
  in
  Wire.ignore_sigpipe ();
  try
    emit (Protocol.Ready { pid = Unix.getpid () });
    let conn = Wire.conn input in
    let running = ref true in
    while !running do
      match Wire.read conn with
      | Wire.Eof _ | Wire.Reset -> running := false (* coordinator gone *)
      | Wire.Lines lines ->
        List.iter
          (fun line ->
            match line with
            | Ok doc -> (
              match Protocol.to_worker_of_json doc with
              | Ok msg -> if not (handle msg) then running := false
              | Error e ->
                Log.error log "protocol error" [ ("err", Log.S e) ];
                running := false)
            | Error framing ->
              Log.error log "framing error"
                [ ("err", Log.S (Ndjson.error_message framing)) ];
              running := false)
          lines
    done
  with Hangup -> Log.info log "coordinator closed the transport: orderly exit" []
