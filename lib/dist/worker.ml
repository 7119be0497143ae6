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
  let record kind name start_s =
    match !tracer with
    | None -> ()
    | Some (c, trace, parent) ->
      ignore
        (Span.record c ~trace ?parent ~kind ~name ~lane ~start_s
           ~dur_s:(clock () -. start_s) ())
  in
  let completed = ref 0 in
  let emit msg =
    try Wire.write_line output (Protocol.from_worker_to_json msg)
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      raise Hangup
  in
  let result ~shard ?(elapsed_s = 0.0) ?error ~mix ~scheme ipc =
    emit
      (Protocol.Cell
         {
           c_shard = shard;
           c_result =
             {
               r_mix = mix;
               r_scheme = scheme;
               r_ipc = ipc;
               r_elapsed_s = elapsed_s;
               r_error = error;
             };
         });
    incr completed;
    match die_after_cells with
    | Some n when !completed >= n ->
      Log.warn log "fault injection: dying" [ ("cells", Log.I !completed) ];
      raise Killed
    | _ -> ()
  in
  let fail ~shard ~mix ~scheme error =
    result ~shard ~error ~mix ~scheme Float.nan
  in
  (* One row of a shard: its cells run as sharing classes, one
     [simulate_cell] span each. The row's first span also covers a memo
     miss's compile, so the [prepare_row] span nests inside it. An
     unknown scheme errors its own cell; a row that does not compile
     errors the row's. *)
  let run_row ~shard ~scale ~seed mix schemes =
    let t0 = clock () in
    let known, unknown =
      List.partition_map
        (fun scheme ->
          match Vliw_merge.Catalog.find_exn scheme with
          | entry -> Left (E.Sweep.static_column entry)
          | exception e -> Right (scheme, Printexc.to_string e))
        schemes
    in
    List.iter (fun (scheme, e) -> fail ~shard ~mix ~scheme e) unknown;
    let cols = Array.of_list known in
    match
      E.Sweep.memo_row rows ~scale ~seed mix ~compile:(fun compile ->
          let t = clock () in
          Fun.protect ~finally:(fun () -> record Span.Prepare_row mix t) compile)
    with
    | exception e ->
      Array.iter
        (fun (c : E.Sweep.column) ->
          fail ~shard ~mix ~scheme:c.col_name (Printexc.to_string e))
        cols
    | row ->
      List.iteri
        (fun k members ->
          let start_s = if k = 0 then t0 else clock () in
          let cells = E.Sweep.run_class ~worker:0 row cols members in
          record Span.Simulate_cell
            (mix ^ "/" ^ cols.(List.hd members).col_name)
            start_s;
          List.iter
            (fun ((c : E.Sweep.cell), _) ->
              result ~shard ~elapsed_s:c.elapsed_s ?error:c.error ~mix
                ~scheme:c.scheme c.ipc)
            cells)
        (E.Sweep.classes row cols)
  in
  (* A shard's cells grouped by row, rows in order of first appearance. *)
  let rows_of (cells : Plan.cell_spec list) =
    List.fold_left
      (fun mixes (c : Plan.cell_spec) ->
        if List.mem c.mix mixes then mixes else c.mix :: mixes)
      [] cells
    |> List.rev_map (fun mix ->
           ( mix,
             List.filter_map
               (fun (c : Plan.cell_spec) ->
                 if c.mix = mix then Some c.scheme else None)
               cells ))
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
      (match scale with
      | None ->
        List.iter
          (fun (c : Plan.cell_spec) ->
            fail ~shard:a.a_shard ~mix:c.mix ~scheme:c.scheme
              "unknown scale in shard assignment")
          a.a_cells
      | Some scale ->
        List.iter
          (fun (mix, schemes) ->
            run_row ~shard:a.a_shard ~scale ~seed:a.a_seed mix schemes)
          (rows_of a.a_cells));
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
