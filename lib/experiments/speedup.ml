type row = {
  scheme : string;
  weighted_speedup : float;
  fairness : float;
  ipc : float;
}

(* Per-thread IPC of an [n]-thread cell: each thread's retired ops over
   the run's cycles ([nan] for a cell without metrics). *)
let thread_ipcs ~n (_, metrics) =
  match metrics with
  | None -> List.init n (fun _ -> Float.nan)
  | Some (m : Vliw_sim.Metrics.t) ->
    Array.to_list m.per_thread
    |> List.map (fun (pt : Vliw_sim.Metrics.per_thread) ->
           float_of_int pt.ops /. float_of_int (max 1 m.cycles))

let run ?(scale = Common.Default) ?(seed = Common.default_seed) ?jobs
    ?max_retries ?on_event ?(memo = Sweep.memo ()) ?(mix = "LLHH")
    ?(schemes = [ "1S"; "3CCC"; "2SC3"; "3SSS" ]) () =
  let mixed =
    Sweep.row ~memo ~schedule:(Common.schedule_of_scale scale) ~compile_seed:seed
      ~seed mix (Vliw_workloads.Mixes.find_exn mix).members
  in
  let sweep ?scheme_names ?columns rows =
    let _, _, cells =
      Sweep.run_metrics ~scale ~seed ~rows ?scheme_names ?columns ?jobs
        ?max_retries ?on_event ~memo ()
    in
    Array.to_list cells
  in
  (* Solo baseline: each thread alone on the machine, same programs. *)
  let solo_ipc =
    sweep ~scheme_names:[ "ST" ]
      (List.mapi
         (fun i p ->
           { mixed with name = Printf.sprintf "%s/%d" mix i; programs = [ p ] })
         mixed.programs)
    |> List.concat_map (thread_ipcs ~n:1)
  in
  List.map2
    (fun scheme cell ->
      let ratios =
        List.map2
          (fun mt solo -> mt /. solo)
          (thread_ipcs ~n:(List.length mixed.programs) cell)
          solo_ipc
      in
      let weighted_speedup = List.fold_left ( +. ) 0.0 ratios in
      let fairness =
        let mn = List.fold_left min infinity ratios in
        let mx = List.fold_left max 0.0 ratios in
        if mx <= 0.0 then 0.0 else mn /. mx
      in
      { scheme; weighted_speedup; fairness; ipc = Sweep.metric Vliw_sim.Metrics.ipc cell })
    schemes
    (sweep [ mixed ]
       ~columns:
         (List.map
            (fun name -> Sweep.column name (Vliw_merge.Scheme_name.parse_exn name))
            schemes))

let render mix rows =
  let table =
    Vliw_util.Text_table.create
      ~header:[ "Scheme"; "IPC"; "Weighted speedup"; "Fairness" ]
  in
  List.iter
    (fun r ->
      Vliw_util.Text_table.add_row table
        [
          r.scheme;
          Printf.sprintf "%.2f" r.ipc;
          Printf.sprintf "%.2f" r.weighted_speedup;
          Printf.sprintf "%.2f" r.fairness;
        ])
    rows;
  Printf.sprintf
    "Weighted speedup and fairness on %s (vs each thread running alone)\n%s"
    mix
    (Vliw_util.Text_table.render table)
