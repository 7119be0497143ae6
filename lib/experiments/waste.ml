type row = {
  scheme : string;
  ipc : float;
  vertical : float;
  horizontal : float;
  merge_degree : float;
}

let run ?(scale = Common.Default) ?(seed = Common.default_seed) ?jobs
    ?max_retries ?on_event ?(memo = Sweep.memo ()) ?(mix = "LLHH")
    ?(schemes = [ "ST"; "1S"; "3CCC"; "2SC3"; "3SSS" ])
    () =
  let row =
    Sweep.row ~memo ~schedule:(Common.schedule_of_scale scale) ~compile_seed:seed
      ~seed mix (Vliw_workloads.Mixes.find_exn mix).members
  in
  let _, _, cells =
    Sweep.run_metrics ~scale ~seed ~rows:[ row ]
      ~columns:
        (List.map
           (fun name -> Sweep.column name (Vliw_merge.Scheme_name.parse_exn name))
           schemes)
      ?jobs ?max_retries ?on_event ~memo ()
  in
  List.mapi
    (fun j scheme ->
      let get f = Sweep.metric f cells.(j) in
      {
        scheme;
        ipc = get Vliw_sim.Metrics.ipc;
        vertical = get Vliw_sim.Metrics.vertical_waste;
        horizontal = get Vliw_sim.Metrics.horizontal_waste;
        merge_degree = get Vliw_sim.Metrics.avg_threads_merged;
      })
    schemes

let render mix rows =
  let table =
    Vliw_util.Text_table.create
      ~header:[ "Scheme"; "IPC"; "Vertical waste"; "Horizontal waste"; "Merge degree" ]
  in
  List.iter
    (fun r ->
      Vliw_util.Text_table.add_row table
        [
          r.scheme;
          Printf.sprintf "%.2f" r.ipc;
          Printf.sprintf "%.1f%%" (100.0 *. r.vertical);
          Printf.sprintf "%.1f%%" (100.0 *. r.horizontal);
          Printf.sprintf "%.2f" r.merge_degree;
        ])
    rows;
  Printf.sprintf "Issue-waste decomposition on %s\n%s" mix
    (Vliw_util.Text_table.render table)
