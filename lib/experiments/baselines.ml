type row = { label : string; avg_ipc : float; avg_vertical_waste : float }

let columns () =
  let scheme name = (Vliw_merge.Catalog.find_exn name).scheme in
  let issue policy c = { c with Vliw_sim.Config.policy } in
  [
    Sweep.column "single-thread" (scheme "ST");
    Sweep.column ~config:(issue Vliw_sim.Policy.Imt)
      "IMT (4 ctx)" (scheme "3SSS");
    Sweep.column ~config:(issue Vliw_sim.Policy.default_bmt)
      "BMT (4 ctx)" (scheme "3SSS");
    Sweep.column "CSMT 3CCC" (scheme "3CCC");
    Sweep.column "mixed 2SC3" (scheme "2SC3");
    Sweep.column "SMT 3SSS" (scheme "3SSS");
  ]

let run ?(scale = Common.Default) ?(seed = Common.default_seed) ?jobs
    ?max_retries ?on_event ?(memo = Sweep.memo ())
    ?(mixes = Vliw_workloads.Mixes.names) () =
  let schedule = Common.schedule_of_scale scale in
  let rows =
    List.map
      (fun mix ->
        Sweep.row ~memo ~schedule ~compile_seed:seed ~seed mix
          (Vliw_workloads.Mixes.find_exn mix).members)
      mixes
  in
  let columns = columns () in
  let _, _, cells =
    Sweep.run_metrics ~scale ~seed ~rows ~columns ?jobs ?max_retries ?on_event
      ~memo ()
  in
  let n = List.length columns in
  List.mapi
    (fun j (column : Sweep.column) ->
      let avg f =
        Vliw_util.Stats.mean
          (Array.init (List.length rows) (fun i ->
               Sweep.metric f cells.((i * n) + j)))
      in
      {
        label = column.col_name;
        avg_ipc = avg Vliw_sim.Metrics.ipc;
        avg_vertical_waste = avg Vliw_sim.Metrics.vertical_waste;
      })
    columns

let render rows =
  let table =
    Vliw_util.Text_table.create
      ~header:[ "Technique"; "Avg IPC"; "Vertical waste" ]
  in
  List.iter
    (fun r ->
      Vliw_util.Text_table.add_row table
        [
          r.label;
          Printf.sprintf "%.2f" r.avg_ipc;
          Printf.sprintf "%.1f%%" (100.0 *. r.avg_vertical_waste);
        ])
    rows;
  "Baselines: multithreading techniques on the Table 2 mixes\n"
  ^ Vliw_util.Text_table.render table
