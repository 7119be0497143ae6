type point = { name : string; ipc : float; delay : float }

let of_fig10 (d : Fig10.data) =
  List.map
    (fun name ->
      {
        name;
        ipc = Fig10.scheme_average d name;
        delay =
          Vliw_cost.Scheme_cost.delay (Vliw_merge.Catalog.find_exn name).scheme;
      })
    d.grid.scheme_names

let render points =
  let scatter =
    Vliw_util.Ascii_chart.scatter ~x_label:"IPC" ~y_label:"gate delays"
      (List.map (fun p -> (p.name, p.ipc, p.delay)) points)
  in
  "Figure 12: performance vs gate delays\n" ^ scatter

let csv_rows points =
  ( [ "scheme"; "ipc"; "delay" ],
    List.map
      (fun p -> [ p.name; Printf.sprintf "%.4f" p.ipc; Printf.sprintf "%.2f" p.delay ])
      points )
