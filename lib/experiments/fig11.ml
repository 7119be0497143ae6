type point = { name : string; ipc : float; transistors : float }

let of_fig10 (d : Fig10.data) =
  List.map
    (fun name ->
      {
        name;
        ipc = Fig10.scheme_average d name;
        transistors =
          Vliw_cost.Scheme_cost.transistors
            (Vliw_merge.Catalog.find_exn name).scheme;
      })
    d.grid.scheme_names

let render points =
  let scatter =
    Vliw_util.Ascii_chart.scatter ~x_label:"IPC" ~y_label:"transistors"
      (List.map (fun p -> (p.name, p.ipc, p.transistors)) points)
  in
  "Figure 11: performance vs transistors incurred\n" ^ scatter

let csv_rows points =
  ( [ "scheme"; "ipc"; "transistors" ],
    List.map
      (fun p -> [ p.name; Printf.sprintf "%.4f" p.ipc; Printf.sprintf "%.0f" p.transistors ])
      points )
