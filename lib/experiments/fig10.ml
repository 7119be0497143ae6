type data = {
  grid : Common.grid;
  groups : (string * string list) list;
  cells : Sweep.cell array;
}

let legend_groups =
  List.filter (fun (g, _) -> g <> "ST") Vliw_merge.Catalog.perf_groups

let scheme_names =
  List.filter_map
    (fun (e : Vliw_merge.Catalog.entry) ->
      if e.name = "ST" then None else Some e.name)
    Vliw_merge.Catalog.all

(* Fold externally computed cells (a distributed sweep's merged grid)
   into the same artifact [run] builds — the seam `exp --workers N`
   plugs a coordinator into. *)
let of_cells ~scheme_names ~mix_names cells =
  let grid = Sweep.grid_of_cells ~scheme_names ~mix_names cells in
  { grid; groups = legend_groups; cells }

let run ?scale ?seed ?jobs ?telemetry ?max_retries ?cell_timeout_s
    ?checkpoint ?resume ?log ?on_event ?memo () =
  let scheme_names', mix_names, cells =
    Sweep.run_cells ?scale ?seed ~scheme_names ?jobs ?telemetry
      ?max_retries ?cell_timeout_s ?checkpoint ?resume ?log ?on_event ?memo ()
  in
  let grid = Sweep.grid_of_cells ~scheme_names:scheme_names' ~mix_names cells in
  { grid; groups = legend_groups; cells }

let members d group =
  match List.assoc_opt group d.groups with
  | Some m -> m
  | None -> invalid_arg ("fig10: unknown group " ^ group)

let group_ipc d group =
  let cols = List.map (Common.grid_column d.grid) (members d group) in
  let n_mixes = List.length d.grid.mix_names in
  Array.init n_mixes (fun i ->
      Vliw_util.Stats.mean (Array.of_list (List.map (fun c -> c.(i)) cols)))

let group_average d group = Vliw_util.Stats.mean (group_ipc d group)

let group_spread d group =
  let cols = List.map (Common.grid_column d.grid) (members d group) in
  let n_mixes = List.length d.grid.mix_names in
  let spread_at i =
    let vals = List.map (fun c -> c.(i)) cols in
    let lo = List.fold_left min infinity vals in
    let hi = List.fold_left max neg_infinity vals in
    if lo <= 0.0 then 0.0 else (hi -. lo) /. lo
  in
  let worst = ref 0.0 in
  for i = 0 to n_mixes - 1 do
    worst := max !worst (spread_at i)
  done;
  !worst

let scheme_average d name = Common.grid_average d.grid name

let render d =
  let table =
    Vliw_util.Text_table.create ~header:("Mix" :: List.map fst d.groups)
  in
  let group_cols = List.map (fun (g, _) -> (g, group_ipc d g)) d.groups in
  List.iteri
    (fun i mix ->
      Vliw_util.Text_table.add_row table
        (mix
        :: List.map (fun (_, col) -> Printf.sprintf "%.2f" col.(i)) group_cols))
    d.grid.mix_names;
  Vliw_util.Text_table.add_sep table;
  Vliw_util.Text_table.add_row table
    ("Average"
    :: List.map
         (fun (g, _) -> Printf.sprintf "%.2f" (group_average d g))
         group_cols);
  let chart =
    Vliw_util.Ascii_chart.grouped_bar_chart ~group_labels:d.grid.mix_names
      ~series:(List.map (fun (g, _) -> (g, group_ipc d g)) d.groups)
      ()
  in
  "Figure 10: merging schemes performance (IPC per mix; groups averaged)\n"
  ^ Vliw_util.Text_table.render table
  ^ "\n" ^ chart
