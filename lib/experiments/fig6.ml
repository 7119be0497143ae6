type data = { per_mix : (string * float) list; average : float }

let of_grid (grid : Common.grid) =
  let smt = Common.grid_column grid "3SSS" in
  let csmt = Common.grid_column grid "3CCC" in
  let per_mix =
    List.mapi
      (fun i mix -> (mix, Vliw_util.Stats.pct_diff smt.(i) csmt.(i)))
      grid.mix_names
  in
  let average =
    Vliw_util.Stats.pct_diff (Vliw_util.Stats.mean smt) (Vliw_util.Stats.mean csmt)
  in
  { per_mix; average }

let run ?scale ?seed ?jobs () =
  of_grid
    (Sweep.run ?scale ?seed ~scheme_names:[ "3SSS"; "3CCC" ] ?jobs ())

let render d =
  let chart =
    Vliw_util.Ascii_chart.bar_chart ~unit_label:"%"
      (d.per_mix @ [ ("Average", d.average) ])
  in
  Printf.sprintf
    "Figure 6: SMT performance advantage over CSMT (4 threads)\n%s\n\
     (paper: 27%% average, up to 58%% on LLHH)\n"
    chart
