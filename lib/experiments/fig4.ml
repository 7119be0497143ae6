type data = { single : float; two_thread : float; four_thread : float }

let run ?scale ?seed ?jobs ?max_retries ?on_event ?memo () =
  let grid =
    Sweep.run ?scale ?seed ~scheme_names:[ "ST"; "1S"; "3SSS" ] ?jobs
      ?max_retries ?on_event ?memo ()
  in
  {
    single = Common.grid_average grid "ST";
    two_thread = Common.grid_average grid "1S";
    four_thread = Common.grid_average grid "3SSS";
  }

let four_over_two_pct d = Vliw_util.Stats.pct_diff d.four_thread d.two_thread

let render d =
  let chart =
    Vliw_util.Ascii_chart.bar_chart
      [
        ("Single-thread", d.single);
        ("2-Thread SMT", d.two_thread);
        ("4-Thread SMT", d.four_thread);
      ]
  in
  Printf.sprintf
    "Figure 4: SMT performance (average IPC over the 9 mixes)\n%s\n\
     4-thread vs 2-thread SMT: %+.0f%% (paper: +61%%)\n"
    chart (four_over_two_pct d)
