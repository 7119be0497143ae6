type t = {
  smt4_over_smt2_pct : float;
  smt_over_csmt_pct : float;
  scheme_2sc3_over_csmt4_pct : float;
  scheme_2sc3_over_smt2_pct : float;
  scheme_2sc3_below_smt4_pct : float;
}

let of_fig10 (d : Fig10.data) =
  let avg name = Fig10.scheme_average d name in
  let pct = Vliw_util.Stats.pct_diff in
  let smt4 = avg "3SSS" and smt2 = avg "1S" and csmt4 = avg "3CCC" in
  let sc3 = avg "2SC3" in
  {
    smt4_over_smt2_pct = pct smt4 smt2;
    smt_over_csmt_pct = pct smt4 csmt4;
    scheme_2sc3_over_csmt4_pct = pct sc3 csmt4;
    scheme_2sc3_over_smt2_pct = pct sc3 smt2;
    scheme_2sc3_below_smt4_pct = pct sc3 smt4;
  }

let render c =
  String.concat "\n"
    [
      "Headline claims (simulated vs paper):";
      Printf.sprintf "  4T SMT vs 2T SMT:      %+6.1f%%  (paper +61%%)"
        c.smt4_over_smt2_pct;
      Printf.sprintf "  4T SMT vs 4T CSMT:     %+6.1f%%  (paper +27%%)"
        c.smt_over_csmt_pct;
      Printf.sprintf "  2SC3  vs 4T CSMT:      %+6.1f%%  (paper +14%%)"
        c.scheme_2sc3_over_csmt4_pct;
      Printf.sprintf "  2SC3  vs 2T SMT:       %+6.1f%%  (paper +45%%)"
        c.scheme_2sc3_over_smt2_pct;
      Printf.sprintf "  2SC3  vs 4T SMT:       %+6.1f%%  (paper -11%%)"
        c.scheme_2sc3_below_smt4_pct;
      "";
    ]
