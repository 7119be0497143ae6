(** The paper's headline quantitative claims, computed from one Figure 10
    grid so EXPERIMENTS.md and the tests check exactly what the harness
    prints. *)

type t = {
  smt4_over_smt2_pct : float;  (** Paper: +61% (Fig. 4). *)
  smt_over_csmt_pct : float;  (** Paper: +27% average (Fig. 6). *)
  scheme_2sc3_over_csmt4_pct : float;  (** Paper: +14%. *)
  scheme_2sc3_over_smt2_pct : float;  (** Paper: +45%. *)
  scheme_2sc3_below_smt4_pct : float;  (** Paper: -11%. *)
}

val of_fig10 : Fig10.data -> t

val render : t -> string
