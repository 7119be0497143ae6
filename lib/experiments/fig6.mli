(** Figure 6: SMT performance advantage over CSMT (4 threads), per mix
    and on average. The paper reports a 27% average, peaking at 58% for
    LLHH. *)

type data = {
  per_mix : (string * float) list;  (** Mix name, % advantage. *)
  average : float;
}

val run :
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?jobs:int ->
  unit ->
  data

val of_grid : Common.grid -> data
(** Reuse an existing grid containing 3SSS and 3CCC. *)

val render : data -> string
