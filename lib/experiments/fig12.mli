(** Figure 12: performance versus merge-network gate delay, one point per
    scheme. *)

type point = { name : string; ipc : float; delay : float }

val of_fig10 : Fig10.data -> point list

val render : point list -> string

val csv_rows : point list -> string list * string list list
