(** Figure 11: performance versus transistor cost, one point per scheme
    (average IPC over the nine mixes against merge-control area). *)

type point = { name : string; ipc : float; transistors : float }

val of_fig10 : Fig10.data -> point list
(** Reuse an existing Figure 10 simulation grid. *)

val render : point list -> string

val csv_rows : point list -> string list * string list list
