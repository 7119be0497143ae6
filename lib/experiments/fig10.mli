(** Figure 10: per-mix IPC for every merging scheme.

    The paper groups schemes whose performance differs by less than 1%
    (e.g. 3CCC with C4); we simulate every scheme individually, report
    the paper's groups as member averages and expose the within-group
    spread so the grouping claim itself is checkable. *)

type data = {
  grid : Common.grid;  (** All 4-thread schemes plus 1S. *)
  groups : (string * string list) list;  (** Paper legend groups. *)
  cells : Sweep.cell array;
      (** Raw sweep cells (mix-major): timings, worker ids and counter
          snapshots when the run requested telemetry. *)
}

val scheme_names : string list
(** The fig10 scheme set: every catalog scheme except the
    single-threaded "ST" baseline, in catalog order. *)

val of_cells :
  scheme_names:string list -> mix_names:string list -> Sweep.cell array -> data
(** Build the artifact from externally computed mix-major cells (a
    distributed sweep's merged grid); bit-equal inputs give bit-equal
    artifacts to {!run}'s. *)

val run :
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?jobs:int ->
  ?telemetry:bool ->
  ?max_retries:int ->
  ?cell_timeout_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  ?on_event:(Sweep.event -> unit) ->
  ?memo:Sweep.memo ->
  unit ->
  data
(** The fault-tolerance knobs ([max_retries], [cell_timeout_s],
    [checkpoint], [resume], [log]), the [on_event] progress stream and
    the [memo] are passed to {!Sweep.run_cells} verbatim; see its
    documentation. *)

val group_average : data -> string -> float
(** Mean over mixes of a group's per-mix IPC (itself the average over
    the group's members). *)

val group_spread : data -> string -> float
(** Maximum relative IPC difference between group members on any mix —
    the paper reports < 1%. *)

val scheme_average : data -> string -> float

val render : data -> string
