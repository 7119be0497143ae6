(** Adaptive merging: a per-timeslice scheme controller vs the best
    static scheme of its hardware-cost class.

    The candidate set is the catalog performance group of the paper's
    pick 2SC3 (five comparable-cost schemes). The sweep runs every
    static member as its own column plus two adaptive columns — an
    oracle sampler and a telemetry-driven hill-climber — over identical
    programs and row seeds. Adaptive columns pay real reconfiguration
    penalties ({!Vliw_cost.Scheme_cost.switch_penalty}), charged as
    issue-stall bubbles, so the headline comparison is honest.

    Telemetry is always collected (the render reports switch counts and
    per-scheme decision trails); counting is observation-only, so IPC
    results are unchanged. *)

type data = {
  grid : Common.grid;
      (** Static members + ["oracle"] + ["adaptive"] columns. *)
  cells : Sweep.cell array;  (** Raw cells, with telemetry snapshots. *)
  static_names : string list;  (** The candidate group's members. *)
  policy : string;
      (** The ["adaptive"] column's policy descriptor — what the run
          ledger fingerprints. *)
}

val run :
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?jobs:int ->
  ?max_retries:int ->
  ?cell_timeout_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  ?on_event:(Sweep.event -> unit) ->
  unit ->
  data
(** Run the adaptive sweep. The fault-tolerance knobs behave as in
    {!Sweep.run_cells}; give [checkpoint] its own path (the column set
    differs from the shared fig10 sweep, so the journals must not share
    a file). *)

val gauges : data -> (string * float) list
(** Scalar results for the run ledger: mean IPCs and win counts. *)

val render : data -> string

val csv_rows : data -> string list * string list list
