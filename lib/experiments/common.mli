(** Shared experiment infrastructure: scales, seeds, and the simulation
    grid all performance figures draw from. *)

type scale = Quick | Default | Full

val schedule_of_scale : scale -> Vliw_sim.Multitask.schedule
(** Quick: unit-test sized. Default: seconds per simulation, stable
    rates. Full: the paper's parameters scaled to minutes per
    simulation. *)

val scale_name : scale -> string
(** "quick" / "default" / "full" — the CLI spelling, also the spelling
    checkpoint journals record. *)

val scale_of_name : string -> scale option
(** Inverse of {!scale_name}. *)

val default_seed : int64

val ipc_string : ?decimals:int -> float -> string
(** Fixed-point rendering of an IPC value; [nan] (a degraded sweep
    cell) renders as ["n/a"]. [decimals] defaults to 4. *)

type grid = {
  scheme_names : string list;
  mix_names : string list;
  ipc : float array array;  (** [ipc.(mix).(scheme)]. *)
  index : (string, int) Hashtbl.t;
      (** Scheme name -> column, precomputed at construction. *)
}

val make_grid :
  scheme_names:string list ->
  mix_names:string list ->
  ipc:float array array ->
  grid
(** The only grid constructor; builds the scheme-column lookup once.
    Grids are produced by {!Sweep.run} — the (mix x scheme) execution
    engine that used to live here as [run_grid]. *)

val scheme_index : grid -> string -> int
(** Column of a scheme (O(1)); raises [Invalid_argument] if absent. *)

val grid_column : grid -> string -> float array
(** IPC across mixes for one scheme. *)

val grid_average : grid -> string -> float
(** Mean IPC across mixes for one scheme. *)

val grid_mean : grid -> float
(** Mean IPC over every non-nan cell of the grid (degraded cells are
    skipped); nan when no cell is valid. *)

val grid_csv : grid -> string list * string list list
(** CSV header and rows (mix per row, scheme per column). *)
