(** First-class registry of every paper artifact and extension study.

    The CLI and perfbench's exp-all workload both derive their
    dispatch from {!all}; adding an experiment means adding one entry
    here. *)

type ctx = {
  scale : Common.scale;
  seed : int64;
  jobs : int;  (** Worker domains for sweep cells; 0 = auto. *)
  telemetry : bool;
      (** Attach per-cell counter registries to the shared sweep
          (observation-only; results are unchanged). *)
  max_retries : int;
      (** Per-cell retry budget before a sweep cell degrades to "n/a";
          applies to every sweep-backed experiment. *)
  checkpoint : string option;
      (** Journal path for the shared fig10 sweep (only that sweep: a
          single journal cannot serve differently-shaped grids). *)
  resume : bool;
      (** Restore journaled fig10 cells instead of re-simulating. *)
  log : string -> unit;  (** Diagnostic sink (journal warnings etc.). *)
  on_event : (Sweep.event -> unit) option;
      (** The progress stream, forwarded to every sweep the ctx runs
          except replicates' (see {!Sweep.event} for domain-safety
          requirements). *)
  replicate_seeds : int64 list option;
      (** Seed list override for the replicates experiment ([None] =
          the scale's default list; see {!Replicates.derive_seeds} for
          -at-scale lists). *)
  replicate_exec : (seeds:int64 list -> (int64 * Fig10.data) list) option;
      (** Per-seed fig10 executor for replicates (the distributed
          coordinator plugs in here); [None] = in-process. *)
  memo : Sweep.memo;
      (** Every program compiled and every cell simulated by the ctx's
          studies and its fig10 sweep, so each runs once per ctx (see
          {!Sweep.memo}). Bounded, and owned by this ctx alone. *)
  fig10 : Fig10.data Lazy.t;
      (** Forced at most once per ctx; shared by fig6, fig10, fig11,
          fig12 and claims. *)
}

val make_ctx :
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?jobs:int ->
  ?telemetry:bool ->
  ?max_retries:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  ?on_event:(Sweep.event -> unit) ->
  ?replicate_seeds:int64 list ->
  ?replicate_exec:(seeds:int64 list -> (int64 * Fig10.data) list) ->
  ?grid_exec:
    (scheme_names:string list -> string list * string list * Sweep.cell array) ->
  unit ->
  ctx
(** Defaults: [max_retries = 0], no checkpoint, [resume = false],
    silent [log]. [grid_exec] replaces the shared fig10 sweep's
    execution engine (`exp --workers N` injects the distributed
    coordinator): it receives the fig10 scheme set and must return
    resolved names plus mix-major cells, exactly like
    {!Sweep.run_cells}; the lazy artifact is folded from them with
    {!Fig10.of_cells}. *)

type csv = string list * string list list

type ledger_info = {
  li_cells : Sweep.cell array;  (** Mix-major, like {!Sweep.run_cells}. *)
  li_scheme_names : string list;
  li_mix_names : string list;
  li_gauges : (string * float) list;
  li_policy : string;  (** ["static"] for plain sweeps. *)
}
(** What an experiment hands the run ledger. Experiments whose grid is
    not the shared fig10 sweep (e.g. ["adaptive"]) export their cells
    here so the CLI can record/profile them; [li_policy] joins the
    ledger fingerprint, keeping adaptive runs distinct from static
    ones. *)

type t =
  | E : {
      id : string;
      title : string;
      expensive : bool;
      run : ctx -> 'a;
      render : 'a -> string;
      csv : ('a -> csv) option;
      info : ('a -> ledger_info) option;
    } -> t
      (** An experiment record: the artifact type produced by [run] is
          existentially bound to the matching [render]/[csv]/[info]. *)

val id : t -> string
val title : t -> string

val expensive : t -> bool
(** Excluded from `exp all` (e.g. replicates, which re-runs the whole
    fig10 grid once per seed). *)

val has_csv : t -> bool

val run_entry : ctx -> t -> string * csv option
(** Run an experiment; returns its rendered text and, when the
    experiment exports data, the CSV header and rows. *)

val run_entry_full : ctx -> t -> string * csv option * ledger_info option
(** Like {!run_entry}, also extracting the experiment's ledger export
    when it defines one. *)

val all : t list
(** Every registered experiment, in regeneration order. *)

val standard : t list
(** [all] minus the expensive entries — what `exp all` regenerates. *)

val ids : string list

val find : string -> t option

val find_exn : string -> t
(** @raise Invalid_argument on unknown ids. *)
