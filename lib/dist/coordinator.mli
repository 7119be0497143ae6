(** The coordinator: shard the (mix x scheme x replicate) grid, drive a
    fleet of workers, survive their deaths, and merge one grid per
    replicate that is bit-identical to a single-process
    {!Vliw_experiments.Sweep.run_cells} run.

    Workers come from two transports, freely mixed: processes spawned
    locally over pipe pairs ([worker_argv], normally
    [vliwsim worker]), and pre-connected descriptors ([attached], plus
    Unix/TCP listeners that accept [vliwsim worker --connect] peers).
    Dispatch is pull-based — an idle ready worker claims the next
    queued shard — so a slow host simply takes fewer shards. Within a
    shard the unit of work is a sharing class: the worker runs each
    row's classes through {!Vliw_experiments.Sweep.run_class}, so the
    cells of a class that share a shard simulate once (a whole-row
    shard shares as a local sweep does), and still report one result
    each.

    Fault model: a worker that dies or goes silent past
    [shard_timeout_s] forfeits its in-flight shard; the unreported
    cells are re-queued (and the fleet topped back up to [workers] by
    respawning, budget permitting). A cell whose {e simulation} fails
    is retried up to [max_retries] times, then degraded to [nan] —
    the same per-cell machinery as the in-process sweep. Because every
    cell is a pure function of (scale, master seed, mix, scheme),
    neither retries nor re-queuing can change results. *)

type stats = {
  mutable cells_simulated : int;
  mutable cells_restored : int;  (** resumed from a checkpoint journal *)
  mutable cells_retried : int;  (** failed simulation attempts re-queued *)
  mutable cells_degraded : int;
  mutable shards_dispatched : int;
  mutable shards_completed : int;
  mutable shards_requeued : int;  (** partial shards re-queued after a death *)
  mutable workers_spawned : int;
  mutable workers_attached : int;
  mutable workers_died : int;
  mutable workers_timeouts : int;  (** deaths declared by [shard_timeout_s] *)
}

val counters_list : stats -> (string * int) list
(** The [dist.*] counter snapshot (sorted), ledger/OpenMetrics-ready. *)

type config = {
  workers : int;  (** local worker processes to keep alive *)
  worker_argv : string array;
      (** argv for spawned workers ([[| exe; "worker" |]]); [[||]]
          disables spawning (attached/listener transports only) *)
  attached : Unix.file_descr list;
      (** pre-connected worker transports (same fd both directions) *)
  listen_socket : string option;  (** accept [vliwsim worker --connect] *)
  listen_tcp : int option;  (** loopback TCP listener, same role *)
  shard_size : int option;  (** cells per shard; [None] = planner default *)
  max_retries : int;  (** per-cell budget before degrading, as in Sweep *)
  shard_timeout_s : float option;
      (** silence budget per assigned shard before the worker is
          declared dead; [None] = wait forever *)
  checkpoint : string option;
      (** journal path, opened with {!Vliw_experiments.Sweep.open_journal}
          so exp and dist journals interchange; multi-replicate runs
          suffix it per seed *)
  resume : bool;
  die_first_worker_after : int option;
      (** fault injection: the first spawned worker gets
          [--die-after-cells N] appended to its argv *)
  log : Vliw_util.Log.t;
      (** structured diagnostics (worker ids, shard ids, reasons as
          fields); default {!Vliw_util.Log.null} *)
  on_event : (Vliw_experiments.Sweep.event -> unit) option;
      (** the event stream of {!Vliw_experiments.Sweep.run_cells},
          kept by the same {!Vliw_experiments.Sweep.Tally}: one
          [Cell_finished] per cell, cells restored from the journal
          included (right after [Sweep_started], with [attempts = 0]),
          and an ETA over the live workers. [Cell_retried] and
          [Cell_degraded] fire here too; [Cell_started] does not, as
          only the worker could observe it. *)
  tracer : Vliw_telemetry.Span.collector option;
      (** when set, the run records a span tree — a [submit] root, per
          shard a [shard] span wrapping [queue_wait] + [dispatch], the
          workers' [prepare_row]/[simulate_cell] children merged back
          under their dispatch span, and [retry] markers — and answers
          stats queries with per-kind latency quantiles. Observation
          only: grids are bit-identical with tracing on or off. *)
}

val default_config : config
(** No transports, [workers = 0], no retries/timeout/checkpoint,
    silent. At least one transport (workers + argv, attached, or a
    listener) must be configured or {!run} raises [Failure]. *)

type result = {
  d_scheme_names : string list;
  d_mix_names : string list;
  d_grids : (int64 * Vliw_experiments.Sweep.cell array) list;
      (** one mix-major grid per seed, in input order — each
          bit-identical to the equivalent [Sweep.run_cells] *)
  d_wall_s : float;
  d_stats : stats;
}

val run :
  ?scale:Vliw_experiments.Common.scale ->
  ?seed:int64 ->
  ?seeds:int64 list ->
  ?scheme_names:string list ->
  ?mix_names:string list ->
  config ->
  result
(** Defaults: {!Vliw_experiments.Fig10.scheme_names},
    all Table 2 mixes, [seeds = [seed]], [seed = Common.default_seed].
    Raises [Invalid_argument] on unknown mix/scheme names, [Failure]
    when no transport can make progress, and [Unix.Unix_error] when a
    listener cannot bind ({!Vliw_util.Wire.listen}). *)
