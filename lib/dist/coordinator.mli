(** The coordinator: shard the (mix x scheme x replicate) grid, drive a
    fleet of workers, survive their deaths, and merge one grid per
    replicate that is bit-identical to a single-process
    {!Vliw_experiments.Sweep.run_cells} run.

    This module is the I/O shell around {!Dispatch}, the core that
    makes every decision (dispatch, re-queue, retry, degrade, the end
    of the sweep) and documents the fault model. The shell runs one
    select loop: it spawns, accepts, reads and reaps peers, feeds the
    core what it observes, stamped with one clock, and carries out its
    actions; it also journals and tallies cells, logs, traces, and
    answers [vliwsim top]. Workers come from two transports, freely
    mixed: processes spawned over pipe pairs ([worker_argv], normally
    [vliwsim worker]), and pre-connected descriptors ([attached], plus
    Unix/TCP listeners that accept [vliwsim worker --connect] peers).
    A worker runs each row's sharing classes through
    {!Vliw_experiments.Sweep.run_class}, so the cells of a class that
    share a shard simulate once. Every cell is a pure function of
    (scale, master seed, mix, scheme), so neither retries nor
    re-queuing can change results. *)

type stats = Dispatch.stats

val counters_list : stats -> (string * int) list
(** The [dist.*] counter snapshot (sorted), ledger/OpenMetrics-ready,
    followed by [sweep.resumed_cells] and [sweep.timeouts] when
    nonzero: the names a ledger record reads its resumed and timeout
    totals from, for [dist] and [exp --workers] alike. *)

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
