(** Declarative, deterministic, multicore rows x columns sweep engine:
    the one path by which any experiment compiles programs ({!row},
    {!prepare_row}) and simulates a cell ({!simulate}). Rows are
    compiled in the calling domain; cells then simulate independently,
    dispatched through {!Vliw_util.Pool}. Determinism is normative:
    results are bit-identical for any [jobs] value (property-tested).

    Seeding: every Table 2 mix row of the classic grid gets its own
    derived simulation seed ({!row_seed}); other rows carry the seed
    their experiment gives them. All columns of a row share its seed,
    so schemes are compared on identical workloads and the
    parallel/serial scheme equivalences (3CCC = C4, 2SC3 = 3SCC,
    3CCS = 2C3S, CSMT8 = C8) stay bit-exact in simulation.

    Sharing: a cell is a pure function of its row and its column's
    {!share_key} (the effective configuration with the scheme made
    {!Vliw_merge.Scheme.canonical}), so the columns of a row with equal
    keys — a {e class} ({!classes}) — are simulated once, by
    {!run_class}. That runner is the only code that simulates a cell,
    so sharing holds for every executor: a {!run_metrics} pool task, a
    dist worker's shard (per row it holds) and a serve job's batch unit
    are each one class. Every cell is still reported: the class's cells
    finish together, the representative (its first column) first and
    its followers right after it, each with its own [Cell_started] and
    [Cell_finished] (so [completed] still counts 1..total), its own
    checkpoint record, its own [attempts] and an [elapsed_s] of about
    zero. A follower's telemetry is the representative's simulation
    snapshot plus the follower's own [sweep.*] bookkeeping, never the
    representative's retries. {!inject_failure} is consulted per (row,
    col), so a follower whose hook fires fails alone; if the
    representative degrades, the next member simulates itself. On
    resume, a class is simulated unless every member is restored.

    Fault tolerance (opt-in): a cell whose simulation raises — or trips
    {!inject_failure}, or exceeds [cell_timeout_s] — is retried up to
    [max_retries] times, then recorded as a {e degraded} cell
    ([ipc = nan], [error = Some _]) instead of aborting the sweep.
    Because a cell is a pure function of its row and column, retries
    cannot change results. With [checkpoint], completed cells are
    journaled crash-safely ({!Checkpoint}); with [resume], journaled
    cells are restored bit-identically and only missing cells
    simulate. *)

type column = {
  col_name : string;
      (** Display and journal name of the grid column; must be unique
          within a sweep (it is the cell/checkpoint key). *)
  col_scheme : Vliw_merge.Scheme.t;
      (** The scheme the column's simulations start on (the only scheme,
          without a controller). *)
  col_controller : (unit -> Vliw_sim.Controller.t) option;
      (** Adaptive columns carry a controller factory; it is invoked
          once {e per simulation attempt} (controllers are stateful, and
          a retried cell must replay from a pristine one). *)
  col_config : Vliw_sim.Config.t -> Vliw_sim.Config.t;
      (** Edit of [Config.make ~machine col_scheme]: ablation knobs or
          the IMT/BMT issue policy; [Fun.id] for a plain column. *)
}

val column :
  ?config:(Vliw_sim.Config.t -> Vliw_sim.Config.t) ->
  string ->
  Vliw_merge.Scheme.t ->
  column
(** [column ?config name scheme]: no controller; [config] (default
    [Fun.id]) edits the column's configuration. *)

val static_column : Vliw_merge.Catalog.entry -> column
(** The classic column: one catalog scheme, nothing else. *)

type row = {
  name : string;  (** Display and journal name; unique within a sweep. *)
  programs : Vliw_compiler.Program.t list;
  seed : int64;  (** Simulation seed. *)
  schedule : Vliw_sim.Multitask.schedule;
  machine : Vliw_isa.Machine.t;
  perfect_mem : bool;
}
(** Compiled programs plus everything a simulation needs except the
    column. Immutable, so worker domains read it concurrently. A record
    update may rename it or narrow [programs] (e.g. one thread alone):
    the {!memo} keys a cell on the row's programs by physical identity,
    plus its seed, schedule and [perfect_mem], never on its name. One
    program value comes from one compile, so identity implies equal
    programs, and a narrowed row keys on exactly the programs it runs. *)

type memo
(** What one context has compiled and simulated. Programs are keyed on
    a plain record of {!Vliw_compiler.Program.generate}'s whole input:
    machine, mode, per-program seed (as {!Vliw_sim.Multitask.compile}
    derives it) and profile. Cells are keyed on what {!simulate} reads:
    the row's programs (by physical identity), seed, schedule and
    [perfect_mem], the column's {!share_key} and whether the sweep
    attaches counters; the value is a successful simulation's metrics
    and counter snapshot, never a degraded outcome. Lookups happen in
    the calling domain before a sweep's tasks start, and inserts in the
    pool's serialized result callback, so results are the same for any
    [jobs]. Bounded like {!row_memo}: a row that would take it past 256
    programs (about 75 MB) flushes both tables whole; a cell pins its
    row's programs, so the cells go with them. Not domain-safe: use a
    memo from one domain at a time. *)

val memo : unit -> memo
(** An empty memo. *)

val memo_stats : memo -> int * int
(** The programs and the cells a memo holds. *)

val row :
  ?memo:memo ->
  ?machine:Vliw_isa.Machine.t ->
  ?mode:Vliw_compiler.Program.mode ->
  ?stream:[ `Mix | `Doubled ] ->
  ?perfect_mem:bool ->
  schedule:Vliw_sim.Multitask.schedule ->
  compile_seed:int64 ->
  seed:int64 ->
  string ->
  Vliw_compiler.Profile.t list ->
  row
(** [row ~schedule ~compile_seed ~seed name profiles] compiles one
    program per profile with {!Vliw_sim.Multitask.compile} (the
    seeding [vliwsim run] uses too) for [machine] (default
    {!Vliw_isa.Machine.default}) in [mode] (default block scheduling),
    on [stream]: [`Mix] (default) for the 4-thread workloads,
    [`Doubled] for the 8-thread mixes. Programs come from [memo]
    (default: a fresh one) when it holds them, and the row's [machine]
    is the memo's value of any structurally equal machine, which its
    programs' signature caches were computed against. *)

type cell = {
  mix : string;
  scheme : string;
  ipc : float;  (** [nan] iff the cell is degraded ([error <> None]). *)
  elapsed_s : float;  (** Wall-clock seconds spent simulating the cell. *)
  started_s : float;
      (** Start offset from the sweep's epoch (the moment [run_cells]
          began dispatching), wall clock. *)
  worker : int;  (** Pool worker that simulated the cell (0-based). *)
  telemetry : Vliw_telemetry.Counters.snapshot option;
      (** Per-cell counter snapshot when telemetry was requested.
          Timing/worker/telemetry fields are observational: they vary
          run to run, while [ipc] is bit-deterministic. Harness
          accounting rides here too: [sweep.retries], [sweep.timeouts],
          [sweep.degraded], [sweep.resumed_cells]. *)
  attempts : int;
      (** Simulation attempts the cell took (1 = first try succeeded;
          0 = restored from a checkpoint without re-simulation). *)
  error : string option;
      (** [Some _] iff the cell degraded: every attempt (1 + retries)
          failed. Degraded cells render as "n/a" and are not journaled,
          so a resumed sweep retries them. *)
}

(** The live progress stream: lifecycle events for the whole sweep and
    for every cell attempt. The contract holds for every executor —
    {!run_metrics} in this process, the dist coordinator and a serve
    job — because all three report cells through one {!Tally}: one
    [Sweep_started] first, then exactly one [Cell_finished] per cell
    (simulated, restored from a checkpoint, served from a cache or
    degraded alike) with [completed] counting 1..[total] in delivery
    order, then one [Sweep_finished]. A progress meter is just a
    consumer of this stream. A consumer passed as [on_event] {b must be
    domain-safe}: [Cell_started], [Cell_retried] and [Cell_degraded]
    fire inside worker domains, while the tally's events fire one at a
    time — from the caller's domain, or from the pool's serialized
    result callback. Observation-only: consuming events cannot change
    results. *)
type event =
  | Sweep_started of { total : int; jobs : int; scale : string; seed : int64 }
  | Cell_started of { mix : string; scheme : string; worker : int }
  | Cell_retried of {
      mix : string;
      scheme : string;
      attempt : int;  (** the attempt that just failed, 1-based *)
      error : string;
    }
  | Cell_degraded of {
      mix : string;
      scheme : string;
      seed : int64;
          (** the row's simulation seed ({!row_seed} for a grid row),
              which tells replicates apart *)
      attempts : int;
      error : string;
    }
  | Cell_finished of {
      cell : cell;
      completed : int;
      total : int;
      eta_s : float;
          (** Estimated seconds to sweep completion: the mean elapsed
              time of the attempted cells so far (shared followers
              included at their ≈ 0 s; restored, cached and degraded
              cells don't count) times the cells still to come, divided
              by the executor's worker count; [nan] until one timed
              cell has finished. {!Tally} holds the one formula. *)
    }
  | Sweep_finished of { total : int; degraded : int; wall_s : float }

type 'a study =
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?jobs:int ->
  ?max_retries:int ->
  ?on_event:(event -> unit) ->
  ?memo:memo ->
  'a
(** A simulating experiment's entry point: scale, master seed and the
    engine knobs it passes to {!run} / {!run_metrics}, then its own
    arguments. [memo] (default: a fresh one per call) is shared by the
    study's rows and sweeps; a [Registry.ctx] passes its own, so a
    program or cell that several studies need is computed once. *)

val json_of_event : event -> Vliw_util.Json.t
(** One JSON object per event: an ["ev"] tag, a ["ts"] wall-clock stamp,
    and the event's fields. Non-finite numbers (a degraded cell's IPC,
    an uncalibrated ETA) serialize as [null]. *)

val json_logger : out_channel -> event -> unit
(** [json_logger oc] is an [on_event] consumer that writes each event as
    one NDJSON line to [oc], flushed per line so [tail -f] follows a
    live sweep. Writes are serialized through a mutex, so the consumer
    is safe across worker domains. *)

val watch_degraded : (event -> unit) option -> (event -> unit) * (unit -> string option)
(** [watch_degraded on_event] is [(watch, warning)]: [watch] forwards
    every event to [on_event] and records each [Cell_degraded] one
    (domain-safe); [warning ()] lists the recorded cells as
    [mix/scheme seed 0x… after n attempt(s): error], sorted, or is
    [None]. The CLI hands [watch] to every sweep a command runs. *)

exception Cell_timeout of { elapsed_s : float; limit_s : float }
(** Raised {e inside} a cell attempt when it overran [cell_timeout_s].
    Enforcement is post-hoc — a domain cannot be preempted mid-
    simulation — so the attempt runs to completion, its result is
    discarded, and the cell is retried or degraded like any other
    failure. *)

val inject_failure : (row:int -> col:int -> bool) option ref
(** Deterministic fault-injection hook for tests: when set, each cell
    attempt at (row, col) — mix-major indices into the sweep — first
    consults the hook and raises [Failure] if it returns [true]. The
    hook is consulted once {e per attempt} (so "fail twice then
    succeed" schedules need stateful hooks) and may be called from any
    worker domain — make stateful hooks domain-safe. Reset to [None]
    after use. *)

val degraded : cell array -> cell list
(** The degraded cells of a sweep, in mix-major order. *)

val row_seed : seed:int64 -> string -> int64
(** The simulation seed of a mix row, a pure function of the master
    seed and the mix name. *)

val prepare_row : ?memo:memo -> ?scale:Common.scale -> ?seed:int64 -> string -> row
(** [prepare_row ~scale ~seed mix_name]: the classic grid row, as
    {!run_cells} builds it for [mix_names] — compiled from [seed] on the
    default machine, simulated on {!row_seed}. The sweep service and
    dist workers compile a mix once this way and simulate many cells
    against it (through a {!row_memo}). Raises like
    {!Vliw_workloads.Mixes.find_exn}. *)

type row_memo
(** Compiled grid rows kept across jobs and shards, keyed on (scale,
    seed, mix), at most 64 at once: a row is about 1.2 MB of programs,
    so a full memo is about 75 MB, and it still holds seven fig10
    seeds' rows. Not domain-safe: one memo per daemon or worker, read
    from its own domain. *)

val row_memo : unit -> row_memo
(** An empty memo. *)

val memo_row :
  row_memo ->
  ?compile:((unit -> row) -> row) ->
  scale:Common.scale ->
  seed:int64 ->
  string ->
  row
(** [memo_row memo ~scale ~seed mix] is {!prepare_row}[ ~scale ~seed
    mix], compiled on a miss only. [compile] wraps that compilation
    (default: just run it), e.g. to time it. A miss on a full memo
    flushes it whole first. *)

val simulate :
  ?counters:Vliw_telemetry.Counters.t ->
  row ->
  column ->
  Vliw_sim.Metrics.t
(** The one cell simulation every path runs: the column's edited
    configuration on the row's machine, a fresh controller, the row's
    seed, schedule, memory and programs. No events or retries. Safe in
    a {!Vliw_util.Pool} worker. [counters] attaches a telemetry
    registry without changing the result. Every column of a row draws
    the same addresses and branch outcomes, because they come from the
    row's seed alone. *)

val share_key : row -> column -> Vliw_sim.Config.t option
(** The sharing key of a column on a row: [col_config (Config.make
    ~machine:row.machine col_scheme)] with its scheme made canonical.
    [None] (never shared) for a controller column, whose simulation is
    stateful, and for a configuration that does not build. *)

val simulate_prepared : row -> column -> float
(** IPC of {!simulate}, as in the {!run_cells} cell (property-tested). *)

val classes : row -> column array -> int list list
(** [classes row cols]: the column indices of [row]'s sharing classes
    — columns with equal {!share_key}s, each class in column order, the
    classes ordered by their first member (the representative). A
    column with no key is a class of its own. *)

val run_class :
  ?telemetry:bool ->
  ?max_retries:int ->
  ?cell_timeout_s:float ->
  ?on_event:(event -> unit) ->
  ?epoch:float ->
  ?restore:(int -> cell option) ->
  ?fault:(int -> unit) ->
  worker:int ->
  row ->
  column array ->
  int list ->
  (cell * Vliw_sim.Metrics.t option) list
(** [run_class ~worker row cols members] runs one class of {!classes}
    and returns its cells (with their metrics) in [members] order: the
    first member simulates, later members reuse its outcome, and a
    member whose predecessor degraded simulates itself. Each member
    gets its own [Cell_started], [Cell_retried] and [Cell_degraded]
    events on [on_event], fired in the domain that runs the class;
    [Cell_finished] is the caller's {!Tally}'s. Knobs as in
    {!run_cells}. A member that [restore] answers (a journaled cell) is
    not simulated and carries no metrics. [fault j] runs before each
    attempt at member [j] and fails it by raising. [started_s] counts
    from [epoch] (default: the call). Safe in a {!Vliw_util.Pool}
    worker. *)

val cell_of_outcome :
  ?elapsed_s:float ->
  ?started_s:float ->
  ?worker:int ->
  ?telemetry:Vliw_telemetry.Counters.snapshot ->
  attempts:int ->
  mix:string ->
  scheme:string ->
  (float, string) result ->
  cell
(** The cell of an outcome: [Ok ipc], or [Error message] for a degraded
    cell ([ipc = nan]). Timing and worker default to 0. *)

val ledger_cell : cell -> Vliw_telemetry.Ledger.cell
(** The run-ledger form of a cell. *)

(** {1 Sweep bookkeeping}

    What every executor of a grid shares: the checkpoint journal and the
    tally of finished cells. *)

type journal
(** A sweep's open checkpoint journal ({!Checkpoint} format, so local,
    dist and serve journals interchange). *)

val open_journal :
  ?log:(string -> unit) ->
  ?resume:bool ->
  ?telemetry:bool ->
  ?row_seed:(string -> int64) ->
  scale:Common.scale ->
  seed:int64 ->
  scheme_names:string list ->
  mix_names:string list ->
  string ->
  journal
(** [open_journal ~scale ~seed ~scheme_names ~mix_names path] opens the
    journal of that grid with {!Checkpoint.open_journal}: with [resume]
    (default false) a matching journal is restored, anything else is
    logged and replaced; the header is on disk before it returns.
    [row_seed] names each row's simulation seed for the audit field
    (default {!row_seed}[ ~seed], the grid rows'); [telemetry] (default
    false) is part of the configuration a journal must match. *)

val restored : journal -> mix:string -> scheme:string -> cell option
(** The journaled cell, restored bit-identically: [attempts = 0],
    [elapsed_s = 0.], and — when the journal belongs to a telemetry
    sweep — its journaled counters plus [sweep.resumed_cells = 1]. *)

(** The tally of one sweep's finished cells: it owns the {!event}
    stream's [Sweep_started], every [Cell_finished] and
    [Sweep_finished], the ETA formula and the degraded count, and
    journals each fresh cell. Its state is not domain-safe: a driver
    touches it from one domain, or under a lock (the pool's serialized
    result callback). *)
module Tally : sig
  type t

  val create :
    ?on_event:(event -> unit) ->
    ?workers:(unit -> int) ->
    scale:Common.scale ->
    seed:int64 ->
    jobs:int ->
    int ->
    t
  (** [create ~scale ~seed ~jobs total] starts the tally of a
      [total]-cell sweep: it emits [Sweep_started] (with [jobs]) and
      starts the sweep's wall clock. The ETA divides by [workers ()]
      (default [jobs]; floored at 1), asked at each cell. *)

  val finish : ?journal:journal -> t -> int -> cell -> unit
  (** [finish t k cell] records [cell] in slot [k] (the sweep's
      mix-major order) and emits its [Cell_finished]; a non-degraded
      cell is first appended to [journal], once. A slot already
      finished keeps its first cell, and nothing is emitted. *)

  val finished : t -> int -> bool
  val completed : t -> int

  val cells : t -> cell array
  (** Every slot's cell; [Invalid_argument] if one is unfinished. *)

  val close : t -> float
  (** Emit [Sweep_finished] and return the sweep's wall-clock
      seconds. *)
end

val run :
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?scheme_names:string list ->
  ?columns:column list ->
  ?mix_names:string list ->
  ?rows:row list ->
  ?jobs:int ->
  ?max_retries:int ->
  ?cell_timeout_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  ?on_event:(event -> unit) ->
  ?memo:memo ->
  unit ->
  Common.grid
(** IPC of every (row, column) cell as a grid. Defaults: all 4-thread
    schemes of the catalog, all Table 2 mixes, [jobs = 1]. [jobs <= 0]
    uses one worker per core. [on_event] receives the sweep's {!event}
    stream. See {!run_cells} for the other knobs. *)

val run_cells :
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?scheme_names:string list ->
  ?columns:column list ->
  ?mix_names:string list ->
  ?rows:row list ->
  ?jobs:int ->
  ?telemetry:bool ->
  ?max_retries:int ->
  ?cell_timeout_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  ?on_event:(event -> unit) ->
  ?memo:memo ->
  unit ->
  string list * string list * cell array
(** Like {!run} but returns the raw cells (mix-major order) with their
    per-cell wall-clock timings, plus the resolved scheme and mix
    names. [telemetry] (default [false]) attaches a fresh counter
    registry to each cell's simulation and snapshots it into
    {!cell.telemetry}; counting is observation-only, so IPC results are
    unchanged. Each sharing class of a row is one pool task.

    [columns] generalizes [scheme_names] (the two are mutually
    exclusive): each {!column} names one grid column, carrying its
    initial scheme and, for adaptive columns, a controller factory
    invoked fresh per simulation attempt. Column names are the
    cell/checkpoint keys, so a checkpoint journal from a sweep with
    different columns never resumes into this one. A sweep over static
    columns is bit-identical to the equivalent [scheme_names] sweep
    (property-tested).

    [rows] generalizes [mix_names] the same way (the two are mutually
    exclusive): a {!row}'s name is its cells' [mix]. Without [rows],
    each mix name is {!prepare_row}[ ~scale ~seed]; with them, [scale]
    and [seed] only label the sweep (events, checkpoint header).

    Fault-tolerance knobs:
    - [max_retries] (default 0): failed cell attempts beyond the first
      are retried this many times before the cell degrades.
    - [cell_timeout_s]: post-hoc per-attempt wall-clock limit; an
      overrunning attempt counts as a failure ({!Cell_timeout}).
    - [checkpoint]: journal every completed cell to this path, written
      atomically after each cell; a valid journal (with the header
      already written) exists from the moment the sweep starts, so a
      kill at any point leaves a resumable file. A journal write
      failure (unwritable path) aborts the sweep.
    - [resume] (default false): restore cells recorded in [checkpoint]
      instead of re-simulating them — bit-identical, the journal stores
      raw IEEE-754 bits. A journal whose configuration header does not
      match this sweep (scale, seed, schemes, mixes, telemetry) is
      ignored with a [log] warning and the sweep starts fresh.
    - [log] (default silent): diagnostic sink for journal warnings.
    - [memo] (default: a fresh one): compiles the [mix_names] rows, and
      a class it already holds reuses that outcome instead of
      simulating; every class simulated successfully is added to it.

    Restored cells have [attempts = 0], [elapsed_s = 0.], and — when
    telemetry is on — their journaled counters plus
    [sweep.resumed_cells = 1]. *)

val run_metrics :
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?scheme_names:string list ->
  ?columns:column list ->
  ?mix_names:string list ->
  ?rows:row list ->
  ?jobs:int ->
  ?telemetry:bool ->
  ?max_retries:int ->
  ?cell_timeout_s:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  ?on_event:(event -> unit) ->
  ?memo:memo ->
  unit ->
  string list * string list * (cell * Vliw_sim.Metrics.t option) array
(** The engine itself, {!run_cells} being its projection: each cell
    with the {!Vliw_sim.Metrics.t} of its simulation, for studies that
    report more than IPC. Restored and degraded cells carry [None]. *)

val metric : (Vliw_sim.Metrics.t -> float) -> cell * Vliw_sim.Metrics.t option -> float
(** One figure of a {!run_metrics} cell; [nan] without metrics. *)

val grid_of_cells :
  scheme_names:string list ->
  mix_names:string list ->
  cell array ->
  Common.grid
(** Fold mix-major cells into a grid (degraded cells surface as
    [nan]). *)

val total_elapsed_s : cell array -> float
(** Sum of per-cell wall-clock times (CPU-seconds of simulation, not
    elapsed wall time when [jobs > 1]). *)

val merged_telemetry : cell array -> Vliw_telemetry.Counters.snapshot
(** Sum of all per-cell counter snapshots (cells without telemetry
    contribute nothing). *)

val chrome_trace : ?process_name:string -> cell array -> string
(** Chrome trace-event JSON of the sweep's execution timeline: one lane
    per pool worker, one slice per cell (built from [started_s] /
    [elapsed_s]), with mix/scheme/IPC as slice arguments. Load in
    Perfetto or chrome://tracing. *)

val telemetry_csv : cell array -> string list * string list list
(** (header, rows) for {!Vliw_util.Csv.write}: one row per (cell,
    counter) — columns [mix; scheme; counter; value]. Cells without
    telemetry are skipped. *)
