(** Durable run history: one JSONL record per simulation run.

    Every [vliwsim exp|run|dist] invocation and [serve] job appends a
    record to [_runs/ledger.jsonl] capturing the configuration (scale, seed, jobs,
    git revision, a fingerprint of the sweep shape), the outcome (the
    per-cell IPC grid with IEEE-754 bit images, merged telemetry
    counters, scalar gauges) and the sweep's fault-tolerance stats.
    [vliwsim runs diff] bit-compares two records' grids; the HTML report
    plots the cross-run trajectory from the same store.

    Several processes may write one ledger at once: {!append}, {!merge}
    and {!gc} each hold an fcntl lock on the sidecar [ledger.jsonl.lock]
    ({!Vliw_util.Atomic_io.with_lock}). An append is O(record), one
    O_APPEND write of a complete line, whatever the ledger's size. A
    kill mid-append can leave a torn last line: {!load} skips it, like
    any malformed line, and the next append starts on a fresh line.

    Every writer keeps ids increasing in file order, so the last
    complete line carries the highest id and {!append} reads the next id
    from the tail alone (falling back to a full scan when that line has
    no numeric id). *)

type cell = {
  mix : string;
  scheme : string;
  ipc : float;  (** nan for a degraded cell; diffed via its bit image *)
  elapsed_s : float;
  started_s : float;
  worker : int;
  attempts : int;
  degraded : bool;
}

type run = {
  id : string;  (** assigned by {!append} as "r1", "r2", ... *)
  time_s : float;  (** unix epoch seconds when the record was made *)
  cmd : string;  (** "exp", "run", "serve" or "dist" *)
  label : string;
  git_rev : string;
  fingerprint : string;
  scale : string;
  seed : int64;
  jobs : int;
  scheme_names : string list;
  mix_names : string list;
  policy : string;
      (** Controller policy of adaptive runs; ["static"] for plain
          sweeps (and for every record written before the field
          existed). Part of the fingerprint when non-static. *)
  wall_s : float;
  cells : cell array;
      (** mix-major; may be empty (the `exp replicates` summary record) *)
  counters : (string * int) list;
  gauges : (string * float) list;
  retries : int;
  degraded : int;
  timeouts : int;
  resumed : int;
}

val default_dir : string
(** ["_runs"], relative to the working directory. *)

val ledger_path : dir:string -> string

val make :
  ?counters:(string * int) list ->
  ?gauges:(string * float) list ->
  ?cells:cell array ->
  ?policy:string ->
  cmd:string ->
  label:string ->
  scale:string ->
  seed:int64 ->
  jobs:int ->
  scheme_names:string list ->
  mix_names:string list ->
  wall_s:float ->
  unit ->
  run
(** Build a record for the current moment: stamps the time, records the
    git revision (resolved once per process; ["unknown"] outside a work
    tree), fingerprints the configuration and derives retry/degraded
    stats from [cells] and the counter snapshot. The id is empty until {!append} assigns one. *)

val fingerprint_of :
  ?policy:string ->
  scale:string ->
  seed:int64 ->
  scheme_names:string list ->
  mix_names:string list ->
  unit ->
  string
(** FNV-1a hash of the sweep shape; equal fingerprints mean two runs are
    meaningfully diffable. [policy] (default ["static"]) joins the hash
    only when non-static, so fingerprints recorded before adaptive runs
    existed are preserved verbatim, while an adaptive run can never
    collide with a static run over the same grid. *)

val grid_digest : cell array -> string
(** FNV-1a over every cell's (mix, scheme) key and IPC bit image; equal
    digests mean bit-identical grids. *)

val mean_ipc : run -> float
(** Mean over non-nan cells; nan if there are none. *)

val append : dir:string -> run -> run
(** Under the ledger lock, assign the next id (one past the last
    record's, which is the highest on file, so ids stay unique across
    {!gc} gaps), append the record as one line (creating [dir] if
    needed), and return it with its id filled in. *)

type gc_report = { kept : run list; dropped : run list }
(** Both in file order; surviving records keep their original ids. *)

val gc : ?dry_run:bool -> dir:string -> unit -> gc_report
(** Compact the ledger: of the records sharing a (configuration
    fingerprint, grid digest) pair, keep only the newest. Records with
    equal fingerprints but {e different} grid bits are never collapsed —
    they are drift evidence. With [dry_run] (default false) the file is
    left untouched; otherwise the load and the atomic rewrite of the
    survivors share one lock hold, so a concurrent append is never lost
    (a no-op when nothing was dropped). *)

type merge_report = { added : run list; skipped : run list }
(** [added] carry their newly assigned target ids; [skipped] are source
    records whose results the target already holds. *)

val merge :
  ?dry_run:bool -> dir:string -> from:string list -> unit -> merge_report
(** Merge other ledgers (e.g. per-worker [_runs] directories from a
    distributed sweep) into [dir], applying {!gc}'s deduplication on
    the way in: a source record whose (fingerprint, grid digest) pair
    is already represented — in the target, or by an earlier source
    record of this merge — is skipped as an identical duplicate, while
    same-fingerprint records with different grid bits always merge
    (drift evidence). Added records keep their content verbatim but
    get fresh target ids, assigned and appended in one lock hold. With
    [dry_run] nothing is written. *)

val load : dir:string -> run list
(** All parseable records in file (= chronological) order; [] if the
    ledger does not exist yet. *)

val find : dir:string -> string -> run option
(** Look up by id; the alias ["latest"] resolves to the newest record. *)

val latest : dir:string -> run option

type drift =
  | Identical  (** every cell bit-identical *)
  | Shape_mismatch of string  (** different cell count or (mix, scheme) layout *)
  | Drift of {
      mix : string;  (** first differing cell, in grid order *)
      scheme : string;
      ipc_a : float;
      ipc_b : float;
      differing : int;  (** total number of differing cells *)
    }

val diff : run -> run -> drift
(** Bit-compare two runs' grids. Attribution is deterministic: the named
    cell is the first differing one in mix-major grid order. *)

val to_json : run -> Vliw_util.Json.t

val of_json : Vliw_util.Json.t -> run option
(** [None] if required fields are missing; unknown fields are ignored
    (forward compatibility with later schema additions). *)
