(** Sweep checkpoint journal: crash-safe persistence of completed
    (mix, scheme) cells, so an interrupted sweep resumes instead of
    restarting.

    A journal is a plain-text file: a magic line, a [meta] header
    pinning the sweep configuration (scale, master seed, scheme and mix
    lists, telemetry flag), then one line per completed cell. IPC values
    are stored as the hex image of their IEEE-754 bits, which is what
    makes a resumed grid bit-identical to an uninterrupted run. Every
    save goes through {!Vliw_util.Atomic_io} (temp-file + rename),
    so a kill mid-save leaves the previous journal intact, never a torn
    file.

    Degraded cells (retry budget exhausted) are not journaled: resuming
    a sweep retries them rather than pinning the failure. *)

type meta = {
  scale : string;  (** {!Common.scale_name} of the sweep's scale. *)
  seed : int64;  (** Master seed. *)
  scheme_names : string list;
  mix_names : string list;
  telemetry : bool;
}
(** The sweep configuration a journal belongs to. {!Vliw_experiments.Sweep}
    refuses to resume from a journal whose [meta] differs — cells from a
    different grid must never be spliced in. *)

type record = {
  mix : string;
  scheme : string;
  row_seed : int64;  (** The row's derived simulation seed, for audit. *)
  ipc : float;
  attempts : int;  (** Simulation attempts the cell took (1 = no retry). *)
  counters : (string * int) list option;
      (** Telemetry counter snapshot, when the sweep ran with telemetry.
          Histograms are not journaled; a resumed cell restores its
          counters only. *)
}

type t = { meta : meta; records : record list }

val create : meta -> t
(** Empty journal for a sweep configuration. *)

val add : t -> record -> t
(** Append one completed cell (persist with {!save}). *)

val meta_equal : meta -> meta -> bool

val save : path:string -> t -> unit
(** Atomic whole-file rewrite (temp + rename). *)

val load : path:string -> (t, string) result
(** Parse a journal. Malformed cell lines are dropped (the sweep simply
    re-runs those cells); a missing file, bad magic or unparsable meta
    line is an [Error]. *)

val to_string : t -> string
(** The serialized journal text (what {!save} writes). *)

(** {1 The open journal of a running sweep} *)

type journal
(** A journal file a sweep is writing: its path and the records so far. *)

val open_journal :
  ?log:(string -> unit) -> resume:bool -> path:string -> meta -> journal
(** Open the journal of the sweep [meta] at [path]. With [resume], a
    journal there whose [meta] is {!meta_equal} is loaded; one that
    belongs to another configuration, or that exists but does not
    parse, is reported to [log] (default silent) and replaced by a
    fresh one. The header is persisted at once, so a kill at any later
    point leaves a resumable file. Raises when the file cannot be
    written. *)

val journaled : journal -> mix:string -> scheme:string -> record option
(** The record of a cell, if the journal holds one (restored on open or
    appended since). *)

val append : journal -> record -> unit
(** Record a completed cell and rewrite the file atomically; a cell the
    journal already holds is left as it is. *)
