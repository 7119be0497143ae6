(** Crash-safe file writes and locked appends.

    The primitive behind {!Csv.write}, the checkpoint journal, the run
    ledger, and every other load-bearing file the tooling produces: a
    reader observes either the old content or the complete new content,
    never a torn file. A raising writer leaves the destination untouched
    and removes its temp file; a kill mid-write leaves at worst a stale
    [*.tmp] beside it.

    Append-only stores use {!append_lines} under {!with_lock} instead:
    an O_APPEND write of whole lines, O(record) rather than O(file). *)

val with_file : path:string -> (out_channel -> unit) -> unit
(** [with_file ~path f] runs [f] on a channel to a fresh, uniquely named
    temp file in [path]'s directory, then renames it over [path]. Two
    writers of one path never share a temp file: the last rename wins
    whole. If [f] raises, the temp file is removed and the exception
    re-raised. *)

val write_file : path:string -> string -> unit
(** [write_file ~path content] replaces [path] with [content]
    atomically. *)

val with_lock : path:string -> (unit -> 'a) -> 'a
(** [with_lock ~path f] runs [f] holding an exclusive [Unix.lockf] lock
    on the sidecar [path ^ ".lock"] (created if missing), blocking until
    other processes release it. The sidecar, not [path], carries the
    lock because {!write_file} replaces [path]'s inode.

    fcntl locks belong to the process: they exclude other processes,
    not other threads or domains of this one, and closing any
    descriptor of the sidecar drops them, so calls must not nest. The
    only in-process caller of repeated appends is the serve daemon's
    single-threaded select loop. *)

val last_line : path:string -> string option
(** The last complete (newline-terminated) line of [path], without its
    terminator, found by reading backwards from EOF in chunks; a torn
    unterminated tail is ignored. [None] if [path] is missing or holds
    no complete line. *)

val append_lines : path:string -> string list -> unit
(** Append each line plus a terminator in one O_APPEND write loop,
    creating [path] if needed. If the file ends in a torn line (no
    final newline), a newline is written first, so the new lines each
    start on their own line. No fsync. Takes no lock: writers that
    share [path] with other processes call it inside {!with_lock}. *)

val append_line : path:string -> string -> unit
(** [append_lines ~path [line]] inside [with_lock ~path]. *)
