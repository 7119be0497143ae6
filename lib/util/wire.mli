(** The one socket layer under every NDJSON peer: the [serve] daemon,
    the [dist] coordinator, the worker, and the CLI clients.

    It owns the Unix plumbing those loops used to copy: listener setup
    (with a live-socket check), connect, whole-line writes, per-peer
    read buffers feeding an {!Ndjson.reader}, and the [select] step. It
    is also the one place where a socket error is classified: an
    interrupted read is no input, a reset is end of stream, and a write
    retries on [EINTR] and raises anything else. *)

type endpoint =
  | Socket of string  (** A Unix-domain socket path. *)
  | Tcp of int  (** A port on the loopback interface. *)

val endpoints : socket:string option -> tcp:int option -> endpoint list
(** The configured endpoints, the socket first. *)

val endpoint_name : endpoint -> string
(** The path, or ["127.0.0.1:PORT"]. *)

val listen : endpoint -> Unix.file_descr
(** Bind and listen (backlog 16). A Unix path's missing parent
    directory is created. An existing socket file is probed with a
    [connect]: when it is refused the socket is stale and is unlinked;
    when it connects, a live daemon owns the path and [listen] raises
    [Unix.Unix_error (EADDRINUSE, "bind", path)]. A file that is not a
    socket is never unlinked (the bind then fails). A TCP listener
    sets [SO_REUSEADDR]. *)

val close_listener : endpoint -> Unix.file_descr -> unit
(** Close a listener from {!listen} and unlink its socket path. Errors
    are ignored. *)

val connect : endpoint -> Unix.file_descr
(** A connected stream socket. Raises [Unix.Unix_error] (the socket is
    closed first). *)

val ignore_sigpipe : unit -> unit
(** Ignore [SIGPIPE] process-wide, so a write to a closed peer raises
    [EPIPE] instead of killing the process. The daemon, coordinator
    and worker loops call it before their first write. *)

val write_line : Unix.file_descr -> Json.t -> unit
(** Write the document as one NDJSON line ({!Ndjson.line}), looping
    over partial writes and retrying on [EINTR]. Any other error is
    raised as [Unix.Unix_error]: [EPIPE] (after {!ignore_sigpipe}) or
    [ECONNRESET] when the peer is gone. *)

type conn
(** The read side of one peer: its descriptor, its {!Ndjson.reader}
    and one read buffer allocated with it. *)

val conn : ?max_line_bytes:int -> Unix.file_descr -> conn
(** [max_line_bytes] as in {!Ndjson.reader}. *)

val fd : conn -> Unix.file_descr

val accept : ?max_line_bytes:int -> Unix.file_descr -> conn option
(** Accept one peer on a listener; [None] when the accept fails (the
    peer went away before it was taken). *)

type input =
  | Lines of (Json.t, Ndjson.error) result list
      (** The lines this read completed, in order; [[]] when the read
          was interrupted or completed no line. *)
  | Eof of Ndjson.error option
      (** Orderly end of stream; [Some Truncated] when it cut a line. *)
  | Reset  (** The peer reset the connection ([ECONNRESET]/[EPIPE]). *)

val read : conn -> input
(** One [read] into the peer's buffer, fed through its reader. Blocks
    unless the descriptor is ready. *)

type 'a ready =
  | Accept of Unix.file_descr  (** This listener has a peer waiting. *)
  | Readable of 'a  (** This peer has bytes (or EOF) to read. *)

val select :
  listeners:Unix.file_descr list ->
  timeout:float ->
  (conn * 'a) list ->
  'a ready list
(** Wait up to [timeout] seconds for a listener or peer to become
    ready. Ready listeners come first, then ready peers in list order.
    An interrupted wait ([EINTR]) is an empty list. *)
