(** Leveled, structured logging for the long-running daemons.

    A record is a level, a component tag, a human message, and typed
    [key=value] fields, stamped with a monotonic timestamp (seconds
    since the logger was created, so two daemons' logs don't depend on
    wall-clock agreement to be readable). Two renderings share one call
    site: [Human] for terminals, [Json] (NDJSON, via {!Json}) for
    machine ingestion — the [--log-format json] mode of [vliwsim
    serve]/[dist]/[worker].

    Loggers are immutable values; the sink is any [string -> unit]
    (lines arrive without a trailing newline). The clock is injectable
    so tests can pin timestamps. *)

type level = Debug | Info | Warn | Error

val level_of_string : string -> (level, string) result
(** Case-insensitive; accepts ["warning"] for [Warn]. *)

type format = Human | Json

val format_of_string : string -> (format, string) result

(** One field value: string, int, float, or bool. 64-bit ids should be
    passed as hex strings ([S]) per the repo-wide wire convention. *)
type value = S of string | I of int | F of float | B of bool

type field = string * value

type t

val make :
  ?level:level ->
  ?format:format ->
  ?clock:(unit -> float) ->
  component:string ->
  (string -> unit) ->
  t
(** [make ~component emit] builds a logger whose records at or above
    [level] (default [Info]) are rendered in [format] (default [Human])
    and handed to [emit] one line at a time. [clock] (default
    [Unix.gettimeofday]) is sampled once at creation to anchor the
    monotonic timestamp. *)

val null : t
(** Discards everything. The default for library [config] records. *)

val with_component : t -> string -> t
(** Same sink, level, and time origin under a different component tag. *)

val enabled : t -> level -> bool

val debug : t -> string -> field list -> unit
val info : t -> string -> field list -> unit
val warn : t -> string -> field list -> unit
val error : t -> string -> field list -> unit

val render : t -> ts:float -> level -> string -> field list -> string
(** The line [msg] would emit at timestamp [ts], exposed for tests. *)
