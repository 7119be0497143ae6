(** Minimal dependency-free JSON: value type, compact serializer,
    recursive-descent parser.

    Numbers are [float]s; producers that need 64-bit round-trips (run
    seeds, IEEE-754 IPC bit images) store them as hex {e strings}. The
    serializer emits the shortest decimal that parses back to the same
    bits; non-finite numbers serialize as [null] (JSON has no literals
    for them). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization. *)

val number_string : float -> string
(** Shortest decimal that parses back to the same bits: integers print
    bare ("3"), other finite values via %.12g or %.17g as needed.
    Behaviour on non-finite input is the caller's concern (the
    serializer maps those to [null] before calling this). *)

val parse : string -> (t, string) result
(** Parse one complete JSON document; trailing non-whitespace is an
    error. Objects preserve field order; duplicate keys are kept (the
    {!member} accessor returns the first). *)

(** {1 Accessors} — shape-tolerant lookups for ledger readers: each
    returns [None] on a type mismatch rather than raising. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
val to_string_opt : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
