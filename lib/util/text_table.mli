(** Plain-text table rendering for experiment reports.

    Produces aligned, pipe-separated tables similar to the rows the paper
    prints, suitable for terminals and for pasting into EXPERIMENTS.md. *)

type align = Left | Right | Center

val display_width : string -> int
(** Width of a string in terminal cells, approximated as its number of
    UTF-8 scalar values (so "µs" measures 2, not 3). Combining marks
    and double-width CJK are not special-cased. Equals [String.length]
    on pure ASCII. Column sizing and padding both use this, so cells
    containing multi-byte labels stay aligned. *)

type t

val create : header:string list -> t
(** New table with the given column headers. Column count is fixed by the
    header; rows with a different arity raise [Invalid_argument]. *)

val set_aligns : t -> align list -> unit
(** Per-column alignment (default: first column left, rest right). *)

val add_row : t -> string list -> unit

val add_sep : t -> unit
(** Horizontal separator row. *)

val add_float_row : t -> string -> float list -> unit
(** [add_float_row t label xs] adds [label] followed by [xs] printed with
    two decimals. *)

val render : t -> string
