(** The two merge-control granularities. *)

type t = Smt | Csmt

val of_char : char -> t option
