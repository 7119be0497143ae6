(** Multithreading-technique baselines (§1 of the paper).

    The paper motivates merging against the classic alternatives: block
    multithreading (BMT) and interleaved multithreading (IMT) remove only
    vertical waste; simultaneous merging also attacks horizontal waste.
    This experiment quantifies that ladder on the Table 2 mixes:
    single-thread, IMT, BMT, 4-thread CSMT, 2SC3 and 4-thread SMT on the
    same 4-context machine. *)

type row = {
  label : string;
  avg_ipc : float;
  avg_vertical_waste : float;  (** Fraction of cycles issuing nothing. *)
}

val run : (?mixes:string list -> unit -> row list) Sweep.study
(** Default: all nine mixes. *)

val render : row list -> string
