(** Sensitivity sweeps: how robust are the paper's conclusions to the
    fixed parameters of its setup (§5.1)?

    Each sweep varies one machine or OS parameter and reports the IPC of
    the three pivotal schemes (4-thread CSMT, the mixed 2SC3, 4-thread
    SMT) plus the 2SC3-vs-CSMT advantage, on a representative mixed
    workload ([mix], default LLHH). Each sweep is one {!Sweep.run}: a
    row per parameter value (its machine and schedule), a column per
    scheme. *)

type point = {
  param : string;  (** Rendered parameter value, e.g. "40 cycles". *)
  csmt : float;
  mixed : float;
  smt : float;
}

type sweep = { title : string; points : point list }

val miss_penalty : (?mix:string -> unit -> sweep) Sweep.study
(** Miss penalty 10 / 20 (paper) / 40 / 80 cycles. *)

val branch_penalty : (?mix:string -> unit -> sweep) Sweep.study
(** Taken-branch penalty 0 / 2 (paper) / 4 / 8 cycles. *)

val all : (?mix:string -> unit -> sweep list) Sweep.study

val render : sweep -> string

val render_all : sweep list -> string
