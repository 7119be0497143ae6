(** Table 1: single-thread IPC of every benchmark, with real (IPCr) and
    perfect (IPCp) memory, against the paper's reported values. *)

type row = {
  profile : Vliw_compiler.Profile.t;
  ipc_real : float;
  ipc_perfect : float;
}

val run : (unit -> row list) Sweep.study

val render : row list -> string

val max_rel_error : row list -> float
(** Worst |simulated - paper| / paper over both columns (used by the
    calibration test). *)

val csv_rows : row list -> string list * string list list
(** CSV header and rows. *)
