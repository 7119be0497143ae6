(** Weighted speedup and fairness (Snavely & Tullsen's multithreading
    metrics), which the paper does not report but which sharpen its IPC
    comparison: raw IPC can be inflated by favouring high-ILP threads.

    For a mix under scheme S: each thread's multithreaded IPC is compared
    with its IPC running alone on the same machine.
    - weighted speedup = sum over threads of IPC_mt / IPC_alone
      (4.0 would mean four threads each running at full solo speed);
    - fairness = min over threads of relative progress divided by max
      (1.0 = perfectly fair). *)

type row = {
  scheme : string;
  weighted_speedup : float;
  fairness : float;
  ipc : float;
}

val run : (?mix:string -> ?schemes:string list -> unit -> row list) Sweep.study
(** Defaults: mix LLHH; schemes 1S, 3CCC, 2SC3, 3SSS. *)

val render : string -> row list -> string
