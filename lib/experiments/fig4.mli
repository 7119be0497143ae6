(** Figure 4: SMT performance at 1, 2 and 4 hardware threads (average IPC
    over the nine workload mixes). The paper's headline: the 4-thread SMT
    outperforms the 2-thread SMT by 61%. *)

type data = {
  single : float;
  two_thread : float;  (** Scheme 1S. *)
  four_thread : float;  (** Scheme 3SSS. *)
}

val run : (unit -> data) Sweep.study

val render : data -> string
