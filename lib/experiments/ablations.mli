(** Ablation studies for the design choices called out in DESIGN.md §6.

    Variants, each against the paper-faithful baseline:
    - no-rotation: thread 0 permanently owns the highest-priority merge
      port (fairness off);
    - non-blocking D$: data-cache misses don't stall the thread (ideal
      memory-level parallelism);
    - fixed-slot SMT: the routing block is removed, so operation-level
      merging only succeeds when pinned slots don't collide. *)

type variant = {
  label : string;
  rotate_priority : bool;
  stall_on_dmiss : bool;
  routing : Vliw_merge.Conflict.routing_mode;
}

type row = {
  variant : string;
  ipc_by_scheme : (string * float) list;  (** Average IPC over the mixes. *)
}

val run : (?schemes:string list -> ?mixes:string list -> unit -> row list) Sweep.study
(** Defaults: schemes 3CCC, 2SC3, 3SSS; mixes LLLL, LLHH, HHHH. *)

val render : row list -> string
