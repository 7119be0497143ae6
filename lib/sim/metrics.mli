(** Simulation counters and derived figures of merit. *)

type per_thread = {
  name : string;
  ops : int;
  instrs : int;  (** VLIW instructions retired. *)
}

type t = {
  cycles : int;
  ops : int;  (** Operations issued (the paper's IPC counts these). *)
  instrs : int;  (** VLIW instructions issued across all threads. *)
  issue_hist : int array;
      (** [issue_hist.(k)] = cycles in which exactly [k] threads issued. *)
  vertical_waste_cycles : int;  (** Cycles with no operation issued. *)
  slots_offered : int;  (** cycles x total issue width. *)
  icache_accesses : int;
  icache_misses : int;
  dcache_accesses : int;
  dcache_misses : int;
  per_thread : per_thread array;
}

val ipc : t -> float
(** Operations per cycle. *)

val horizontal_waste : t -> float
(** Fraction of issue slots left empty in cycles that issued at least one
    operation. *)

val vertical_waste : t -> float
(** Fraction of cycles that issued nothing. *)

val avg_threads_merged : t -> float
(** Mean number of threads issuing per non-empty cycle. *)

val pp : Format.formatter -> t -> unit
