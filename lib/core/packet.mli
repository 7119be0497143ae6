(** Execution packets: thread-tagged merge candidates.

    A packet is either a single thread's VLIW instruction or the result of
    merging several; it remembers which thread contributed each operation
    so the routing stage can steer operations, and so tests can check the
    CSMT invariant (one thread per cluster). Packets are the atomic unit
    of merging: they combine in their entirety or not at all.

    Alongside the tagged operation lists, a packet carries the combined
    {e signature} of its contributors (see {!Vliw_isa.Instr.signature}):
    per-cluster packed class counts and fixed-slot pinned masks. The
    conflict checks run entirely on these integers; the operation lists
    exist for routing and display. *)

type entry = { thread : int; op : Vliw_isa.Op.t }

type t = {
  clusters : entry list array;  (** Per-cluster tagged operations. *)
  threads : int;  (** Bitmask of contributing hardware threads. *)
  mask : int;  (** Bitmask of occupied clusters. *)
  counts : int array;
      (** Per-cluster packed class counts; sums of the contributors'
          {!Vliw_isa.Instr.pack_counts} words. *)
  pins : int array;
      (** Per-cluster union of the contributors' fixed-slot pinned
          masks; [-1] when any contributor's operations cannot be
          placed. *)
  nops : int;  (** Total operation count. *)
}

val of_instr : Vliw_isa.Machine.t -> thread:int -> Vliw_isa.Instr.t -> t
(** Wrap one thread's instruction, adopting its precomputed signature. *)

val union : t -> t -> t
(** Structural union; callers must have established compatibility first.
    Signature fields combine pointwise (counts add, pinned masks union
    with [-1] absorbing). *)

val op_count : t -> int
(** O(1). *)

val thread_list : t -> int list
(** Contributing threads, ascending. *)

val bits_to_list : int -> int list
(** Set bit indices of a thread bitmask, ascending — the decoding
    behind {!thread_list}, shared with the batched kernel's outcome
    masks. *)

val cluster_threads : t -> int -> int list
(** Distinct threads with operations on the given cluster, ascending. *)

val ops_in : t -> int -> Vliw_isa.Op.t list

val is_empty : t -> bool

val pp : Vliw_isa.Machine.t -> Format.formatter -> t -> unit
