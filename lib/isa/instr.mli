(** VLIW instructions.

    An instruction is one "very long word": for each cluster, the (possibly
    empty) list of operations the compiler scheduled there for the same
    cycle. Instructions are the unit of merging — the paper's VLIW
    semantics forbid issuing only part of an instruction. *)

type signature = {
  sg_mask : int;  (** Bitmask of occupied clusters. *)
  sg_counts : int array;
      (** Per-cluster packed class counts (see {!pack_counts}); [0] for
          empty clusters. *)
  sg_pins : int array;
      (** Per-cluster fixed-slot pinned masks: the slots this
          instruction's operations claim when laid out in isolation
          (the greedy fixed-slot layout of the routing block); [0] for
          empty clusters, [-1] when the cluster's operations cannot be
          placed. *)
  sg_ops : int;  (** Total operation count. *)
  sg_mem : int;  (** Loads and stores: the sum of the packed mem fields. *)
  sg_branch : bool;  (** Whether any cluster holds a branch. *)
}
(** The merge engine's precomputed, immutable view of an instruction:
    everything the per-cycle conflict checks need, as integers. *)

type t = {
  ops : Op.t list array;  (** Per-cluster operations; length = clusters. *)
  addr : int;  (** Static byte address, used for ICache lookups. *)
  mutable sg : (Machine.t * signature) option;
      (** Signature cache, filled by {!signature}. Treat as private. *)
}

val make : clusters:int -> addr:int -> t
(** Empty instruction (explicit NOP in every slot). *)

val of_cluster_ops : addr:int -> Op.t list array -> t

val cluster_mask : t -> int
(** Bitmask of clusters holding at least one operation. *)

val op_count : t -> int
(** Total operations (issue-slot demand). *)

val is_empty : t -> bool

val has_branch : t -> bool
(** Walks the operation lists; the simulator reads [sg_branch]. *)

val mem_ops : t -> Op.t list
(** All loads and stores, in cluster order. *)

val fits_cluster : Machine.t -> Op.t list -> bool
(** Whether an operation multiset satisfies one cluster's slot constraints:
    mem ops <= LSUs, muls <= multipliers, branches <= branch slots, total
    <= issue width. *)

val well_formed : Machine.t -> t -> bool
(** Every cluster of the instruction individually satisfies
    {!fits_cluster} and the cluster count matches the machine. *)

(** {1 Signatures}

    Signatures let the merge engine's conflict checks run as pure
    integer/bitmask arithmetic: class counts are packed into one word
    per cluster ([mem | mul<<15 | branch<<30 | total<<45]) so two
    clusters' demands combine with [+], and fixed-slot pinned masks are
    computed once instead of re-routing per merge check. *)

val pack_counts : Op.t list -> int
(** Packed class-count word of an operation list. *)

val packed_fits : Machine.t -> int -> bool
(** Whether a packed class-count word satisfies one cluster's slot
    constraints — the packed equivalent of {!fits_cluster}, also valid
    for the sum of several packed words. *)

val fits_bias : Machine.t -> int
(** Per-machine bias of the guard-bit capacity check: a packed word
    [w] whose fields are all below [2^14] satisfies {!packed_fits}
    iff [(w + fits_bias m) land fits_guard = 0]. *)

val fits_guard : int
(** Bit 14 of every packed field. *)

val signature : Machine.t -> t -> signature
(** The instruction's signature for the given machine, memoized on the
    instruction. The compiler precomputes this at program-generation
    time so simulation never recomputes it. *)

val pp : Machine.t -> Format.formatter -> t -> unit
(** Renders like the paper's Figure 1: one cell per issue slot, "-" for
    empty slots, clusters separated by "|". *)
