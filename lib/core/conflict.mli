(** Resource-conflict checks — the two merge granularities of the paper.

    CSMT checks at cluster level: two packets may merge only when they use
    disjoint clusters (§2.1). SMT checks at operation level: packets may
    share a cluster as long as the combined operations still satisfy the
    cluster's slot constraints (fixed slots for memory/multiply/branch,
    free slots for ALU ops).

    The [Fixed_slots] routing mode is an ablation: it removes the SMT
    routing block, pinning each operation to the slot it occupies in its
    own thread's instruction, so operation-level merging succeeds only
    when pinned slots happen not to collide. It quantifies how much of
    SMT's advantage the routing hardware buys.

    All checks run on the packets' precomputed signatures (cluster masks,
    packed class counts, pinned-slot masks) — pure integer arithmetic,
    no list traversal, no routing. The historical list-walking
    implementations live on in {!Reference} as the property-test
    oracle. *)

type routing_mode = Flexible | Fixed_slots

type failure =
  | Cluster_conflict
      (** The packets want the same resource: overlapping cluster masks
          (CSMT) or colliding pinned slots (fixed-slot SMT). *)
  | Slot_capacity
      (** The combined operations exceed a cluster's slot constraints
          (SMT). *)

val csmt_compatible : Packet.t -> Packet.t -> bool
(** Cluster-usage masks are disjoint. *)

val smt_compatible : Vliw_isa.Machine.t -> Packet.t -> Packet.t -> bool
(** The union satisfies every cluster's slot constraints (with full
    routing flexibility). *)

val smt_compatible_fixed : Vliw_isa.Machine.t -> Packet.t -> Packet.t -> bool
(** Operation-level check without a routing block. Strictly stronger
    than {!smt_compatible}. *)

(** The pre-signature list-walking implementations, kept as the oracle
    for the batched ≡ reference property tests. [thread_slot_mask]
    re-routes one thread's operations per call — the cost the signature
    layer removes from the per-cycle path. *)
module Reference : sig
  val smt_compatible : Vliw_isa.Machine.t -> Packet.t -> Packet.t -> bool

  val check :
    Vliw_isa.Machine.t ->
    ?routing:routing_mode ->
    Scheme_kind.t ->
    Packet.t ->
    Packet.t ->
    failure option
end
