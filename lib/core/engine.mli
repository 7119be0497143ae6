(** The merge engine: per-cycle thread selection and packet construction.

    Each cycle, every non-stalled thread offers its next VLIW instruction;
    the engine evaluates the scheme tree bottom-up and returns the merged
    execution packet together with the set of threads it issues.

    Semantics (DESIGN.md §4): a serial merge node folds over its inputs,
    skipping any input whose packet conflicts with the accumulated packet
    — exactly the cascading logic of the serial implementations in the
    paper's reference [7]. A parallel CSMT node selects the same set as
    the equivalent serial cascade (the paper states the implementations
    are functionally equivalent; they differ only in hardware cost).
    Stalled threads (input [None]) are transparent to the fold.

    Fairness: [rotation] remaps scheme input port [i] to hardware thread
    [(i + rotation) mod n]; the simulator advances it round-robin so no
    thread permanently owns the highest-priority port. *)

type reject = { thread : int; cause : Conflict.failure }
(** A hardware thread that offered a packet and was denied issue at some
    merge block, with the resource reason. Threads the policy simply
    never selects (IMT/BMT) are not engine rejects — the simulator
    attributes those to priority. *)

type selection = {
  packet : Packet.t option;  (** Merged packet, [None] when nothing issues. *)
  issued : int list;  (** Hardware thread ids issued this cycle, ascending. *)
  rejected : reject list;
      (** Candidates denied by a conflict/capacity check, thread-sorted.
          Each thread appears at most once: a packet is dropped at the
          first block that refuses it. *)
}

val select_reference :
  Vliw_isa.Machine.t ->
  ?routing:Conflict.routing_mode ->
  Scheme.t ->
  ?rotation:int ->
  Packet.t option array ->
  selection
(** [select_reference m scheme ~rotation avail] with [avail] indexed by
    hardware thread id; [avail] must have at least
    {!Scheme.n_threads}[ scheme] entries. [routing] (default [Flexible])
    selects the SMT conflict check variant. Evaluated by walking the
    scheme tree over packets with the pre-signature list-walking
    conflict checks ({!Conflict.Reference}): the oracle the batched
    kernel is property-tested against; not for the hot path. *)

(** Batched bit-parallel scheme evaluation.

    A compiled evaluator for one (machine, routing, scheme): candidates
    are packed into flat int lanes (one word-level signature lane per
    cluster) and the scheme tree is evaluated with word-parallel bitwise
    ops over them — no per-thread closures, no per-node option
    allocation. {!Batch.eval} allocates nothing, so the simulator's
    steady-state loop runs it every cycle and stays off the minor heap.
    Decisions agree bit-for-bit with {!select_reference}
    (property-tested), although the two walk different trees: a Batch
    evaluates {!Scheme.canonical}[ scheme], the oracle the literal
    tree, so the property also proves the flattening exact. A cycle
    with at most one live port skips the walk in closed form: the lone
    candidate issues whole, with no rejects. Single-domain: each
    simulator core owns its own. *)
module Batch : sig
  type t

  val create :
    Vliw_isa.Machine.t -> routing:Conflict.routing_mode -> Scheme.t -> t

  val clear : t -> unit
  (** Mark every port empty. *)

  val set_port : t -> int -> Vliw_isa.Instr.signature -> unit
  (** Load port [i] with hardware thread [i]'s candidate, straight from
      its precomputed signature — the simulator's positional path; no
      packet is built. *)

  val set_port_packet : t -> int -> Packet.t -> unit
  (** Load port [i] from a packet (which may carry any thread set) —
      the general/oracle entry point. *)

  val eval : t -> rotation:int -> unit
  (** Evaluate the scheme over the loaded ports, scheme input [i] reading
      port [(i + rotation) mod n]; [rotation] must already lie in
      [\[0, n)] ({!Merge_network.rotation} does). Allocation-free; the
      outcome is read back through the accessors below and stays valid
      until the next [eval].
      @raise Invalid_argument when [rotation] is out of range. *)

  val issued : t -> int
  (** Thread bitmask issued by the last {!eval}. *)

  val rejected_conflict : t -> int
  (** Threads denied by a cluster conflict, as a bitmask. *)

  val rejected_capacity : t -> int
  (** Threads denied by slot capacity, as a bitmask. *)

  val order : t -> int array
  (** Union-order buffer: ports accepted by the last {!eval}, in union
      order; only the first {!order_len} entries are meaningful. Shared
      scratch — do not mutate. *)

  val order_len : t -> int
end

val select_batched :
  Vliw_isa.Machine.t ->
  ?routing:Conflict.routing_mode ->
  Scheme.t ->
  ?rotation:int ->
  Packet.t option array ->
  selection
(** Same contract as {!select_reference}, evaluated through a throwaway
    {!Batch} (ports loaded with {!Batch.set_port_packet}, packet rebuilt
    by folding {!Packet.union} over the recorded union order). The
    test-facing entry point to the production kernel; the simulator
    keeps a persistent {!Batch} per scheme instead (see
    {!Merge_network}). *)
