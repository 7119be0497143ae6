(** The merge network as a swappable, first-class runtime object.

    A handle bundles the pieces the per-cycle issue stage reads — the
    scheme tree, the routing mode, the priority-rotation rule and the
    scheme's batched evaluator ({!Engine.Batch}) — and supports
    mid-simulation reconfiguration: {!reconfigure} swaps the scheme
    while pooling one evaluator per scheme (keyed by scheme structure),
    so revisiting a scheme reuses its evaluator instead of compiling a
    new one.

    Rotation state is derived from the cycle counter ({!rotation}), so a
    swap re-seeds priority rotation deterministically. Like the
    evaluators it owns, a network is single-domain: create one per
    simulator core. *)

type t

val create :
  ?name:string ->
  Vliw_isa.Machine.t ->
  routing:Conflict.routing_mode ->
  Scheme.t ->
  t
(** [name] is the display name used in statistics and telemetry;
    defaults to the catalog name when the scheme matches a catalog
    entry, else {!Scheme.to_string}.
    @raise Invalid_argument on an invalid scheme. *)

val scheme_name : t -> string
(** Display name of the scheme currently installed. *)

val same_scheme : t -> Scheme.t -> bool
(** Whether the installed scheme is structurally equal to the given
    one. *)

val reconfigure : t -> ?name:string -> Scheme.t -> unit
(** Install a different scheme. A structurally equal scheme is a no-op;
    otherwise the scheme's pooled evaluator is (re)installed — created
    on first use, reused on a revisit.
    @raise Invalid_argument if the scheme is invalid or its thread
    count differs from the network's port count. *)

val rotation : t -> rotate:bool -> cycle:int -> int
(** The priority rotation for a cycle: [cycle] modulo the port count when
    rotation is enabled, [0] otherwise. Pure in the cycle counter, so
    reconfiguration re-seeds it deterministically. *)

val batch : t -> Engine.Batch.t
(** The currently installed scheme's batched evaluator — the merge
    kernel every simulated cycle runs. *)
