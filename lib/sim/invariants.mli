(** Post-run self-checks: conservation laws every simulation result must
    satisfy, plus a sampled batched-kernel-vs-oracle probe.

    The laws re-derived by {!check_metrics} from a {!Metrics.t} record:

    - total ops = Σ per-thread ops retired; same for instructions;
    - the issue histogram partitions the cycle count, and its weighted
      sum equals the instructions issued;
    - zero-issue cycles ≤ vertical waste cycles ≤ cycles (nop-only
      packets issue an instruction but no operation);
    - horizontal and vertical waste fractions lie in [0, 1];
    - ops issued ≤ slots offered, and slots offered is a whole number of
      issue widths;
    - cache misses never exceed accesses.

    A tripped check means the simulator's bookkeeping is broken — these
    cannot fail for any workload if the core is correct.

    Enforcement: with {!set_enforced}[ true] (the test suite does this;
    the env var [VLIWSIM_INVARIANTS=1] sets the initial state),
    {!Multitask.run_programs} checks every metrics record it returns.
    `vliwsim check` runs the full battery over the experiment
    registry. *)

exception Violation of string
(** Raised by every check on failure; the message lists each violated
    law. *)

val enforced : unit -> bool
val set_enforced : bool -> unit
(** Global switch read by {!Multitask.run_programs}. Initial value comes
    from [VLIWSIM_INVARIANTS] ("1"/"true"/"yes"/"on" enable). Stored in
    an [Atomic]: sweeps check from worker domains. *)

val violations : Metrics.t -> string list
(** All violated laws of a record, empty when consistent. *)

val check_metrics : Metrics.t -> unit
(** @raise Violation when {!violations} is non-empty. *)

val check_attribution : Vliw_telemetry.Counters.snapshot -> unit
(** Exact-sum stall attribution: wasted slots
    ([slots.offered - slots.filled]) must equal the sum of the
    [waste.*] categories, and switch bubbles must be conserved. When the
    [issue.slots_filled] histogram is present and no cell was restored
    from a checkpoint ([sweep.resumed_cells] = 0), the event slots must
    also agree with attribution: the histogram's sum equals
    [slots.filled]; its total equals [events.issue], which equals the
    [issue.threads_merged] total; and [events.fetch_stall] equals
    [events.cache_miss.l1i]. No-op on snapshots without attribution
    counters (no ["slots.offered"]).
    @raise Violation on a broken law. *)

val check_select :
  ?machine:Vliw_isa.Machine.t ->
  ?routing:Vliw_merge.Conflict.routing_mode ->
  ?seed:int64 ->
  ?samples:int ->
  Vliw_merge.Scheme.t ->
  unit
(** Sampled probe that {!Vliw_merge.Engine.select_batched} agrees
    bit-for-bit with
    {!Vliw_merge.Engine.select_reference} on random availability vectors
    for [scheme] (default: 64 samples on the default machine, flexible
    routing). The exhaustive property lives in the QCheck suite; this
    probe is cheap enough for `vliwsim check` and CI smoke runs.
    @raise Violation on the first disagreement, with both selections. *)
