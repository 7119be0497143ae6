(** The multithreaded clustered-VLIW core: the per-cycle pipeline loop.

    Each cycle: every resident, non-stalled thread offers its next VLIW
    instruction (fetching through the ICache the first time); the merge
    engine evaluates the scheme and selects the packet to issue; issued
    threads retire their instruction — data accesses go through the
    DCache (a miss blocks the thread for the miss penalty), a taken
    block-ending branch redirects the thread and pays the squash penalty.
    Thread-to-port priority rotates round-robin when configured. *)

type t

val create :
  ?telemetry:Vliw_telemetry.Sink.t ->
  ?counters:Vliw_telemetry.Counters.t ->
  Config.t ->
  Vliw_mem.Mem_system.t ->
  t
(** [telemetry] (default {!Vliw_telemetry.Sink.null}) is a recording
    sink: it receives typed pipeline events, which are built only when
    it is enabled. When [counters] is given, the core bumps that
    registry's event slots ({!Vliw_telemetry.Counters.events}) directly
    and books an exact-sum stall attribution
    ({!Vliw_telemetry.Report}); neither needs a sink nor allocates per
    cycle. Telemetry is observation-only: simulation results are
    bit-identical with any sink and with or without counters. *)

val set_sink : t -> Vliw_telemetry.Sink.t -> unit
(** Replace the recording sink installed at creation. Event counting
    and attribution into the [counters] registry, if any, are
    unaffected. Lets a caller warm up silently and record afterwards. *)

val install : t -> Thread_state.t option array -> unit
(** Set the threads resident on the hardware contexts; the array length
    must equal {!Config.contexts}. *)

val step : t -> unit
(** Advance one cycle. One loop for every policy and observation
    setting: a fetch pass fills the live-port mask (and, under
    {!Policy.Merged}, the installed scheme's {!Vliw_merge.Engine.Batch});
    the policy turns it into issued and reject bitmasks; the issued
    threads retire; only then, when a sink or counters are attached, an
    observation pass counts and records events and books attribution
    from those masks. Allocation-free once warm, with or without
    counters; only a recording sink allocates (the events it gets). *)

type cycle_record = {
  cycle : int;
  candidates : (int * Vliw_merge.Packet.t) list;
      (** Threads that offered an instruction this cycle. *)
  issued : int list;
  packet : Vliw_merge.Packet.t option;  (** The merged execution packet. *)
}

val step_record : t -> cycle_record
(** Like {!step} but reports what happened — used by the trace
    inspector. *)

val cycle : t -> int

val ops_issued : t -> int

val instrs_issued : t -> int

val issue_hist : t -> int array

val vertical_waste_cycles : t -> int

val switch_scheme : t -> ?name:string -> penalty:int -> Vliw_merge.Scheme.t -> unit
(** Reconfigure the merge network to a different scheme, charging
    [penalty] cycles of issue stall (the same bubble mechanism as BMT
    context switches; see {!Vliw_cost.Scheme_cost.switch_penalty} for
    the pricing). Designed to be called at a timeslice boundary: no
    state is in flight across cycles, candidate packets are simply
    re-offered once the bubble drains, and priority rotation re-seeds
    deterministically from the cycle counter. A structurally equal
    scheme is a no-op (no penalty, no switch counted).
    @raise Invalid_argument if the policy is not {!Policy.Merged}, the
    scheme's thread count differs, or [penalty < 0]. *)

val reject_counts : t -> int * int
(** Cumulative merge rejects by cause, [(conflict, capacity)]. Counted
    unconditionally (no telemetry needed): the adaptive controller's
    cheapest observation signal. *)

val metrics :
  t -> all_threads:Thread_state.t array -> Metrics.t
(** Snapshot including memory-system statistics and per-thread
    counters. Also flushes the reconfiguration statistics into the
    [counters] registry given at {!create} (idempotently), under
    [sim.scheme_switches] and [sim.switch_stall_cycles]. *)
