(** The multitasking environment of §5.1.

    The processor exposes its hardware thread contexts as virtual CPUs;
    the OS schedules as many software threads as there are virtual CPUs
    for a fixed timeslice, then context-switches, picking replacement
    threads at random from the workload. Runs end when one thread
    retires the target instruction count or the cycle budget expires. *)

type schedule = {
  timeslice : int;  (** Cycles between context switches (paper: 1M). *)
  target_instrs : int;
      (** Stop once any thread retires this many VLIW instructions
          (paper: 100M). *)
  max_cycles : int;  (** Hard cycle budget (safety stop). *)
}

val paper_schedule : schedule
(** The paper's parameters (1M-cycle timeslice, 100M instructions) —
    expensive; provided for completeness. *)

val default_schedule : schedule
(** Scaled-down parameters used by the experiment harness. *)

val quick_schedule : schedule
(** Very small runs for unit tests and smoke benches. *)

val compile :
  ?mode:Vliw_compiler.Program.mode ->
  ?stream:[ `Mix | `Doubled ] ->
  seed:int64 ->
  Vliw_isa.Machine.t ->
  Vliw_compiler.Profile.t list ->
  Vliw_compiler.Program.t list
(** One program per profile for [machine] in [mode] (default block
    scheduling), seeded in order from [seed] on the 4-thread workloads'
    stream ([`Mix], default) or the doubled 8-thread mixes' ([`Doubled]). *)

val run :
  Config.t ->
  ?perfect_mem:bool ->
  ?seed:int64 ->
  ?schedule:schedule ->
  ?mode:Vliw_compiler.Program.mode ->
  ?telemetry:Vliw_telemetry.Sink.t ->
  ?counters:Vliw_telemetry.Counters.t ->
  ?controller:Controller.t ->
  ?tapes:Tape.set ->
  Vliw_compiler.Profile.t list ->
  Metrics.t
(** [run config profiles] builds one program and one thread per profile
    (deterministically from [seed], by {!compile}) and simulates the multitasking
    environment. Fewer profiles than contexts leaves contexts idle;
    more profiles multitask over the timeslices. [mode] selects the
    compiler's scheduling mode (default block scheduling). [telemetry]
    and [counters] are passed to {!Core.create}; both are
    observation-only and do not perturb results.

    [controller] enables adaptive scheme selection: at every timeslice
    boundary it is consulted ({!Controller.decide}) with the finished
    slice's observation deltas, and the core's merge network is
    switched — {!Core.switch_scheme}, penalty charged — whenever it
    answers with a different scheme. Controllers are stateful: pass a
    fresh one per simulation. A {!Controller.Static} controller never
    switches, so results are bit-identical to omitting [controller]
    (property-tested).

    [tapes] routes every thread's stochastic draws through a shared
    {!Tape.set} (attached after thread creation, so seed derivation is
    unchanged): runs that differ only in scheme replay identical
    workload draws and share the generation work. A taped run is
    bit-identical to an untaped one (property-tested). *)

val run_programs :
  Config.t ->
  ?perfect_mem:bool ->
  ?seed:int64 ->
  ?schedule:schedule ->
  ?telemetry:Vliw_telemetry.Sink.t ->
  ?counters:Vliw_telemetry.Counters.t ->
  ?controller:Controller.t ->
  ?tapes:Tape.set ->
  Vliw_compiler.Program.t list ->
  Metrics.t
(** Like {!run} but with pre-generated programs, so the (deterministic but
    not free) compilation step can be shared across scheme runs. *)
