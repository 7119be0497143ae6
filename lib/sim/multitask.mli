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

val quick_schedule : schedule
(** Very small runs for unit tests and smoke benches. *)

val compile :
  ?mode:Vliw_compiler.Program.mode ->
  ?stream:[ `Mix | `Doubled ] ->
  ?generate:
    (seed:int64 ->
    ?mode:Vliw_compiler.Program.mode ->
    Vliw_isa.Machine.t ->
    Vliw_compiler.Profile.t ->
    Vliw_compiler.Program.t) ->
  seed:int64 ->
  Vliw_isa.Machine.t ->
  Vliw_compiler.Profile.t list ->
  Vliw_compiler.Program.t list
(** One program per profile for [machine] in [mode] (default block
    scheduling), seeded in order from [seed] on the 4-thread workloads'
    stream ([`Mix], default) or the doubled 8-thread mixes' ([`Doubled]).
    [generate] (default {!Vliw_compiler.Program.generate}) compiles each
    program from its derived seed; a memo plugs in here. *)

val run :
  Config.t ->
  ?perfect_mem:bool ->
  ?seed:int64 ->
  ?schedule:schedule ->
  ?mode:Vliw_compiler.Program.mode ->
  ?telemetry:Vliw_telemetry.Sink.t ->
  ?counters:Vliw_telemetry.Counters.t ->
  ?controller:Controller.t ->
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

    Each thread's address and branch draws come from generators seeded
    off [seed] alone, so runs that differ only in scheme see identical
    workload draws. [schedule] defaults to the scaled-down harness
    parameters (50k-cycle timeslice, 400k instructions, 1.5M-cycle
    budget); the paper's own (1M-cycle timeslice, 100M instructions)
    are far too expensive to sweep. *)

val run_programs :
  Config.t ->
  ?perfect_mem:bool ->
  ?seed:int64 ->
  ?schedule:schedule ->
  ?telemetry:Vliw_telemetry.Sink.t ->
  ?counters:Vliw_telemetry.Counters.t ->
  ?controller:Controller.t ->
  Vliw_compiler.Program.t list ->
  Metrics.t
(** Like {!run} but with pre-generated programs, so the (deterministic but
    not free) compilation step can be shared across scheme runs. *)
