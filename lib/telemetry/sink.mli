(** Event sinks: where instrumented code sends the events it records
    (a {!Recorder}, a Chrome trace, a test's probe). Sinks are for
    recording only: the simulator counts its events in
    {!Counters.events} slots, without building an event or going
    through a sink.

    The disabled path must cost nothing: {!null} is an immediate
    constructor, so both {!enabled} and {!emit} reduce to a single tag
    check and no allocation. Emit sites guard event construction with
    [if Sink.enabled sink then Sink.emit sink ...] so a disabled run
    never even builds the event value — this is what the telemetry
    determinism property relies on being free. *)

type t

val null : t
(** The no-op sink; {!emit} on it is one tag check. *)

val enabled : t -> bool
(** [false] exactly for {!null}. Check this before constructing an
    event to keep the disabled path allocation-free. *)

val emit : t -> cycle:int -> Event.t -> unit

val fn : (cycle:int -> Event.t -> unit) -> t

