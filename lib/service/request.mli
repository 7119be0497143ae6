(** The sweep service's typed request protocol.

    One request per NDJSON line, dispatched on an ["op"] field. The
    codec here is structural only — field presence and types. Semantic
    validation (do the mix/scheme/scale names exist, is the client
    within its limits) is the server's job, so a request that
    round-trips through {!to_json}/{!of_json} is not necessarily
    servable. *)

(** Trace context a client attaches to a submit. [trace_id] names the
    trace; [parent_span] is the client's root span, which the server's
    spans hang under. On the wire both are optional hex-string fields
    (["trace"], ["span"]): absent means no-trace, so pre-tracing peers
    keep parsing. *)
type trace = { trace_id : int64; parent_span : int64 option }

type submit = {
  tag : string;  (** Client-chosen label echoed in every reply. *)
  scale : string;  (** "quick" | "default" | "full" (validated server-side). *)
  seed : int64;  (** Master sweep seed; on the wire as a hex string. *)
  priority : int;  (** Higher runs sooner; ties break FIFO. *)
  mixes : string list;  (** [[]] = every Table 2 mix. *)
  schemes : string list;  (** [[]] = every catalog scheme except ST. *)
  trace : trace option;  (** [None] = untraced (the wire default). *)
}

type t =
  | Submit of submit
  | Ping  (** Liveness probe; answered with a [pong] reply. *)
  | Stats  (** Queue depth, cache size and service counters. *)
  | Metrics  (** OpenMetrics exposition of the service counters. *)
  | Shutdown  (** Graceful drain: finish queued jobs, then exit. *)

val to_json : t -> Vliw_util.Json.t

val of_json : Vliw_util.Json.t -> (t, string) result
(** Structural decode: unknown or missing ["op"] values, non-string
    names and unparseable seeds are errors; absent submit fields take
    the defaults of [vliwsim exp fig10]: the full grid ([mixes = []],
    [schemes = []]) at default scale with the default sweep seed,
    priority 0. [of_json (to_json r) = Ok r] for
    every request (QCheck-property-tested). *)

val of_line : string -> (t, string) result
(** Parse one NDJSON line: JSON parse errors become [Error]. *)
