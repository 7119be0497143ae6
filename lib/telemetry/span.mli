(** Cross-process tracing spans for the sweep service and the
    distributed fleet.

    A span is one timed slice of a request's life — queueing, planning,
    dispatch, a worker compiling a row or simulating a cell — linked to
    its parent by id inside a trace. Ids are drawn from a SplitMix64
    stream owned by the {!collector} (never from [Random] or the
    clock), and wall timestamps come from an injectable clock function,
    so span trees are deterministic under test. On the wire a span is
    an NDJSON object whose float fields are IEEE-754 bit images, the
    repo-wide exactness convention: worker child spans survive the
    coordinator merge bit-identical. *)

type kind =
  | Submit
  | Queue_wait
  | Schedule
  | Dispatch
  | Shard
  | Prepare_row
  | Simulate_cell
  | Retry
  | Ledger_append

val all_kinds : kind list

val kind_name : kind -> string

val kind_of_name : string -> kind option

type t = {
  trace : int64;  (** Trace id: one per traced request or sweep. *)
  id : int64;
  parent : int64 option;
  kind : kind;
  name : string;  (** Human payload, e.g. ["LLHH/C4"]. *)
  lane : string;  (** Display lane: ["server"], ["worker 0"], ... *)
  start_s : float;  (** Wall seconds from the collector's clock. *)
  dur_s : float;
}

val id_to_hex : int64 -> string
val id_of_hex : string -> (int64, string) result

(** {1 Collector} *)

type collector
(** A mutex-guarded span buffer plus the id stream and clock. One per
    daemon (or per traced client call). *)

val collector : ?clock:(unit -> float) -> seed:int64 -> unit -> collector
(** [clock] defaults to [Unix.gettimeofday]; tests inject a fake. *)

val now : collector -> float
(** The collector's clock, for bracketing work. *)

val fresh_id : collector -> int64
(** Next id from the SplitMix64 stream (also used for trace ids). *)

val add : collector -> t -> unit
(** Record a span built elsewhere (e.g. decoded off the wire). *)

val record :
  collector ->
  trace:int64 ->
  ?parent:int64 ->
  kind:kind ->
  name:string ->
  lane:string ->
  start_s:float ->
  dur_s:float ->
  unit ->
  t
(** Allocate an id, record, and return the finished span. *)

val spans : collector -> t list
(** Recorded spans in insertion order. *)

(** {1 Wire codec} *)

val to_json : t -> Vliw_util.Json.t

val of_json : Vliw_util.Json.t -> (t, string) result
(** Strict about field types, lenient only about [parent] (absent means
    a root span). *)

val list_to_json : t list -> Vliw_util.Json.t
val list_of_json : Vliw_util.Json.t -> (t list, string) result

(** {1 Analysis} *)

val latency_gauges : t list -> (string * float) list
(** Per-kind ["span.<kind>.count"/".p50"/".p95"/".p99"] gauges in
    seconds, via {!Vliw_util.Stats.quantile_exact} — the ledger/report
    form of the latency summary. *)

val observe_histograms : Counters.t -> t list -> unit
(** Feed each span's duration into the registry histogram
    ["span.<kind>.seconds"] (latency buckets in seconds) so the exposition
    carries real [_bucket] series. *)

val validate : ?slack_s:float -> t list -> string list
(** Structural problems: non-finite/negative times, a parent id missing
    from its trace, or a child interval escaping its parent's by more
    than [slack_s] (default 10 ms, absorbing cross-process clock
    reads). Empty means the span forest is well-nested. *)

(** {1 Chrome export} *)

val to_chrome : ?process_name:string -> t list -> string
(** The merged fleet trace as Chrome trace-event JSON ({!Chrome_trace}):
    one lane per distinct [lane] string in first-appearance order,
    timestamps rebased to the earliest span, ids carried in [args] so
    tooling (and the CI nesting check) can rebuild the tree. *)
