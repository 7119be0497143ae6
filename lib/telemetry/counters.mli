(** Named monotonic counters and fixed-bucket histograms.

    Handles are resolved by name once ({!counter}/{!histogram}) and then
    updated without lookup; the simulator's event counters are a fixed
    slot block named only at snapshot time ({!events}). Snapshots are
    immutable, name-sorted, and mergeable: every sweep cell snapshots
    its own registry and the aggregation sums them, so telemetry needs
    no cross-domain sharing.
    Histogram quantiles (p50/p95/p99) interpolate linearly inside the
    bucket the rank lands in — the bucketed analogue of
    {!Vliw_util.Stats.percentile}. *)

type t
(** A registry. Not domain-safe: use one per simulation. *)

type counter

type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get or create the named counter. *)

val add : counter -> int -> unit

val incr : counter -> unit

val value : counter -> int

val histogram : t -> string -> bounds:float array -> histogram
(** Get or create; [bounds] are ascending bucket upper bounds, with an
    implicit overflow bucket above the last. On an existing name the
    original bounds win. *)

val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist_snapshot = {
  bounds : float array;
  counts : int array;  (** One per bound plus the overflow bucket. *)
  total : int;
  sum : float;
  vmin : float;
  vmax : float;
}

type snapshot = {
  counters : (string * int) list;  (** Name-sorted. *)
  histograms : (string * hist_snapshot) list;  (** Name-sorted. *)
}

val snapshot : t -> snapshot

val empty : snapshot

val count : snapshot -> string -> int
(** 0 when the counter is absent. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum; histogram bounds must match.
    @raise Invalid_argument when they don't. *)

val hist_mean : hist_snapshot -> float

val quantile : hist_snapshot -> float -> float
(** [quantile h p] for [p] in [0..100], clamped to the observed range. *)

val flat : snapshot -> (string * string) list
(** Counters plus per-histogram count/mean/p50/p95/p99, as strings. *)

val to_csv : snapshot -> string list * string list list
(** {!flat} as a CSV header and rows ([counter,value]). *)

(** {1 Event counters}

    The simulator counts its events ({!Event.t}) in a fixed block of
    integer slots, one per event kind refined by reject reason or cache
    level, plus the [issue.slots_filled] / [issue.threads_merged]
    histograms. The core bumps a slot directly, so counting needs no
    sink, no [Event.t] value and no string: a counters-only run
    allocates nothing per cycle. Sinks ({!Sink}) are for recording
    events only. A slot is named when a snapshot is taken and appears in
    it only once bumped. *)

type events
(** The slot block of one registry. *)

val events : t -> events
(** The registry's slot block, created (with both issue histograms) on
    first use; later calls return the same block. *)

val event_names : string array
(** The nine event counter names, e.g. ["events.merge_reject.conflict"]. *)

val event_name : Event.t -> string
(** The counter an event is counted under: one of {!event_names}. *)

val fetch_stall : events -> unit

val merge_rejects : events -> Event.reject_reason -> int -> unit
(** [merge_rejects e reason n] counts [n] rejects for [reason]. *)

val issue : events -> threads_merged:int -> slots_filled:int -> unit
(** Counts the issue and records both issue histograms. *)

val cache_miss : events -> Event.cache_level -> unit

val bmt_switch : events -> unit

val scheme_switch : events -> unit
