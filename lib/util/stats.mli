(** Small statistics toolbox for experiment reporting.

    Every aggregate raises [Invalid_argument] on the empty array — there
    is no meaningful mean/median/extremum of nothing, and a silent [0.0]
    (the historical behaviour of {!mean}) or an [assert] that disappears
    under [-noassert] (the historical guard of the order statistics) both
    let empty inputs corrupt downstream aggregation unnoticed. *)

val mean : float array -> float
(** Arithmetic mean. @raise Invalid_argument on the empty array. *)

val geomean : float array -> float
(** Geometric mean of positive values.
    @raise Invalid_argument on the empty array. *)

val stddev : float array -> float
(** Population standard deviation.
    @raise Invalid_argument on the empty array. *)

val median : float array -> float
(** Median (averages the two central elements for even lengths).
    @raise Invalid_argument on the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation.
    @raise Invalid_argument on the empty array or [p] outside
    [\[0, 100\]]. *)

val quantile_exact : float array -> float -> float
(** [quantile_exact xs p] is the nearest-rank (type-1) quantile: the
    smallest sample such that at least [p]% of the data is [<=] it.
    Unlike {!percentile} it never interpolates, so the result is always
    an element of [xs] — the right notion for latency summaries, where
    an invented value between two observations is a lie. [p = 100]
    lands on the largest element; a single sample is every quantile of
    itself.
    @raise Invalid_argument on the empty array or [p] outside
    [\[0, 100\]]. *)

val p50 : float array -> float
(** [quantile_exact xs 50.] @raise Invalid_argument on the empty array. *)

val p95 : float array -> float
(** [quantile_exact xs 95.] @raise Invalid_argument on the empty array. *)

val p99 : float array -> float
(** [quantile_exact xs 99.] @raise Invalid_argument on the empty array. *)

val min_max : float array -> float * float
(** Smallest and largest element.
    @raise Invalid_argument on the empty array. *)

val sum : float array -> float
(** Sum; [0.0] for the empty array (the one aggregate with a true
    identity element). *)

val pct_diff : float -> float -> float
(** [pct_diff a b] is [(a - b) / b * 100.], the percentage by which [a]
    exceeds [b]. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float array -> summary
(** Full summary. @raise Invalid_argument on the empty array. *)
