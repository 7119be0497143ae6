(** Statistical replication: the headline claims across independent
    seeds (mean +/- standard deviation) plus per-cell 95% confidence
    intervals over the full (mix x scheme) grid. Guards against a
    conclusion that holds for one random workload instantiation only;
    the -at-scale path (100 seeds and beyond) is what the distributed
    coordinator feeds through [fig10s]. *)

type stat = { mean : float; sd : float }

type cell_ci = {
  ci_mix : string;
  ci_scheme : string;
  ci_mean : float;  (** mean IPC over non-degraded replicates; nan if none *)
  ci_sd : float;
  ci_half : float;  (** 95% half-width (1.96 sd / sqrt n); 0 when n < 2 *)
  ci_n : int;
}

type t = {
  n : int;
  seeds : int64 list;
  smt4_over_smt2 : stat;
  smt_over_csmt : stat;
  sc3_over_csmt4 : stat;
  sc3_over_smt2 : stat;
  sc3_below_smt4 : stat;
  cells : cell_ci list;  (** mix-major, one entry per (mix, scheme) *)
}

val derive_seeds : ?seed:int64 -> int -> int64 list
(** [n] replicate seeds derived deterministically from the master seed
    (default {!Common.default_seed}) via the sweep's row-seed
    scramble — reproducible -at-scale seed lists from one number. *)

val cell_stats : (int64 * Fig10.data) list -> cell_ci list
(** Per-cell mean / sd / 95% half-width across the given replicate
    grids, mix-major like the grids themselves. Degraded (nan) cells
    drop out of a cell's count. Unlike {!of_grids} this needs no
    claim-bearing schemes, so it works on any grid shape. *)

val cell_gauges : cell_ci list -> (string * float) list
(** [ipc.mean.MIX.SCHEME] and [ipc.ci95.MIX.SCHEME] gauges for the run
    ledger (cells with no surviving replicate are skipped). *)

val of_grids : (int64 * Fig10.data) list -> t
(** Summarize per-seed fig10 artifacts (however they were computed). *)

val run :
  ?scale:Common.scale ->
  ?seeds:int64 list ->
  ?jobs:int ->
  ?fig10s:(seeds:int64 list -> (int64 * Fig10.data) list) ->
  unit ->
  t
(** Default seeds: five (two at [Quick] scale, where the run is a smoke
    test). [jobs] parallelizes each seed's fig10 sweep in-process;
    [fig10s] replaces the per-seed execution entirely (the distributed
    runner plugs in here) and must return one artifact per seed. *)

val render : t -> string
