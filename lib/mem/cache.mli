(** Set-associative cache with true-LRU replacement.

    Models the paper's 64 KB 4-way ICache/DCache (§5.1). The model tracks
    tags only — data is irrelevant to timing — and serves both
    instruction and data streams. *)

type t

val create : Vliw_isa.Machine.cache_geom -> t
(** Geometry must have power-of-two line size and a positive number of
    sets. *)

val access : t -> int -> bool
(** [access t addr] returns [true] on a hit; on a miss the line is filled
    (allocate-on-miss, for loads and stores alike). Statistics are
    updated. *)

val probe : t -> int -> bool
(** Hit test without state change or statistics. *)

val flush : t -> unit
(** Invalidate all lines (used at context switches if desired). *)

val accesses : t -> int

val misses : t -> int

val miss_rate : t -> float
(** Misses over accesses; 0 when never accessed. *)

val reset_stats : t -> unit

val n_sets : t -> int
