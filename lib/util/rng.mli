(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that whole experiments are reproducible from a single seed
    and independent components can be given independent streams via
    {!split}. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Distinct seeds give
    independent-looking streams. *)

val split : t -> t
(** [split t] draws from [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal variate via Box–Muller. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
