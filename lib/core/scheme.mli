(** Merge-scheme descriptions (the paper's Figures 7 and 8).

    A scheme is a tree of merge-control blocks wired between the thread
    contexts and the issue stage. Leaves are thread input ports; internal
    nodes are merge control blocks, each either SMT (operation-level) or
    CSMT (cluster-level), implemented serially (a cascade that considers
    one extra input per stage) or in parallel (all input subsets checked
    at once — only sensible for CSMT; the paper rules out parallel SMT as
    prohibitively expensive).

    Cascades such as 3SCC are nested binary [Merge] nodes; balanced trees
    such as 2CS merge the two pairs independently before a top-level
    merge; parallel blocks such as the C3 in 2SC3 are a single n-ary
    [Merge] node with [impl = Parallel]. *)

type impl = Serial | Parallel

type t =
  | Thread of int  (** Input port for the given scheme-local thread id. *)
  | Merge of { kind : Scheme_kind.t; impl : impl; inputs : t list }

val smt : t -> t -> t
(** Binary serial SMT block. *)

val csmt : t -> t -> t
(** Binary serial CSMT block. *)

val csmt_parallel : t list -> t
(** n-ary parallel CSMT block (>= 2 inputs). *)

val thread : int -> t

val smt_cascade : int -> t
(** [smt_cascade n] merges threads 0..n-1 with a serial SMT cascade
    (the paper's N-thread SMT; [smt_cascade 2] is scheme 1S). *)

val csmt_cascade : int -> t
(** Serial CSMT cascade over n threads (CSMT SL). *)

val csmt_par : int -> t
(** Single parallel CSMT block over n threads (CSMT PL; [csmt_par 4] is
    scheme C4). *)

val n_threads : t -> int
(** Number of leaves. *)

val leaf_ids : t -> int list
(** Leaf thread ids in left-to-right wiring order. *)

val validate : t -> (unit, string) result
(** A well-formed scheme has each thread id 0..n-1 exactly once, merge
    nodes with at least two inputs, and parallel implementation only on
    CSMT nodes. *)

val canonical : t -> t
(** The decision-equivalent normal form: every merge that is the first
    input of a same-kind parent is spliced into it ([C(C(a,b),x)]
    becomes [C(a,b,x)], recursively), and every [impl] becomes
    [Serial]. Exact for every input and both routings: a node's first
    input is evaluated while the accumulator is empty, so it is taken
    whole and never itself checked; its own inputs are then checked one
    by one against the same growing accumulator, by the same kind of
    check, in the same order — exactly what the flattened node does.
    [impl] never changes a decision (the paper's serial and parallel
    blocks differ only in delay and area). So 3CCC and C4, 3SCC and
    2SC3, 3CCS and 2C3S have one canonical form each; 3CSC does not
    collapse (its first input is an SMT block). Preserves
    {!leaf_ids}, {!n_threads} and {!validate}; idempotent. *)

val levels : t -> int
(** Depth in merge blocks along the longest path (the leading digit of
    the paper's scheme names). *)

val block_count : Scheme_kind.t -> t -> int
(** Number of merge-control blocks of the given kind. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Structural rendering, e.g. [C(S(T0,T1),T2,T3)] for 2SC3. *)

val to_string : t -> string
