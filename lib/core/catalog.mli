(** The named merging schemes evaluated in the paper.

    Naming convention (§4.1): the leading digit is the number of cascade
    levels; each following letter is the merge kind at that level ('S' =
    SMT, 'C' = CSMT); a trailing digit subscript (written inline here,
    e.g. "2SC3") marks a parallel CSMT block over that many inputs.
    Two-level names whose two letters describe a balanced tree (2CC, 2SS,
    2CS, 2SC) merge the pairs (T0,T1) and (T2,T3) at level one and the two
    results at level two. "1S" is the 2-thread SMT baseline; "C4" is the
    4-thread parallel CSMT; "ST" is the single-threaded machine. *)

type entry = {
  name : string;
  scheme : Scheme.t;
  perf_group : string;
      (** Paper grouping of schemes with indistinguishable performance
          (e.g. 3CCC and C4 select identically). *)
  description : string;
}

val all : entry list
(** Every scheme of Figures 8–12 plus the baselines ST and 1S, in the
    paper's Figure 9 (cost-ascending) order. *)

val four_thread : entry list
(** The fifteen 4-thread schemes (all entries except ST and 1S). *)

val find : string -> entry option
(** Case-insensitive lookup by name. *)

val find_exn : string -> entry

val perf_groups : (string * string list) list
(** Performance-equivalence groups as reported in §5.2: group label to
    member scheme names. *)
