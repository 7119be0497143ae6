(** Extension beyond the paper: 8-thread merging schemes.

    The paper evaluates merging-scheme performance only for 4 threads
    ("for space reasons", §4) while its Figure 5 projects merge-control
    cost up to 8 threads. This experiment closes that gap: it evaluates
    representative 8-thread schemes — pure CSMT (serial and parallel),
    pure SMT, and mixed designs in the 2SC3 spirit — on doubled Table 2
    workloads, reporting cost next to performance. *)

type entry = { name : string; scheme : Vliw_merge.Scheme.t; description : string }

val schemes : entry list
(** C8, 8-thread serial CSMT, 2SC7 (one SMT pair + 7-input parallel
    CSMT), 4SC5 (4-thread SMT cascade + 5-input parallel CSMT), SP4C
    (four SMT pairs merged by a 4-input parallel CSMT), and the 8-thread
    SMT cascade. *)

type row = {
  name : string;
  delay : float;
  transistors : float;
  avg_ipc : float;
}

val run : (unit -> row list) Sweep.study
(** Average IPC over the nine doubled mixes (each Table 2 mix run with
    two instances of every member). *)

val render : row list -> string
