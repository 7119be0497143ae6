(** Issue-waste decomposition (the paper's §1 framing).

    For each scheme: how much of the machine is lost to vertical waste
    (cycles issuing nothing), how much to horizontal waste (empty slots
    in issuing cycles), and how many threads the merge network combines
    per cycle. Shows *where* each merging granularity recovers
    throughput: cluster-level merging removes most vertical waste;
    operation-level merging additionally attacks horizontal waste. *)

type row = {
  scheme : string;
  ipc : float;
  vertical : float;  (** Fraction of cycles with no issue. *)
  horizontal : float;  (** Fraction of slots idle in issuing cycles. *)
  merge_degree : float;  (** Mean threads issuing per non-empty cycle. *)
}

val run : (?mix:string -> ?schemes:string list -> unit -> row list) Sweep.study
(** Defaults: LLHH; ST, 1S, 3CCC, 2SC3, 3SSS. *)

val render : string -> row list -> string
(** [render mix rows]. *)
