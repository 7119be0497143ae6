(** Benchmark profiles — the synthetic stand-in for compiled MediaBench /
    SPEC binaries.

    The paper characterises each benchmark by its ILP degree, its IPC with
    real and with perfect memory, and (implicitly) its code footprint and
    memory behaviour. A profile captures exactly those observable knobs;
    {!Program.generate} turns a profile into a concrete clustered-VLIW
    program whose single-thread behaviour matches the profile. *)

type ilp_degree = Low | Medium | High

type t = {
  name : string;
  ilp : ilp_degree;
  description : string;
  block_ops_mean : int;  (** Mean operations per basic block. *)
  dag_parallelism : float;
      (** Mean number of independent operations per dependence level;
          the main ILP knob. *)
  frac_mem : float;  (** Fraction of operations that are loads/stores. *)
  frac_mul : float;  (** Fraction of operations that are multiplies. *)
  store_frac : float;  (** Among memory operations, fraction of stores. *)
  working_set_kb : int;  (** Data working set; drives DCache misses. *)
  seq_frac : float;  (** Fraction of strided (cache-friendly) accesses. *)
  taken_prob : float;  (** Probability a block-ending branch is taken. *)
  static_blocks : int;  (** Distinct basic blocks (code footprint). *)
  hot_frac : float;  (** Probability a taken branch targets the hot set. *)
  target_ipc_real : float;  (** Table 1 IPCr, for validation reports. *)
  target_ipc_perfect : float;  (** Table 1 IPCp, for validation reports. *)
}

val ilp_letter : ilp_degree -> string
(** "L", "M" or "H" as in Tables 1–2. *)

val validate : t -> (unit, string) result
(** Fractions in range, positive sizes. *)
