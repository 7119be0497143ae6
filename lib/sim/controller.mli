(** Per-timeslice adaptive merge-scheme controller.

    The multitasking harness consults the controller at every timeslice
    boundary ({!decide}) with an observation of the slice that just
    ended; the answer is the candidate scheme the next slice should run.
    Candidates are restricted to one {!Vliw_merge.Catalog} hardware-cost
    group (checked with {!Vliw_cost.Scheme_cost.comparable} at
    {!create}), so the controller reconfigures comparable hardware
    rather than upgrading the machine.

    Decisions are deterministic — no RNG, no wall clock — so an
    adaptive sweep cell remains a pure function of its seed (retry- and
    resume-safe, bit-identical at any jobs count). *)

type candidate = { name : string; scheme : Vliw_merge.Scheme.t }

type obs = {
  slice : int;  (** 0-based index of the timeslice that just ended. *)
  cycles : int;  (** Cycles the slice actually ran. *)
  ops : int;  (** Operations issued during the slice. *)
  instrs : int;  (** Instructions issued during the slice. *)
  per_thread_ops : int array;
      (** Per-thread retired-operation deltas over the slice (the
          per-thread ILP signal). *)
  rejects_conflict : int;  (** Merge rejects in the slice, by cause. *)
  rejects_capacity : int;
  icache_misses : int;  (** Cache-miss deltas over the slice. *)
  dcache_misses : int;
}

type policy =
  | Static  (** Never switches (the bit-equality oracle). *)
  | Oracle_sample of { probe_slices : int }
      (** Sample every candidate for [probe_slices] slices, then commit
          to the best observed IPC for the rest of the run. *)
  | Hill_climb of { explore_period : int; hysteresis : float; ewma : float }
      (** Every [explore_period] slices, probe one neighbour along the
          SMT-block-count axis (direction chosen from reject causes and
          per-thread ILP imbalance; memory-bound slices skip probing)
          and adopt it only if its observed IPC beats the incumbent's
          EWMA estimate by [hysteresis]. *)

val default_hill : policy
(** [Hill_climb { explore_period = 2; hysteresis = 0.02; ewma = 0.5 }]. *)

val default_oracle : policy
(** [Oracle_sample { probe_slices = 1 }]. *)

val policy_to_string : policy -> string
(** Stable descriptor, e.g. ["hill(period=2,hysteresis=0.02,ewma=0.5)"]
    — what the run ledger fingerprints. *)

type t

val group_candidates : string -> candidate list
(** The catalog performance group containing the named scheme, in
    catalog (cost-ascending) order.
    @raise Invalid_argument on an unknown scheme name. *)

val create :
  ?switch_penalty:(from_:Vliw_merge.Scheme.t -> to_:Vliw_merge.Scheme.t -> int) ->
  policy ->
  candidates:candidate list ->
  initial:string ->
  t
(** A fresh controller starting at [initial] (which must be a
    candidate). [switch_penalty] prices a reconfiguration in stall
    cycles; defaults to {!Vliw_cost.Scheme_cost.switch_penalty}.
    Controllers are stateful and single-use: create one per simulation
    attempt.
    @raise Invalid_argument if candidates are empty, mix thread counts,
    or are not hardware-cost comparable to [initial]. *)

val decide : t -> obs -> candidate
(** The scheme for the next slice, given the finished slice's
    observation. The caller switches the core iff the answer differs
    from the installed scheme. *)

val current : t -> candidate
(** The candidate scheduled for the currently running slice. *)

val switches : t -> int
(** Owner changes decided so far (including probe moves and
    retreats). *)

val decisions : t -> (int * string) list
(** Per-slice scheme trail, oldest first: [(slice, scheme name)] for
    slice 0 and every boundary where the policy took a decision. *)

val switch_penalty :
  t -> from_:Vliw_merge.Scheme.t -> to_:Vliw_merge.Scheme.t -> int
(** The controller's penalty pricing (for the harness to charge). *)
