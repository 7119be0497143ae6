(** A software thread: a program instance with its dynamic state.

    Thread state persists across OS context switches; the multitasking
    scheduler moves threads on and off hardware contexts without losing
    their position or counters. *)

type stall_src = Ready | Fetch_stall | Mem_stall | Branch_stall
(** Why the thread is (or last was) blocked — telemetry reads this to
    attribute vertical waste. [Mem_stall] wins when a D$ miss and a
    branch misprediction both contribute and the miss penalty dominates. *)

type t = {
  id : int;
  program : Vliw_compiler.Program.t;
  addr_stream : Vliw_mem.Addr_stream.t;
  ctrl_rng : Vliw_util.Rng.t;  (** Branch-outcome draws. *)
  mutable block : int;
  mutable pc : int;  (** Instruction index within the block. *)
  mutable resume_at : int;  (** First cycle the thread may issue again. *)
  mutable pending : Vliw_isa.Instr.t;
      (** Fetched instruction waiting to issue; physically equal to
          {!no_instr} when nothing is fetched. A sentinel instead of an
          option so the steady-state fetch/retire path never
          allocates. *)
  mutable instrs_retired : int;
  mutable ops_retired : int;
  mutable stall_src : stall_src;
      (** Meaningful while [stalled]; observation-only. *)
}

val no_instr : Vliw_isa.Instr.t
(** The "nothing fetched" sentinel for {!t.pending}; compare with [==]. *)

val create : id:int -> seed:int64 -> Vliw_compiler.Program.t -> t
(** Fresh thread at the program entry; the address stream gets a region
    disjoint from every other thread id. *)

val next_addr : t -> int
(** The next data address, straight from the thread's address stream. *)

val next_taken : t -> bool
(** The next branch outcome, drawn from [ctrl_rng] at the program's
    taken probability. The k-th draw of either stream depends only on
    the thread's seed, never on issue timing, so every scheme simulated
    from one seed sees the same sequence of addresses and outcomes. *)

val current_instr : t -> Vliw_isa.Instr.t

val stalled : t -> now:int -> bool

val advance_fall_through : t -> unit
(** Move to the next instruction (or the fall-through block after the
    last one). *)

val jump_taken : t -> target:int -> unit
(** Move to the head of the given region (a taken exit). *)

val name : t -> string
