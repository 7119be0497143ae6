(** Compiler-mode comparison: block scheduling vs trace scheduling.

    The paper's toolchain uses Trace Scheduling; our default substrate
    schedules basic blocks. This experiment quantifies what the global
    scheduler changes: single-thread IPC rises (fewer bubbles, more ILP
    extracted across block boundaries), and in turn multithreaded
    merging finds fewer holes — the classic tension between static ILP
    extraction and multithreading.

    Two parts: per-benchmark single-thread IPC (perfect memory) under
    both modes, and the 3CCC / 2SC3 / 3SSS ladder on a mixed workload
    under both modes. *)

type bench_row = {
  name : string;
  block_ipc : float;
  trace_ipc : float;  (** Trace regions of {!trace_len} blocks. *)
}

type ladder_row = { scheme : string; block_ipc : float; trace_ipc : float }

type data = {
  trace_len : int;
  benches : bench_row list;
  ladder : ladder_row list;  (** On the LLHH mix. *)
}

val run : (?trace_len:int -> unit -> data) Sweep.study
(** Default trace length: 4 blocks per region. *)

val render : data -> string
