(** The worker side of a distributed sweep: a single-domain loop that
    reads {!Protocol.to_worker} messages from a transport, groups each
    assigned shard's cells by row, runs every sharing class of a row
    once through {!Vliw_experiments.Sweep.run_class} (the in-process
    sweep's runner, so bit-identical by construction) and streams one
    {!Protocol.from_worker} line per cell back, so the coordinator gets
    live progress rather than a per-shard lump.

    A worker is deliberately serial: the coordinator owns parallelism
    (many workers), which keeps worker memory bounded and makes a
    worker death lose at most one shard. Cell failures never kill the
    worker — each simulation attempt is trapped and reported as an
    error result for the coordinator's retry/degrade machinery: an
    unknown scheme errors its own cell, a row that does not compile
    errors that row's cells. The worker never retries; the coordinator
    owns retries. *)

exception Killed
(** Raised by {!serve} when the [die_after_cells] fault-injection
    budget is exhausted: the worker stops abruptly mid-shard, without a
    [Shard_done], exactly like a crash. The CLI maps it to a non-zero
    exit; in-process test workers catch it and close their transport. *)

val serve :
  ?die_after_cells:int ->
  ?log:Vliw_util.Log.t ->
  ?clock:(unit -> float) ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  unit
(** Run the worker loop until [Quit], EOF or a broken transport.
    [input] and [output] may be the same descriptor (socket transport)
    or a pipe pair (spawned via [vliwsim worker]). [die_after_cells n]
    raises {!Killed} immediately after the [n]-th cell result is
    written (n >= 1). [log] (default {!Vliw_util.Log.null}) receives
    structured diagnostics; protocol lines are the only bytes ever
    written to [output].

    When an assign carries trace context, the worker records
    [prepare_row] (cache misses only) and one [simulate_cell] child
    span per class under the coordinator's dispatch span (a row's first
    [simulate_cell] span also covers its [prepare_row]), and ships them
    back on [Shard_done]. Span ids derive from the assign's (seed, shard), so a
    traced rerun rebuilds the same tree; [clock] (default
    [Unix.gettimeofday]) stamps them and is injectable for tests.
    Tracing never touches simulation inputs — grids stay bit-identical
    with it on or off. *)
