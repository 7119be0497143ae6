(** Priority queue with backfilling for the sweep service.

    The server executes cold cells in fixed-size batches (one
    {!Vliw_util.Pool} dispatch per batch, [capacity] = worker count).
    {!plan} decides what the next batch runs; it is a pure function of
    the queue so the policy is unit-testable without a daemon.

    Policy, in order:
    + The queue is ranked by (priority desc, arrival asc) — FIFO within
      a priority level, strict priority across levels. A job submitted
      mid-drain preempts lower-priority work at the next batch
      boundary, never mid-batch.
    + The head job fills the batch first.
    + Idle slots left by a draining head are {e backfilled}: among the
      waiting jobs, those whose whole remaining cell count fits in the
      idle capacity run first, smallest first — so a quick probe slips
      through beside a big sweep instead of queueing behind it.
      (Because a batch is a barrier, lending the head's idle slots to
      anyone cannot delay the head — backfilling here is free.)
    + If slots remain and no waiting job fits entirely, the best-ranked
      waiting job fills them partially; workers never idle while cells
      wait. *)

type 'a job = {
  jid : string;
  priority : int;
  arrival : int;  (** Monotonic submission sequence; the FIFO tiebreak. *)
  cells : 'a list;  (** Cells not yet dispatched, in submission order. *)
}

val plan : capacity:int -> 'a job list -> (string * 'a) list * 'a job list
(** [plan ~capacity queue] is [(batch, queue')]: at most [capacity]
    [(jid, cell)] assignments in dispatch order, and the queue with
    those cells removed (jobs left empty are dropped; survivors come
    back in rank order). [capacity <= 0] plans an empty batch. *)
