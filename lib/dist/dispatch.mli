(** The dist coordinator's decisions as a state machine without I/O.
    It holds the shard queue, the worker table (ready, shard held,
    silence deadline), per-cell attempt and death counts, slot
    completion and the {!stats}. {!Coordinator} is the shell around
    it: it owns sockets, processes, journals, the tally, the log and
    the tracer, feeds the core what it observes (each input stamped
    with one clock) and carries out the {!action}s. Nothing here reads
    a clock or a socket, so a seeded fake fleet with a fake clock
    drives the core deterministically.

    A slot is a cell of one replicate, [seed_index * cells_per_grid +
    cell] over the mix-major grid. A failed simulation consumes the
    cell's retry budget ([max_retries], then the cell degrades to
    [nan]). A worker death (hang-up, broken transport, silence past
    [shard_timeout_s]) is free for the cells it strands, which re-queue
    with their budget intact, except that a cell held by more than
    [max_retries + 3] dying workers degrades too. Dispatch is
    pull-based: each idle ready peer, in id order, takes the next
    queued shard. *)

type stats = {
  mutable cells_simulated : int;
  mutable cells_restored : int;  (** resumed from a checkpoint journal *)
  mutable cells_retried : int;  (** failed simulation attempts re-queued *)
  mutable cells_degraded : int;
  mutable shards_dispatched : int;
  mutable shards_completed : int;
  mutable shards_requeued : int;  (** remainders re-queued by a death or an early [Shard_done] *)
  mutable workers_spawned : int;
  mutable workers_attached : int;
  mutable workers_died : int;
  mutable workers_timeouts : int;  (** deaths declared by [shard_timeout_s] *)
}

type config = {
  scale : string;  (** {!Vliw_experiments.Common.scale_name}, sent on assigns *)
  seeds : int64 list;  (** one grid per replicate, in this order *)
  mix_names : string list;
  scheme_names : string list;
  shard_size : int option;  (** [None] = {!Plan.default_shard_size} *)
  fleet : int;  (** the planner's worker count *)
  spawn : int;  (** workers to keep alive by spawning, at most [spawn + 8] spawns; 0 = never *)
  listening : bool;  (** peers may attach at any time *)
  max_retries : int;
  shard_timeout_s : float option;
}

(** A [Hangup] of an attached peer that never sent [Ready] is no death. *)
type loss = Hangup | Failed of string

type input =
  | Joined of { peer : int; spawned : bool }  (** the shell picks peer ids *)
  | Message of int * Protocol.from_worker
  | Lost of int * loss
  | Tick  (** timeouts, spawning, the stuck check *)

type closing =
  | Quit  (** send [Quit], close, reap *)
  | Drop  (** close quietly: a monitor, a peer that hung up *)
  | Kill of string  (** a death and its reason: close, kill, reap *)

type action =
  | Assign of { peer : int; assign : Protocol.assign; queued_at : float }
      (** send it (the shell adds trace context; a failed write is fed
          back as [Lost]) *)
  | Reply_stats of int  (** answer a [Query_stats] monitor *)
  | Close of int * closing
  | Spawn  (** start a worker; on success the shell feeds [Joined] *)
  | Finish of int * Vliw_experiments.Sweep.cell  (** the slot's one cell *)
  | Event of Vliw_experiments.Sweep.event  (** [Cell_retried], [Cell_degraded] *)
  | Done  (** every slot finished, every peer closed *)
  | Stuck  (** cells left, but no peer, no listener and no spawn budget *)

type t

val create :
  ?restored:(int -> Plan.cell_spec -> Vliw_experiments.Sweep.cell option) ->
  config ->
  now:float ->
  t
(** Plan every replicate's unfinished cells into shards. [restored
    seed_index cell] is a cell resumed from a journal: its slot is
    finished at once and its [Finish] leads the first step's actions. *)

val step : t -> now:float -> input -> action list
(** Feed one input; the actions come back in the order decided. Inputs
    for closed or unknown peers are ignored, as are results for shards
    never issued or cells off the grid; the first result for a slot
    wins. Once every slot is finished the core waits (5 s at most) for
    the [Shard_done] still owed by a worker that sent its shard's last
    cell, since it carries that shard's trace spans, then closes every
    peer with [Quit] and says [Done]. *)

val stats : t -> stats
val queue_depth : t -> int

val workers : t -> (int * bool * int) list
(** [(peer, ready, cells held)] of every spawned or greeted peer (so no
    monitor), in id order. *)
