(** Fixed-size Domain-based worker pool. *)

val auto_jobs : unit -> int
(** One worker per hardware thread ([Domain.recommended_domain_count]). *)

val effective_jobs : jobs:int -> int -> int
(** Workers a run of [n] tasks uses: [jobs] (or {!auto_jobs}) capped at [n]. *)

val run : ?jobs:int -> ?on_result:(int -> 'a -> unit) -> (unit -> 'a) array -> 'a array
(** [run ~jobs tasks] evaluates every thunk and returns the results in
    task order, independent of completion order. [jobs = 1] (default)
    runs in-process without spawning domains; [jobs <= 0] means
    {!auto_jobs}; [jobs] is capped at the task count. [on_result i v]
    is invoked once per completed task, serialized across workers. The
    first exception raised by a task aborts unclaimed tasks and is
    re-raised in the caller — only after every spawned helper domain has
    been joined (including when [Domain.spawn] itself fails mid-way
    through pool creation, so partially-created pools never leak
    domains). Tasks must not share mutable state. *)

val run_results :
  ?jobs:int ->
  ?on_result:(int -> ('a, exn) result -> unit) ->
  (worker:int -> 'a) array ->
  ('a, exn) result array
(** Fault-isolating variant: a task that raises yields [Error exn] in
    its slot and does not abort the batch — every other task still
    runs. [on_result] observes successes and failures alike (serialized
    across workers). This is the primitive the sweep engine's degraded
    cells are built on. *)
