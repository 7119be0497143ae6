(** The sweep-service daemon behind [vliwsim serve].

    A single-process event loop: accepts clients on a Unix socket
    (and/or a loopback TCP port), speaks NDJSON ({!Request} in,
    {!Vliw_experiments.Sweep.event}-shaped lines plus service replies
    out), serves cache-hit cells straight from the content-addressed
    {!Cache} (preloaded from the run ledger), and runs cold cells in
    {!Scheduler}-planned batches on the {!Vliw_util.Pool} Domain pool.
    The unit of work is a sharing class: a job's cold cells of one row
    with equal {!Vliw_experiments.Sweep.share_key}s, run by one pool
    task through {!Vliw_experiments.Sweep.run_class}, so the class
    simulates once and each member still counts as simulated (with
    [attempts = 1]) and is cached under its own scheme name.
    Every completed job is appended to the run ledger as a [serve]
    record, so a served grid is [runs diff]-able against (and
    bit-identical to) a locally run [exp] of the same configuration —
    and so the next daemon instance starts with this one's results
    already cached.

    Reply lines, dispatched on their first field:
    - [{"reply":"accepted","job":...,"cells":N,"cached":H,"cold":C}]
    - [{"job":...,"ev":"sweep_started"|"cell_finished"|"sweep_finished",...}]
      — the {!Vliw_experiments.Sweep.json_of_event} shape, with the
      owning ["job"] prepended and, on cells, ["cached"] (a cached
      cell also has [attempts = 0], like a checkpoint-restored one).
      Each job keeps a {!Vliw_experiments.Sweep.Tally}, so its stream
      has the local sweep's contract: one [cell_finished] per cell,
      cached cells first, [completed] counting 1..total, and an
      [eta_s] over the daemon's [jobs] once a cold cell has finished
    - [{"reply":"done","job":...,"digest":...,"cached":H,"simulated":S}]
    - [{"reply":"error","error":...}], [{"reply":"pong"}],
      [{"reply":"stats",...}], [{"reply":"metrics","exposition":...}],
      [{"reply":"shutting_down"}]

    Shutdown is graceful: on a [shutdown] request, SIGINT/SIGTERM (when
    [handle_signals]) or after [max_jobs] completed jobs, the daemon
    stops accepting submissions, drains the queue, sends the pending
    [done] replies and exits; the Unix socket file is unlinked. *)

type config = {
  socket_path : string option;  (** Unix listener ([None] = no socket). *)
  tcp_port : int option;  (** Loopback TCP listener ([None] = none). *)
  runs_dir : string;  (** Ledger directory: cache source and sink. *)
  jobs : int;  (** Pool workers per batch; [<= 0] = one per core. *)
  no_ledger : bool;  (** Do not append served jobs to the ledger. *)
  metrics_out : string option;
      (** Rewrite an OpenMetrics exposition of the service counters here
          (atomically) at startup and after every completed job. *)
  max_line_bytes : int;  (** Per-request line budget ({!Vliw_util.Ndjson}). *)
  max_inflight : int;  (** Queued/running jobs allowed per client. *)
  max_requests : int;  (** Requests per connection before it is closed. *)
  max_jobs : int option;  (** Drain and exit after this many jobs. *)
  handle_signals : bool;  (** Install SIGINT/SIGTERM drain handlers. *)
  log : Vliw_util.Log.t;
      (** Structured diagnostics (job/client ids as fields); default
          {!Vliw_util.Log.null}. The CLI points it at stderr. *)
  tracer : Vliw_telemetry.Span.collector option;
      (** When set (or when [trace_out] is), every job records a span
          tree — a [submit] root (parented to the client's span when
          the request carries trace ids), [queue_wait] + [schedule]
          closed at its first batch, one [simulate_cell] per cold class
          and a [ledger_append] — fed to the stats reply's latency
          quantiles and the OpenMetrics histograms. A request carrying
          trace ids is traced even when both are [None], and gets its
          spans back on the [done] reply. Observation only: grids are
          bit-identical with tracing on or off. *)
  trace_out : string option;
      (** Write the daemon-lifetime merged Chrome trace here at
          shutdown. *)
}

val default_config : config
(** No listeners (the CLI fills one in), [runs_dir = "_runs"],
    [jobs = 1], 1 MiB lines, 4 in-flight jobs and 10000 requests per
    client, no signal handling, silent log. *)

val run : config -> unit
(** Run the daemon until graceful shutdown. Raises [Invalid_argument]
    when no listener is configured, and [Unix.Unix_error] when binding
    fails — [EADDRINUSE] when a live daemon already answers on
    [socket_path] ({!Vliw_util.Wire.listen}). Counters and gauges
    belong to this run: two daemons in one process keep separate
    numbers. *)
