(* Declarative rows x columns sweep engine: the one path by which an
   experiment compiles programs ([row], [prepare_row]) and simulates a
   cell ([simulate]). Cells are independent and run on [Pool] domains.
   The result is bit-identical for any [jobs]: rows are compiled in the
   parent domain with a fixed RNG derivation before any cell runs, and
   a cell is a pure function of its row and its column's canonical
   configuration — which is also why retrying a failed cell, restoring
   it from a checkpoint journal (raw IPC bits), sharing one simulation
   across the columns of a class, or reusing one from an earlier sweep
   through a [memo] cannot change a result. The memo keys a program on
   its compile inputs and a cell on its row's programs by physical
   identity (safe: one program value comes from one compile) plus
   everything else [simulate] reads. sweep.mli documents seeding,
   sharing, the memo, fault tolerance and resume. *)

module Counters = Vliw_telemetry.Counters
module Report = Vliw_telemetry.Report

(* A sweep column: a scheme, plus either an edit of the simulator
   configuration (ablation knobs, IMT/BMT issue policy) or an adaptive
   controller factory, invoked once per simulation attempt so a retried
   cell starts from a pristine controller. *)
type column = {
  col_name : string;  (* display/journal name; must be unique per sweep *)
  col_scheme : Vliw_merge.Scheme.t;  (* initial (or only) scheme *)
  col_controller : (unit -> Vliw_sim.Controller.t) option;
  col_config : Vliw_sim.Config.t -> Vliw_sim.Config.t;
}

let column ?(config = Fun.id) name scheme =
  { col_name = name; col_scheme = scheme; col_controller = None; col_config = config }

let static_column (e : Vliw_merge.Catalog.entry) = column e.name e.scheme

type cell = {
  mix : string;
  scheme : string;
  ipc : float;  (* nan for a degraded cell *)
  elapsed_s : float;  (* wall-clock seconds spent simulating this cell *)
  started_s : float;  (* start offset from the sweep epoch (wall clock) *)
  worker : int;  (* pool worker that simulated the cell *)
  telemetry : Counters.snapshot option;
  attempts : int;  (* simulation attempts; 0 for a cell restored from
                      a checkpoint without re-simulation *)
  error : string option;  (* Some _ iff the cell is degraded *)
}

(* Live structured progress stream. Cell_started / Cell_retried /
   Cell_degraded fire inside worker domains; Sweep_started,
   Cell_finished (serialized through the pool's on_result) and
   Sweep_finished fire in the parent. A consumer must therefore be
   domain-safe — [json_logger] serializes writes through a mutex. *)
type event =
  | Sweep_started of { total : int; jobs : int; scale : string; seed : int64 }
  | Cell_started of { mix : string; scheme : string; worker : int }
  | Cell_retried of {
      mix : string;
      scheme : string;
      attempt : int;  (* the attempt that just failed, 1-based *)
      error : string;
    }
  | Cell_degraded of {
      mix : string;
      scheme : string;
      seed : int64;  (* the row's simulation seed *)
      attempts : int;
      error : string;
    }
  | Cell_finished of {
      cell : cell;
      completed : int;
      total : int;
      eta_s : float;  (* nan until one timed cell has completed *)
    }
  | Sweep_finished of { total : int; degraded : int; wall_s : float }

let json_of_event ev =
  let module J = Vliw_util.Json in
  let num v = J.Num v in
  let base name fields =
    J.Obj
      (("ev", J.Str name)
      :: ("ts", num (Unix.gettimeofday ()))
      :: fields)
  in
  match ev with
  | Sweep_started { total; jobs; scale; seed } ->
    base "sweep_started"
      [
        ("total", num (float_of_int total));
        ("jobs", num (float_of_int jobs));
        ("scale", J.Str scale);
        ("seed", J.Str (Printf.sprintf "0x%Lx" seed));
      ]
  | Cell_started { mix; scheme; worker } ->
    base "cell_started"
      [
        ("mix", J.Str mix);
        ("scheme", J.Str scheme);
        ("worker", num (float_of_int worker));
      ]
  | Cell_retried { mix; scheme; attempt; error } ->
    base "cell_retried"
      [
        ("mix", J.Str mix);
        ("scheme", J.Str scheme);
        ("attempt", num (float_of_int attempt));
        ("error", J.Str error);
      ]
  | Cell_degraded { mix; scheme; seed; attempts; error } ->
    base "cell_degraded"
      [
        ("mix", J.Str mix);
        ("scheme", J.Str scheme);
        ("seed", J.Str (Printf.sprintf "0x%Lx" seed));
        ("attempts", num (float_of_int attempts));
        ("error", J.Str error);
      ]
  | Cell_finished { cell; completed; total; eta_s } ->
    base "cell_finished"
      [
        ("mix", J.Str cell.mix);
        ("scheme", J.Str cell.scheme);
        ("ipc", num cell.ipc);
        ("elapsed_s", num cell.elapsed_s);
        ("worker", num (float_of_int cell.worker));
        ("attempts", num (float_of_int cell.attempts));
        ("degraded", J.Bool (cell.error <> None));
        ("completed", num (float_of_int completed));
        ("total", num (float_of_int total));
        ("eta_s", num eta_s);
      ]
  | Sweep_finished { total; degraded; wall_s } ->
    base "sweep_finished"
      [
        ("total", num (float_of_int total));
        ("degraded", num (float_of_int degraded));
        ("wall_s", num wall_s);
      ]

let json_logger oc =
  let m = Mutex.create () in
  fun ev ->
    let line = Vliw_util.Json.to_string (json_of_event ev) in
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)

(* Every Cell_degraded event of every sweep a command runs, collected
   across domains, so a degraded cell in any table gets a warning. *)
let watch_degraded on_event =
  let m = Mutex.create () and seen = ref [] in
  let watch ev =
    (match ev with
    | Cell_degraded { mix; scheme; seed; attempts; error } ->
      let line =
        Printf.sprintf "  %s/%s seed 0x%Lx after %d attempt(s): %s\n" mix scheme
          seed attempts error
      in
      Mutex.protect m (fun () -> seen := line :: !seen)
    | _ -> ());
    Option.iter (fun f -> f ev) on_event
  in
  let warning () =
    match List.sort compare (Mutex.protect m (fun () -> !seen)) with
    | [] -> None
    | lines ->
      Some
        (Printf.sprintf "warning: %d sweep cell(s) degraded to n/a:\n%s"
           (List.length lines) (String.concat "" lines))
  in
  (watch, warning)

exception Cell_timeout of { elapsed_s : float; limit_s : float }

let () =
  Printexc.register_printer (function
    | Cell_timeout { elapsed_s; limit_s } ->
      Some
        (Printf.sprintf "Sweep.Cell_timeout (%.2fs > limit %.2fs)" elapsed_s
           limit_s)
    | _ -> None)

(* Deterministic fault injection for the fault-tolerance tests: when
   set, a cell attempt at (row, col) raises before simulating iff the
   hook returns [true]. Called once per attempt, possibly from a worker
   domain — install it before the sweep starts and make it domain-safe
   if it is stateful. *)
let inject_failure : (row:int -> col:int -> bool) option ref = ref None

let degraded cells =
  Array.to_list cells |> List.filter (fun c -> c.error <> None)

(* FNV-1a over the mix name, scrambled through one SplitMix64 step, so
   every row's simulation seed is statistically independent of the
   master seed and of the other rows. *)
let row_seed ~seed mix_name =
  let h =
    String.fold_left
      (fun acc c ->
        Int64.mul (Int64.logxor acc (Int64.of_int (Char.code c))) 0x100000001B3L)
      0xCBF29CE484222325L mix_name
  in
  Vliw_util.Rng.next_int64 (Vliw_util.Rng.create (Int64.logxor seed h))

(* One sweep row: compiled programs plus everything a simulation of them
   needs except the column; built in the caller's domain, then only
   read. *)
type row = {
  name : string;
  programs : Vliw_compiler.Program.t list;
  seed : int64;  (* simulation seed *)
  schedule : Vliw_sim.Multitask.schedule;
  machine : Vliw_isa.Machine.t;
  perfect_mem : bool;
}

(* --- the memo: what a context has compiled and simulated ------------

   A program is keyed on everything [Program.generate] reads, a cell on
   everything [simulate] reads. [run_metrics] looks cells up in the
   caller's domain before any task starts and inserts them from the
   pool's serialized result callback, so the memo needs no lock. *)

type program_key = {
  pk_machine : Vliw_isa.Machine.t;
  pk_mode : Vliw_compiler.Program.mode;
  pk_seed : int64;
  pk_profile : Vliw_compiler.Profile.t;
}

type cell_key = {
  ck_seed : int64;
  ck_schedule : Vliw_sim.Multitask.schedule;
  ck_perfect_mem : bool;
  ck_config : Vliw_sim.Config.t;  (* the column's share_key *)
  ck_telemetry : bool;
}

(* Deep enough to reach the machine's last fields and the scheme tree. *)
let deep_hash v = Hashtbl.hash_param 64 128 v

module Programs = Hashtbl.Make (struct
  type t = program_key

  let equal = ( = )
  let hash = deep_hash
end)

module Cells = Hashtbl.Make (struct
  type t = Vliw_compiler.Program.t list * cell_key

  let equal (ps, k) (ps', k') = List.equal ( == ) ps ps' && k = k'

  let hash (ps, k) =
    deep_hash (List.map (fun (p : Vliw_compiler.Program.t) -> p.total_ops) ps, k)
end)

(* A successful simulation: its metrics and, with counters attached,
   their snapshot. *)
type outcome = Vliw_sim.Metrics.t * Counters.snapshot option

type memo = {
  compiled : Vliw_compiler.Program.t Programs.t;
  mutable machines : Vliw_isa.Machine.t list;  (* one value per equal machine *)
  simulated : outcome Cells.t;
}

(* Bounded like [row_memo], flushed whole: 256 programs are about 75 MB,
   well above the 140 distinct ones of a Quick `exp all`. *)
let memo_capacity = 256

let memo () =
  { compiled = Programs.create 64; machines = []; simulated = Cells.create 64 }

let flush memo =
  Programs.reset memo.compiled;
  memo.machines <- [];
  Cells.reset memo.simulated

let memo_stats memo = (Programs.length memo.compiled, Cells.length memo.simulated)

type 'a study =
  ?scale:Common.scale ->
  ?seed:int64 ->
  ?jobs:int ->
  ?max_retries:int ->
  ?on_event:(event -> unit) ->
  ?memo:memo ->
  'a

(* [Multitask.compile] through the memo. The machine is interned first,
   so rows on structurally equal machines share one value with their
   programs' signature caches, which keeps [Instr.signature] on its [==]
   fast path. A row that would overflow the memo flushes it first. *)
let row ?(memo = memo ()) ?(machine = Vliw_isa.Machine.default) ?mode ?stream
    ?(perfect_mem = false) ~schedule ~compile_seed ~seed name profiles =
  if Programs.length memo.compiled + List.length profiles > memo_capacity then
    flush memo;
  let machine =
    match List.find_opt (( = ) machine) memo.machines with
    | Some m -> m
    | None ->
      memo.machines <- machine :: memo.machines;
      machine
  in
  let generate ~seed ?(mode = `Block) machine profile =
    let key =
      { pk_machine = machine; pk_mode = mode; pk_seed = seed; pk_profile = profile }
    in
    match Programs.find_opt memo.compiled key with
    | Some program -> program
    | None ->
      let program = Vliw_compiler.Program.generate ~seed ~mode machine profile in
      Programs.add memo.compiled key program;
      program
  in
  let programs =
    Vliw_sim.Multitask.compile ?mode ?stream ~generate ~seed:compile_seed machine
      profiles
  in
  { name; programs; seed; schedule; machine; perfect_mem }

(* The grid row: a Table 2 mix compiled from the master seed and
   simulated on its own derived row seed. *)
let prepare_row ?memo ?(scale = Common.Default) ?(seed = Common.default_seed)
    mix_name =
  row ?memo ~schedule:(Common.schedule_of_scale scale) ~compile_seed:seed
    ~seed:(row_seed ~seed mix_name) mix_name
    (Vliw_workloads.Mixes.find_exn mix_name).members

(* The one place a cell is simulated (retries get a fresh controller). *)
let simulate ?counters row column =
  let config =
    column.col_config (Vliw_sim.Config.make ~machine:row.machine column.col_scheme)
  in
  let controller = Option.map (fun mk -> mk ()) column.col_controller in
  Vliw_sim.Multitask.run_programs config ~perfect_mem:row.perfect_mem
    ~seed:row.seed ~schedule:row.schedule ?counters ?controller
    row.programs

let simulate_prepared row column = Vliw_sim.Metrics.ipc (simulate row column)

(* Compiled grid rows kept across jobs and shards, keyed on (scale,
   seed, mix). A row is about 1.2 MB of programs; 64 rows bound a
   daemon's or a worker's memo at about 75 MB and still hold the rows
   of seven fig10 seeds at once. Over capacity the memo is flushed
   whole: no eviction order to keep, and a flushed row only costs one
   recompile. *)
let row_memo_capacity = 64

type row_memo = (string * int64 * string, row) Hashtbl.t

let row_memo () : row_memo = Hashtbl.create 16

let memo_row (memo : row_memo) ?(compile = fun f -> f ()) ~scale ~seed mix =
  let key = (Common.scale_name scale, seed, mix) in
  match Hashtbl.find_opt memo key with
  | Some row -> row
  | None ->
    if Hashtbl.length memo >= row_memo_capacity then Hashtbl.reset memo;
    let row = compile (fun () -> prepare_row ~scale ~seed mix) in
    Hashtbl.add memo key row;
    row

let snapshot_with extra (base : Counters.snapshot) =
  { base with counters = List.sort compare (extra @ base.counters) }

let cell_of_outcome ?(elapsed_s = 0.0) ?(started_s = 0.0) ?(worker = 0)
    ?telemetry ~attempts ~mix ~scheme outcome =
  let ipc, error =
    match outcome with Ok ipc -> (ipc, None) | Error e -> (Float.nan, Some e)
  in
  { mix; scheme; ipc; elapsed_s; started_s; worker; telemetry; attempts; error }

let ledger_cell c =
  {
    Vliw_telemetry.Ledger.mix = c.mix;
    scheme = c.scheme;
    ipc = c.ipc;
    elapsed_s = c.elapsed_s;
    started_s = c.started_s;
    worker = c.worker;
    attempts = c.attempts;
    degraded = c.error <> None;
  }

(* --- sweep bookkeeping: the journal and the tally -------------------- *)

type journal = {
  file : Checkpoint.journal;
  row_seed_of : string -> int64;
  counted : bool;  (* the sweep runs with telemetry *)
}

let open_journal ?log ?(resume = false) ?(telemetry = false) ?row_seed:row_seed_of
    ~scale ~seed ~scheme_names ~mix_names path =
  let meta =
    {
      Checkpoint.scale = Common.scale_name scale;
      seed;
      scheme_names;
      mix_names;
      telemetry;
    }
  in
  {
    file = Checkpoint.open_journal ?log ~resume ~path meta;
    row_seed_of = Option.value row_seed_of ~default:(row_seed ~seed);
    counted = telemetry;
  }

let restored j ~mix ~scheme =
  Option.map
    (fun (r : Checkpoint.record) ->
      let telemetry =
        if j.counted then
          Some
            (snapshot_with
               [ (Report.n_sweep_resumed, 1) ]
               {
                 Counters.empty with
                 counters = Option.value ~default:[] r.counters;
               })
        else None
      in
      cell_of_outcome ?telemetry ~attempts:0 ~mix ~scheme (Ok r.ipc))
    (Checkpoint.journaled j.file ~mix ~scheme)

(* Degraded cells are not journaled: a resumed sweep retries them. *)
let journal_cell j c =
  if c.error = None then
    Checkpoint.append j.file
      {
        Checkpoint.mix = c.mix;
        scheme = c.scheme;
        row_seed = j.row_seed_of c.mix;
        ipc = c.ipc;
        attempts = c.attempts;
        counters =
          Option.map (fun (s : Counters.snapshot) -> s.counters) c.telemetry;
      }

module Tally = struct
  type t = {
    emit : event -> unit;
    workers : unit -> int;
    slots : cell option array;
    epoch : float;
    mutable completed : int;
    mutable degraded : int;
    mutable elapsed_sum : float;  (* over the attempted cells *)
    mutable timed : int;
  }

  let create ?(on_event = fun (_ : event) -> ()) ?workers ~scale ~seed ~jobs
      total =
    on_event (Sweep_started { total; jobs; scale = Common.scale_name scale; seed });
    {
      emit = on_event;
      workers = Option.value workers ~default:(fun () -> jobs);
      slots = Array.make total None;
      epoch = Unix.gettimeofday ();
      completed = 0;
      degraded = 0;
      elapsed_sum = 0.0;
      timed = 0;
    }

  let finished t k = Option.is_some t.slots.(k)
  let completed t = t.completed

  (* The one ETA formula: the mean time of the attempted cells so far
     (restored and degraded cells carry no useful timing) times the
     cells still to come, spread over the driver's workers. *)
  let eta t =
    if t.timed = 0 then Float.nan
    else
      t.elapsed_sum /. float_of_int t.timed
      *. float_of_int (Array.length t.slots - t.completed)
      /. float_of_int (max 1 (t.workers ()))

  let finish ?journal t k c =
    if not (finished t k) then begin
      Option.iter (fun j -> journal_cell j c) journal;
      t.slots.(k) <- Some c;
      t.completed <- t.completed + 1;
      if c.error <> None then t.degraded <- t.degraded + 1
      else if c.attempts > 0 then begin
        t.elapsed_sum <- t.elapsed_sum +. c.elapsed_s;
        t.timed <- t.timed + 1
      end;
      t.emit
        (Cell_finished
           {
             cell = c;
             completed = t.completed;
             total = Array.length t.slots;
             eta_s = eta t;
           })
    end

  let cells t =
    Array.map
      (function
        | Some c -> c
        | None -> invalid_arg "Sweep.Tally.cells: unfinished cell")
      t.slots

  let close t =
    let wall_s = Unix.gettimeofday () -. t.epoch in
    t.emit
      (Sweep_finished
         { total = Array.length t.slots; degraded = t.degraded; wall_s });
    wall_s
end

(* The sharing key of a column on a row: its effective configuration
   with the scheme made canonical. Columns with equal keys make the
   same merge decision every cycle, so they simulate bit-identically.
   A controller column is stateful and never shares; a column whose
   configuration does not even build shares nothing either (its own
   simulation fails and degrades the cell as before). *)
let share_key (row : row) column =
  match column.col_controller with
  | Some _ -> None
  | None -> (
    match
      column.col_config (Vliw_sim.Config.make ~machine:row.machine column.col_scheme)
    with
    | config ->
      Some { config with scheme = Vliw_merge.Scheme.canonical config.scheme }
    | exception _ -> None)

(* Column indices grouped into sharing classes, each with its key: each
   class in column order, the classes ordered by their first member (the
   representative). *)
let keyed_classes row cols =
  let keys = Array.map (share_key row) cols in
  let rec group = function
    | [] -> []
    | j :: rest when keys.(j) = None -> (None, [ j ]) :: group rest
    | j :: rest ->
      let same, others = List.partition (fun k -> keys.(k) = keys.(j)) rest in
      (keys.(j), j :: same) :: group others
  in
  group (List.init (Array.length cols) Fun.id)

let classes row cols = List.map snd (keyed_classes row cols)

(* The memo key of a class of [row] whose share key is [config]. *)
let cell_key ~telemetry (row : row) config =
  ( row.programs,
    {
      ck_seed = row.seed;
      ck_schedule = row.schedule;
      ck_perfect_mem = row.perfect_mem;
      ck_config = config;
      ck_telemetry = telemetry;
    } )

(* The one runner of a sharing class, whichever executor drives it: the
   first member not restored simulates, or takes [shared] (a memo hit);
   every later one reuses its outcome, unless it degraded, in which case
   the next one simulates itself. Returns the cells and the class's
   successful outcome, if any. *)
let run_class_sharing ?(telemetry = false) ?(max_retries = 0) ?cell_timeout_s
    ?on_event ?epoch ?(restore = fun _ -> None) ?(fault = fun _ -> ()) ?shared
    ~worker (row : row) cols members =
  let emit ev = match on_event with Some f -> f ev | None -> () in
  let epoch = match epoch with Some t -> t | None -> Unix.gettimeofday () in
  (* One simulation: its metrics and, with telemetry, the snapshot of the
     simulation's own counters (no sweep bookkeeping). [simulate] makes
     a fresh controller per call, so a retried cell replays from
     scratch. *)
  let simulation column () =
    let counters = if telemetry then Some (Counters.create ()) else None in
    let metrics = simulate ?counters row column in
    let snapshot = Option.map Counters.snapshot counters in
    Option.iter
      (fun s ->
        if Vliw_sim.Invariants.enforced () then
          Vliw_sim.Invariants.check_attribution s)
      snapshot;
    (metrics, snapshot)
  in
  (* One attempt at a cell: [run] simulates, or hands back the outcome
     the representative simulated. Raises on a [fault], a simulator
     exception, or a blown per-cell timeout. The timeout is
     enforced after the fact (a domain cannot be preempted
     mid-simulation): the attempt's result is discarded and the cell
     retried or degraded. *)
  let attempt_once j run =
    fault j;
    let t0 = Unix.gettimeofday () in
    let outcome = run () in
    let elapsed = Unix.gettimeofday () -. t0 in
    (match cell_timeout_s with
    | Some limit_s when elapsed > limit_s ->
      raise (Cell_timeout { elapsed_s = elapsed; limit_s })
    | _ -> ());
    (outcome, t0, elapsed)
  in
  (* A cell with its retries: the cell, and the outcome of its
     successful attempt. *)
  let run_cell j run =
    let mix = row.name and scheme = cols.(j).col_name in
    emit (Cell_started { mix; scheme; worker });
    let rec go ~attempt ~timeouts =
      match attempt_once j run with
      | ((metrics, snapshot) as outcome), t0, elapsed ->
        let bookkeeping =
          (if attempt > 1 then [ (Report.n_sweep_retries, attempt - 1) ] else [])
          @ if timeouts > 0 then [ (Report.n_sweep_timeouts, timeouts) ] else []
        in
        ( cell_of_outcome ~elapsed_s:elapsed ~started_s:(t0 -. epoch) ~worker
            ?telemetry:(Option.map (snapshot_with bookkeeping) snapshot)
            ~attempts:attempt ~mix ~scheme
            (Ok (Vliw_sim.Metrics.ipc metrics)),
          Some outcome )
      | exception e ->
        let timeouts =
          match e with Cell_timeout _ -> timeouts + 1 | _ -> timeouts
        in
        let error = Printexc.to_string e in
        if attempt <= max_retries then begin
          emit (Cell_retried { mix; scheme; attempt; error });
          go ~attempt:(attempt + 1) ~timeouts
        end
        else begin
          emit
            (Cell_degraded { mix; scheme; seed = row.seed; attempts = attempt; error });
          let telemetry =
            if telemetry then
              Some
                (snapshot_with
                   ((Report.n_sweep_degraded, 1)
                   :: (Report.n_sweep_retries, attempt - 1)
                   :: (if timeouts > 0 then [ (Report.n_sweep_timeouts, timeouts) ]
                       else []))
                   Counters.empty)
            else None
          in
          ( cell_of_outcome ~started_s:(Unix.gettimeofday () -. epoch) ~worker
              ?telemetry ~attempts:attempt ~mix ~scheme (Error error),
            None )
        end
    in
    go ~attempt:1 ~timeouts:0
  in
  let shared = ref shared in
  let cells =
    List.map
      (fun j ->
        match restore j with
        | Some cell ->
          ({ cell with worker; started_s = Unix.gettimeofday () -. epoch }, None)
        | None ->
          let run =
            match !shared with
            | Some outcome -> fun () -> outcome
            | None -> simulation cols.(j)
          in
          let cell, outcome = run_cell j run in
          if Option.is_none !shared then shared := outcome;
          (cell, Option.map fst outcome))
      members
  in
  (cells, !shared)

let run_class ?telemetry ?max_retries ?cell_timeout_s ?on_event ?epoch ?restore
    ?fault ~worker row cols members =
  fst
    (run_class_sharing ?telemetry ?max_retries ?cell_timeout_s ?on_event ?epoch
       ?restore ?fault ~worker row cols members)

let run_metrics ?(scale = Common.Default) ?(seed = Common.default_seed)
    ?scheme_names ?columns ?mix_names ?rows ?(jobs = 1)
    ?(telemetry = false) ?(max_retries = 0) ?cell_timeout_s
    ?checkpoint ?resume ?log ?on_event ?(memo = memo ()) ()
    =
  let exclusive what = invalid_arg ("Sweep.run_cells: " ^ what ^ " are exclusive") in
  let columns =
    match (columns, scheme_names) with
    | Some [], _ -> invalid_arg "Sweep.run_cells: empty column list"
    | Some _, Some _ -> exclusive "~columns and ~scheme_names"
    | Some cols, None -> cols
    | None, Some names ->
      List.map (fun name -> static_column (Vliw_merge.Catalog.find_exn name)) names
    | None, None -> List.map static_column Vliw_merge.Catalog.four_thread
  in
  (* Rows are compiled up front, in the parent domain: cells must not
     race on catalog lookups or compilation. *)
  let rows =
    match (rows, mix_names) with
    | Some _, Some _ -> exclusive "~rows and ~mix_names"
    | Some rows, None -> rows
    | None, names ->
      List.map (prepare_row ~memo ~scale ~seed)
        (Option.value names ~default:Vliw_workloads.Mixes.names)
  in
  let scheme_names = List.map (fun c -> c.col_name) columns in
  let mix_names = List.map (fun r -> r.name) rows in
  let cols = Array.of_list columns in
  let journal =
    Option.map
      (open_journal ?log ?resume ~telemetry ~scale ~seed ~scheme_names ~mix_names
         ~row_seed:(fun mix -> (List.find (fun r -> r.name = mix) rows).seed))
      checkpoint
  in
  let epoch = Unix.gettimeofday () in
  (* One pool task per sharing class of a row, mix-major, with its memo
     key. *)
  let n_schemes = Array.length cols in
  let units =
    Array.of_list
      (List.concat
         (List.mapi
            (fun i row ->
              List.map
                (fun (key, members) ->
                  (i, row, members, Option.map (cell_key ~telemetry row) key))
                (keyed_classes row cols))
            rows))
  in
  (* Memo lookups, here in the caller's domain before any task starts. *)
  let hits =
    Array.map
      (fun (_, _, _, key) -> Option.bind key (Cells.find_opt memo.simulated))
      units
  in
  let class_task t (i, (row : row), members, _) =
    let restore j =
      Option.bind journal (restored ~mix:row.name ~scheme:cols.(j).col_name)
    and fault j =
      match !inject_failure with
      | Some f when f ~row:i ~col:j ->
        failwith (Printf.sprintf "injected fault in cell (%d, %d)" i j)
      | _ -> ()
    in
    run_class_sharing ~telemetry ~max_retries ?cell_timeout_s ?on_event ~epoch
      ~restore ~fault ?shared:hits.(t) row cols members
  in
  let tasks = Array.mapi class_task units in
  let total_cells = List.length rows * n_schemes in
  let metrics = Array.make total_cells None in
  (* Worker count the pool actually uses (capped at the task count), for
     the start event and the ETA. *)
  let tally =
    Tally.create ?on_event ~scale ~seed
      ~jobs:(Vliw_util.Pool.effective_jobs ~jobs (Array.length tasks))
      total_cells
  in
  (* The pool's result callback is serialized: the tally journals each
     fresh cell (atomic rewrite) before its [Cell_finished]. A journal
     write failure (unwritable path, full disk) aborts the sweep with
     the real error rather than silently dropping checkpoints. *)
  let on_result t res =
    match res with
    | Error _ -> () (* degraded below, once the pool has returned *)
    | Ok (class_cells, outcome) ->
      let i, _, members, key = units.(t) in
      (match (key, hits.(t), outcome) with
      | Some key, None, Some outcome -> Cells.replace memo.simulated key outcome
      | _ -> ());
      List.iter2
        (fun j (cell, m) ->
          let k = (i * n_schemes) + j in
          metrics.(k) <- m;
          Tally.finish ?journal tally k cell)
        members class_cells
  in
  (* [run_cell] already contains every expected failure, so a task
     exception here means the harness itself broke (an [on_event]
     consumer raised, say). [run_results] still isolates it to its
     task, whose cells degrade. *)
  let results = Vliw_util.Pool.run_results ~jobs ~on_result tasks in
  Array.iteri
    (fun t res ->
      match res with
      | Ok _ -> ()
      | Error e ->
        let i, (row : row), members, _ = units.(t) in
        let error = Printexc.to_string e in
        List.iter
          (fun j ->
            let scheme = cols.(j).col_name in
            Option.iter
              (fun f ->
                f
                  (Cell_degraded
                     { mix = row.name; scheme; seed = row.seed; attempts = 0; error }))
              on_event;
            Tally.finish tally ((i * n_schemes) + j)
              (cell_of_outcome ~attempts:0 ~mix:row.name ~scheme (Error error)))
          members)
    results;
  ignore (Tally.close tally : float);
  ( scheme_names,
    mix_names,
    Array.map2 (fun c m -> (c, m)) (Tally.cells tally) metrics )

let run_cells ?scale ?seed ?scheme_names ?columns ?mix_names ?rows ?jobs
    ?telemetry ?max_retries ?cell_timeout_s ?checkpoint ?resume ?log ?on_event
    ?memo () =
  let scheme_names, mix_names, cells =
    run_metrics ?scale ?seed ?scheme_names ?columns ?mix_names ?rows ?jobs
      ?telemetry ?max_retries ?cell_timeout_s ?checkpoint ?resume ?log
      ?on_event ?memo ()
  in
  (scheme_names, mix_names, Array.map fst cells)

let metric f (_, metrics) = Option.fold ~none:Float.nan ~some:f metrics

let grid_of_cells ~scheme_names ~mix_names cells =
  let n_schemes = List.length scheme_names in
  let ipc =
    Array.init (List.length mix_names) (fun i ->
        Array.init n_schemes (fun j -> cells.((i * n_schemes) + j).ipc))
  in
  Common.make_grid ~scheme_names ~mix_names ~ipc

let run ?scale ?seed ?scheme_names ?columns ?mix_names ?rows ?jobs
    ?max_retries ?cell_timeout_s ?checkpoint ?resume ?log ?on_event ?memo () =
  let scheme_names, mix_names, cells =
    run_cells ?scale ?seed ?scheme_names ?columns ?mix_names ?rows ?jobs
      ?max_retries ?cell_timeout_s ?checkpoint ?resume ?log ?on_event ?memo ()
  in
  grid_of_cells ~scheme_names ~mix_names cells

let total_elapsed_s cells =
  Array.fold_left (fun acc c -> acc +. c.elapsed_s) 0.0 cells

let merged_telemetry cells =
  Array.fold_left
    (fun acc c ->
      match c.telemetry with
      | None -> acc
      | Some s -> Counters.merge acc s)
    Counters.empty cells

let chrome_trace ?(process_name = "vliwsim sweep") cells =
  let spans =
    Array.to_list cells
    |> List.map (fun c ->
           {
             Vliw_telemetry.Chrome_trace.lane = c.worker;
             name = Printf.sprintf "%s/%s" c.mix c.scheme;
             start_us = c.started_s *. 1e6;
             dur_us = c.elapsed_s *. 1e6;
             args =
               [
                 ("mix", c.mix);
                 ("scheme", c.scheme);
                 ("ipc", Common.ipc_string c.ipc);
               ];
           })
  in
  let lane_names =
    Array.fold_left (fun acc c -> max acc c.worker) 0 cells |> fun hi ->
    List.init (hi + 1) (fun w -> (w, Printf.sprintf "worker %d" w))
  in
  Vliw_telemetry.Chrome_trace.of_spans ~process_name ~lane_names spans

let telemetry_csv cells =
  let rows =
    Array.to_list cells
    |> List.concat_map (fun c ->
           match c.telemetry with
           | None -> []
           | Some s ->
             List.map
               (fun (name, v) -> [ c.mix; c.scheme; name; string_of_int v ])
               s.Counters.counters)
  in
  ([ "mix"; "scheme"; "counter"; "value" ], rows)
