(* The coordinator's decisions without I/O (dispatch.mli documents the
   contract). Single-threaded and deterministic: the only clock is the
   [now] each input carries, peers are visited in id order, and the
   actions of a step come out in the order they were decided. *)

module E = Vliw_experiments

type stats = {
  mutable cells_simulated : int; mutable cells_restored : int; mutable cells_retried : int;
  mutable cells_degraded : int; mutable shards_dispatched : int; mutable shards_completed : int;
  mutable shards_requeued : int; mutable workers_spawned : int; mutable workers_attached : int;
  mutable workers_died : int; mutable workers_timeouts : int;
}

type config = {
  scale : string; seeds : int64 list; mix_names : string list; scheme_names : string list;
  shard_size : int option; fleet : int; spawn : int; listening : bool; max_retries : int;
  shard_timeout_s : float option;
}

type loss = Hangup | Failed of string

type input =
  | Joined of { peer : int; spawned : bool }
  | Message of int * Protocol.from_worker
  | Lost of int * loss
  | Tick

type closing = Quit | Drop | Kill of string

type action =
  | Assign of { peer : int; assign : Protocol.assign; queued_at : float }
  | Reply_stats of int
  | Close of int * closing
  | Spawn
  | Finish of int * E.Sweep.cell
  | Event of E.Sweep.event
  | Done
  | Stuck

(* A queued or held shard: the slots its holder has not reported yet. A
   slot is a replicate's offset plus the cell's mix-major index. Every
   shard, planned or re-queued, gets a fresh dense id. *)
type shard = {
  id : int;
  seed_idx : int;
  mutable slots : int list;
  born : float;
}

type peer = {
  spawned : bool;
  mutable ready : bool;
  mutable shard : shard option;
  mutable deadline : float;  (* infinity when idle or without a timeout *)
}

type t = {
  cfg : config;
  seeds : int64 array;
  cells : Plan.cell_spec array;  (* one replicate's grid, mix-major *)
  index : (string * string, int) Hashtbl.t;
  finished : bool array;  (* per slot *)
  attempts : int array;  (* failed simulation attempts per slot *)
  deaths : int array;  (* dying holders per slot *)
  mutable completed : int;
  queue : shard Queue.t;
  shard_seed : (int, int) Hashtbl.t;  (* every shard id issued *)
  mutable next_shard : int;
  peers : (int, peer) Hashtbl.t;
  mutable spawns : int;  (* spawn attempts *)
  stats : stats;
  t0 : float;
  mutable drain_until : float option;  (* set once every slot finished *)
  mutable over : bool;
  mutable out : action list;  (* the step's actions, newest first *)
}

let emit t a = t.out <- a :: t.out
let n_cells t = Array.length t.cells

let peers t =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun p w acc -> (p, w) :: acc) t.peers [])

let deadline t now =
  match t.cfg.shard_timeout_s with Some s -> now +. s | None -> infinity

(* The one constructor of a shard: planned, re-queued and retried cells
   all enter the queue here. *)
let enqueue t ~now seed_idx slots =
  let s = { id = t.next_shard; seed_idx; slots; born = now } in
  t.next_shard <- s.id + 1;
  Hashtbl.replace t.shard_seed s.id seed_idx;
  Queue.push s t.queue

(* Callers finish a slot once: the result guard, the release filter and
   the restore pass each skip finished slots. *)
let finish t k (cell : E.Sweep.cell) =
  t.finished.(k) <- true;
  t.completed <- t.completed + 1;
  let s = t.stats in
  if cell.error <> None then s.cells_degraded <- s.cells_degraded + 1
  else if cell.attempts = 0 then s.cells_restored <- s.cells_restored + 1
  else s.cells_simulated <- s.cells_simulated + 1;
  emit t (Finish (k, cell))

let cell t ~now ?elapsed_s ~worker ~attempts k outcome =
  let c = t.cells.(k mod n_cells t) in
  E.Sweep.cell_of_outcome ?elapsed_s ~started_s:(now -. t.t0) ~worker ~attempts ~mix:c.mix
    ~scheme:c.scheme outcome

let degrade t ~now ?elapsed_s ~worker k error =
  let c = t.cells.(k mod n_cells t) in
  let seed = E.Sweep.row_seed ~seed:t.seeds.(k / n_cells t) c.mix in
  let attempts = t.attempts.(k) in
  emit t (Event (E.Sweep.Cell_degraded { mix = c.mix; scheme = c.scheme; seed; attempts; error }));
  finish t k (cell t ~now ?elapsed_s ~worker ~attempts k (Error error))

(* The one re-queue of a held shard's remainder: when its holder reports
   it done (cells it skipped) or leaves (cells it stranded). A death
   charges each stranded cell; one held by more than [max_retries + 3]
   dying workers degrades instead of re-queuing. *)
let release t ~now ~died p w =
  match w.shard with
  | None -> ()
  | Some s ->
    w.shard <- None;
    w.deadline <- infinity;
    let charge k =
      t.deaths.(k) <- t.deaths.(k) + 1;
      t.deaths.(k) <= t.cfg.max_retries + 3
      || (degrade t ~now ~worker:p k "worker died repeatedly while simulating this cell";
          false)
    in
    let live = List.filter (fun k -> (not t.finished.(k)) && ((not died) || charge k)) s.slots in
    if live <> [] then begin
      t.stats.shards_requeued <- t.stats.shards_requeued + 1;
      enqueue t ~now s.seed_idx live
    end

(* The one way a peer leaves: forget it, tell the shell how to close
   it, and release what it held. *)
let close t ~now p how =
  match Hashtbl.find_opt t.peers p with
  | None -> ()
  | Some w ->
    Hashtbl.remove t.peers p;
    let died = match how with Kill _ -> true | Quit | Drop -> false in
    if died then t.stats.workers_died <- t.stats.workers_died + 1;
    emit t (Close (p, how));
    release t ~now ~died p w

let result t ~now p w c_shard (r : Protocol.cell_result) =
  match (Hashtbl.find_opt t.shard_seed c_shard, Hashtbl.find_opt t.index (r.r_mix, r.r_scheme)) with
  | Some seed_idx, Some i ->
    let k = (seed_idx * n_cells t) + i in
    (match w.shard with
    | Some s when s.id = c_shard ->
      s.slots <- List.filter (( <> ) k) s.slots;
      (* progress resets the silence budget *)
      w.deadline <- deadline t now
    | _ -> ());
    (* First result wins: a duplicate after a re-queue race carries the
       same bits, since a cell is a pure function of its key. *)
    if not t.finished.(k) then begin
      match r.r_error with
      | None ->
        let attempts = t.attempts.(k) + 1 in
        finish t k (cell t ~now ~elapsed_s:r.r_elapsed_s ~worker:p ~attempts k (Ok r.r_ipc))
      | Some error ->
        t.attempts.(k) <- t.attempts.(k) + 1;
        if t.attempts.(k) <= t.cfg.max_retries then begin
          t.stats.cells_retried <- t.stats.cells_retried + 1;
          emit t (Event (E.Sweep.Cell_retried
            { mix = r.r_mix; scheme = r.r_scheme; attempt = t.attempts.(k); error }));
          enqueue t ~now seed_idx [ k ]
        end
        else degrade t ~now ~elapsed_s:r.r_elapsed_s ~worker:p k error
    end
  | _ -> () (* a shard never issued, or a cell off the grid *)

let message t ~now p msg =
  match Hashtbl.find_opt t.peers p with
  | None -> ()
  | Some w -> (
    match msg with
    | Protocol.Ready _ ->
      if not (w.ready || w.spawned) then
        t.stats.workers_attached <- t.stats.workers_attached + 1;
      w.ready <- true
    | Protocol.Query_stats ->
      (* a monitor, not a worker: answer and drop the connection *)
      emit t (Reply_stats p);
      close t ~now p Drop
    | Protocol.Cell { c_shard; c_result } -> result t ~now p w c_shard c_result
    | Protocol.Shard_done { d_shard; _ } -> (
      match w.shard with
      | Some s when s.id = d_shard ->
        t.stats.shards_completed <- t.stats.shards_completed + 1;
        release t ~now ~died:false p w
      | _ -> ()))

let rec next_shard t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some s ->
    s.slots <- List.filter (fun k -> not t.finished.(k)) s.slots;
    if s.slots = [] then next_shard t else Some s

(* Pull-based: each idle ready peer, in id order, takes the next queued
   shard that still has an unfinished cell. *)
let dispatch t ~now =
  List.iter
    (fun (p, w) ->
      if w.ready && w.shard = None then
        Option.iter
          (fun s ->
            w.shard <- Some s;
            w.deadline <- deadline t now;
            t.stats.shards_dispatched <- t.stats.shards_dispatched + 1;
            let a_cells = List.map (fun k -> t.cells.(k mod n_cells t)) s.slots in
            let assign =
              { Protocol.a_shard = s.id; a_scale = t.cfg.scale;
                a_seed = t.seeds.(s.seed_idx); a_cells; a_trace = None }
            in
            emit t (Assign { peer = p; assign; queued_at = s.born }))
          (next_shard t))
    (peers t)

(* Time-driven decisions: silence past the shard timeout is a death;
   while the sweep runs, the fleet is topped back up to [spawn] within
   the respawn budget, and with no peer, no listener and no budget left
   the sweep is stuck. *)
let tick t ~now =
  List.iter
    (fun (p, w) ->
      if w.deadline < now then begin
        t.stats.workers_timeouts <- t.stats.workers_timeouts + 1;
        close t ~now p (Kill "shard timeout")
      end)
    (peers t);
  if t.drain_until = None then begin
    let live = Hashtbl.length t.peers in
    let budget = if t.cfg.spawn > 0 then t.cfg.spawn + 8 else 0 in
    let left = t.completed < Array.length t.finished in
    if left && live = 0 && (not t.cfg.listening) && t.spawns >= budget then emit t Stuck
    else if not (Queue.is_empty t.queue) then
      for _ = 1 to min (t.cfg.spawn - live) (budget - t.spawns) do
        t.spawns <- t.spawns + 1;
        emit t Spawn
      done
  end

(* Once every slot is finished the core drains: a worker that has sent
   its shard's last cell still owes the Shard_done that carries the
   shard's trace spans, so the sweep waits for those (5 s at most), then
   tells every peer to quit. A peer joining after that quits at once. *)
let advance t ~now =
  if t.drain_until = None && t.completed = Array.length t.finished then
    t.drain_until <- Some (now +. 5.0);
  match t.drain_until with
  | None -> dispatch t ~now
  | Some until ->
    let owed (_, w) =
      match w.shard with Some s -> s.slots = [] | None -> false
    in
    if t.over || now >= until || not (List.exists owed (peers t)) then begin
      List.iter (fun (p, _) -> close t ~now p Quit) (peers t);
      if not t.over then begin
        t.over <- true;
        emit t Done
      end
    end

let step t ~now input =
  (match input with
  | Joined { peer; spawned } ->
    if spawned then t.stats.workers_spawned <- t.stats.workers_spawned + 1;
    Hashtbl.replace t.peers peer
      { spawned; ready = false; shard = None; deadline = infinity }
  | Message (p, msg) -> message t ~now p msg
  | Lost (p, loss) -> (
    match (Hashtbl.find_opt t.peers p, loss) with
    | None, _ -> ()
    (* a peer that hung up before greeting was never a worker (a
       listener's liveness probe, say): no death is charged *)
    | Some { spawned = false; ready = false; _ }, Hangup -> close t ~now p Drop
    | Some _, Hangup -> close t ~now p (Kill "eof")
    | Some _, Failed reason -> close t ~now p (Kill reason))
  | Tick -> tick t ~now);
  advance t ~now;
  let actions = List.rev t.out in
  t.out <- [];
  actions

let create ?(restored = fun _ _ -> None) cfg ~now =
  let { mix_names; scheme_names; _ } = cfg in
  let cells = Array.of_list (Plan.cells_of_grid ~mix_names ~scheme_names) in
  let seeds = Array.of_list cfg.seeds in
  let n = Array.length cells in
  let total = n * Array.length seeds in
  let index = Hashtbl.create (max 1 n) in
  Array.iteri (fun i (c : Plan.cell_spec) -> Hashtbl.replace index (c.mix, c.scheme) i) cells;
  let t =
    {
      cfg;
      seeds;
      cells;
      index;
      finished = Array.make total false;
      attempts = Array.make total 0;
      deaths = Array.make total 0;
      completed = 0;
      queue = Queue.create ();
      shard_seed = Hashtbl.create 64;
      next_shard = 0;
      peers = Hashtbl.create 8;
      spawns = 0;
      stats =
        { cells_simulated = 0; cells_restored = 0; cells_retried = 0;
          cells_degraded = 0; shards_dispatched = 0; shards_completed = 0;
          shards_requeued = 0; workers_spawned = 0; workers_attached = 0;
          workers_died = 0; workers_timeouts = 0 };
      t0 = now;
      drain_until = None;
      over = false;
      out = [];
    }
  in
  Array.iteri
    (fun idx seed ->
      Array.iteri
        (fun i c -> Option.iter (finish t ((idx * n) + i)) (restored idx c))
        cells;
      List.iter
        (fun (p : Plan.shard) ->
          let slots =
            List.filter_map
              (fun (c : Plan.cell_spec) ->
                let k = (idx * n) + Hashtbl.find index (c.mix, c.scheme) in
                if t.finished.(k) then None else Some k)
              p.cells
          in
          if slots <> [] then enqueue t ~now idx slots)
        (Plan.make ?shard_size:cfg.shard_size ~workers:cfg.fleet ~seeds:[ seed ] ~mix_names
           ~scheme_names ()))
    seeds;
  t

let stats t = t.stats
let queue_depth t = Queue.length t.queue

let workers t =
  List.filter_map
    (fun (p, w) ->
      let held = match w.shard with Some s -> List.length s.slots | None -> 0 in
      if w.spawned || w.ready then Some (p, w.ready, held) else None)
    (peers t)
