(* Per-timeslice merge-scheme controller.

   The multitasking harness consults the controller at every timeslice
   boundary with an observation of the slice that just ended; the
   controller answers with the scheme the next slice should run. The
   harness performs the actual [Core.switch_scheme] (charging the
   penalty) whenever the answer differs from the installed scheme.

   Candidates are restricted to one hardware-cost envelope — a
   {!Vliw_merge.Catalog} performance group — so the controller never
   "upgrades" the machine, it only reconfigures comparable hardware
   (enforced with {!Vliw_cost.Scheme_cost.comparable}).

   Policies:
   - [Static]: never switches. Exists so the whole adaptive plumbing can
     be engaged and property-tested as bit-identical to the plain
     engine.
   - [Oracle_sample]: samples every candidate for a fixed number of
     slices, then commits to the best observed IPC for the rest of the
     run — an upper-ish baseline the hill-climber is judged against.
   - [Hill_climb]: every [explore_period] slices, probes one neighbour
     along the SMT-block-count axis for a slice and adopts it only if
     its observed IPC beats the incumbent's estimate by [hysteresis].
     The probe direction is telemetry-driven: conflict-dominated
     rejects or a heavily imbalanced thread mix push toward more SMT
     (operation-level sharing), capacity-dominated rejects push toward
     more CSMT; a slice dominated by D$ misses skips probing entirely
     (memory-bound slices make every scheme look alike, so a probe only
     pays switch penalties).

   Every decision is deterministic: no RNG, no wall clock — the same
   observation stream always yields the same switch schedule, which is
   what keeps adaptive sweep cells retry- and resume-safe. *)

module Scheme = Vliw_merge.Scheme
module Catalog = Vliw_merge.Catalog

type candidate = { name : string; scheme : Scheme.t }

type obs = {
  slice : int;  (* 0-based index of the timeslice that just ended *)
  cycles : int;  (* cycles the slice actually ran *)
  ops : int;  (* operations issued during the slice *)
  instrs : int;  (* instructions issued during the slice *)
  per_thread_ops : int array;  (* per-thread retired-ops delta *)
  rejects_conflict : int;  (* merge rejects in the slice, by cause *)
  rejects_capacity : int;
  icache_misses : int;  (* cache-miss deltas over the slice *)
  dcache_misses : int;
}

type policy =
  | Static
  | Oracle_sample of { probe_slices : int }
  | Hill_climb of { explore_period : int; hysteresis : float; ewma : float }

let default_hill =
  Hill_climb { explore_period = 2; hysteresis = 0.02; ewma = 0.5 }

let default_oracle = Oracle_sample { probe_slices = 1 }

let policy_to_string = function
  | Static -> "static"
  | Oracle_sample { probe_slices } ->
    Printf.sprintf "oracle(probe=%d)" probe_slices
  | Hill_climb { explore_period; hysteresis; ewma } ->
    Printf.sprintf "hill(period=%d,hysteresis=%g,ewma=%g)" explore_period
      hysteresis ewma

type t = {
  policy : policy;
  candidates : candidate array;
  penalty : from_:Scheme.t -> to_:Scheme.t -> int;
  estimates : float array;  (* EWMA IPC per candidate; nan = unseen *)
  smt_order : int array;  (* candidate indices sorted by SMT block count *)
  mutable owner : int;  (* candidate scheduled for the running slice *)
  mutable anchor : int;  (* hill-climb: the committed incumbent *)
  mutable probing : bool;  (* hill-climb: the owner is a probe *)
  mutable locked : bool;  (* oracle: sampling phase finished *)
  mutable switches : int;  (* owner changes decided so far *)
  mutable decisions : (int * string) list;  (* (slice, scheme), newest first *)
}

let group_candidates name =
  let entry = Catalog.find_exn name in
  List.filter_map
    (fun (e : Catalog.entry) ->
      if e.perf_group = entry.perf_group then
        Some { name = e.name; scheme = e.scheme }
      else None)
    Catalog.all

let create ?switch_penalty policy ~candidates ~initial =
  if candidates = [] then invalid_arg "Controller.create: no candidates";
  let candidates = Array.of_list candidates in
  let initial_idx =
    match
      Array.to_list candidates
      |> List.mapi (fun i c -> (i, c))
      |> List.find_opt (fun (_, c) -> c.name = initial)
    with
    | Some (i, _) -> i
    | None ->
      invalid_arg
        (Printf.sprintf "Controller.create: initial scheme %S not a candidate"
           initial)
  in
  let reference = candidates.(initial_idx).scheme in
  Array.iter
    (fun c ->
      if Scheme.n_threads c.scheme <> Scheme.n_threads reference then
        invalid_arg
          (Printf.sprintf "Controller.create: %s has a different thread count"
             c.name);
      if not (Vliw_cost.Scheme_cost.comparable reference c.scheme) then
        invalid_arg
          (Printf.sprintf
             "Controller.create: %s is not hardware-cost comparable to %s"
             c.name initial))
    candidates;
  let penalty =
    match switch_penalty with
    | Some f -> f
    | None -> fun ~from_ ~to_ -> Vliw_cost.Scheme_cost.switch_penalty from_ to_
  in
  let smt_order =
    let smt i = Scheme.block_count Vliw_merge.Scheme_kind.Smt candidates.(i).scheme in
    let order = Array.init (Array.length candidates) Fun.id in
    Array.sort
      (fun a b ->
        match compare (smt a) (smt b) with 0 -> compare a b | c -> c)
      order;
    order
  in
  {
    policy;
    candidates;
    penalty;
    estimates = Array.make (Array.length candidates) Float.nan;
    smt_order;
    owner = initial_idx;
    anchor = initial_idx;
    probing = false;
    locked = false;
    switches = 0;
    decisions = [ (0, candidates.(initial_idx).name) ];
  }

let current t = t.candidates.(t.owner)

let switches t = t.switches

let decisions t = List.rev t.decisions

let switch_penalty t ~from_ ~to_ = t.penalty ~from_ ~to_

(* EWMA update of the owner's IPC estimate from the finished slice. *)
let observe t (obs : obs) ~alpha =
  if obs.cycles > 0 then begin
    let ipc = float_of_int obs.ops /. float_of_int obs.cycles in
    let old = t.estimates.(t.owner) in
    t.estimates.(t.owner) <-
      (if Float.is_nan old then ipc else (alpha *. ipc) +. ((1.0 -. alpha) *. old))
  end

let argmax_estimate t =
  let best = ref t.owner and best_v = ref neg_infinity in
  Array.iteri
    (fun i v ->
      if (not (Float.is_nan v)) && v > !best_v then begin
        best := i;
        best_v := v
      end)
    t.estimates;
  !best

(* Neighbour of the anchor along the SMT-block-count order, in the
   telemetry-suggested direction; reverses at the ends. *)
let neighbour t ~dir =
  let n = Array.length t.smt_order in
  let pos = ref 0 in
  Array.iteri (fun p i -> if i = t.anchor then pos := p) t.smt_order;
  let target = !pos + dir in
  let target = if target < 0 || target >= n then !pos - dir else target in
  if target < 0 || target >= n then t.anchor else t.smt_order.(target)

let set_owner t ~slice idx =
  if idx <> t.owner then begin
    t.owner <- idx;
    t.switches <- t.switches + 1
  end;
  (* One decision record per boundary, switch or not: the per-slice
     scheme trail the adaptive experiment reports. *)
  t.decisions <- (slice, t.candidates.(idx).name) :: t.decisions

let decide t (obs : obs) =
  let next_slice = obs.slice + 1 in
  (match t.policy with
  | Static -> observe t obs ~alpha:0.5
  | Oracle_sample { probe_slices } ->
    observe t obs ~alpha:0.5;
    let n = Array.length t.candidates in
    let probe_slices = max 1 probe_slices in
    let phase = probe_slices * n in
    if t.locked then ()
    else if next_slice < phase then
      set_owner t ~slice:next_slice
        ((t.anchor + (next_slice / probe_slices)) mod n)
    else begin
      t.locked <- true;
      set_owner t ~slice:next_slice (argmax_estimate t)
    end
  | Hill_climb { explore_period; hysteresis; ewma } ->
    observe t obs ~alpha:ewma;
    if t.probing then begin
      (* The probe slice just ran: adopt on a clear win, retreat
         otherwise. The probe's estimate already paid the switch
         penalty (the bubble cycles count against its slice). *)
      t.probing <- false;
      let probe_v = t.estimates.(t.owner)
      and anchor_v = t.estimates.(t.anchor) in
      if
        (not (Float.is_nan probe_v))
        && (Float.is_nan anchor_v || probe_v > anchor_v *. (1.0 +. hysteresis))
      then begin
        t.anchor <- t.owner;
        set_owner t ~slice:next_slice t.owner
      end
      else set_owner t ~slice:next_slice t.anchor
    end
    else begin
      let memory_bound =
        obs.instrs > 0
        && float_of_int obs.dcache_misses /. float_of_int obs.instrs > 0.25
      in
      let due = next_slice mod max 1 explore_period = 0 in
      if due && (not memory_bound) && Array.length t.candidates > 1 then begin
        let total_ops = Array.fold_left ( + ) 0 obs.per_thread_ops in
        let max_ops = Array.fold_left max 0 obs.per_thread_ops in
        let imbalanced =
          total_ops > 0 && float_of_int max_ops /. float_of_int total_ops > 0.7
        in
        let dir =
          if obs.rejects_conflict >= obs.rejects_capacity || imbalanced then 1
          else -1
        in
        let target = neighbour t ~dir in
        if target <> t.anchor then begin
          t.probing <- true;
          set_owner t ~slice:next_slice target
        end
      end
    end);
  t.candidates.(t.owner)
