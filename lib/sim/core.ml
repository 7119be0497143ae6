module Isa = Vliw_isa
module Merge = Vliw_merge
module Mem = Vliw_mem
module Tel = Vliw_telemetry

type t = {
  config : Config.t;
  mem : Mem.Mem_system.t;
  predictor : Predictor.t;
  n : int;
  width : int;  (* total issue slots per cycle *)
  mutable contexts : Thread_state.t option array;
  mutable cycle : int;
  mutable ops : int;
  mutable instrs : int;
  mutable vertical : int;
  issue_hist : int array;
  mutable live : int;  (* ports offering a candidate this cycle *)
  mutable conflict : int;  (* this cycle's merge rejects by cause, *)
  mutable capacity : int;  (* as thread bitmasks *)
  mutable bmt_current : int;  (* thread owning the pipeline under BMT *)
  mutable switch_stall_until : int;  (* BMT context-switch bubble *)
  mutable telemetry : Tel.Sink.t;  (* the caller's recording sink *)
  events : Tel.Counters.events option;  (* event counter slots *)
  attribution : Tel.Report.handles option;
  counters : Tel.Counters.t option;
  network : Merge.Merge_network.t option;
      (* the swappable merge network (scheme + routing + pooled batched
         evaluators); Some iff the policy is Merged *)
  mutable scheme_switches : int;  (* effective mid-run reconfigurations *)
  mutable switch_stall_cycles : int;
      (* cycles spent inside an issue-stall window (BMT context-switch
         bubbles and scheme-switch penalties) *)
  mutable rejects_conflict : int;  (* merge rejects by cause, always on: *)
  mutable rejects_capacity : int;  (* cheap controller observations *)
  mutable switch_flushed : int * int;
      (* (scheme_switches, switch_stall_cycles) already booked *)
}

let create ?(telemetry = Tel.Sink.null) ?counters config mem =
  let n = Config.contexts config in
  let events, attribution =
    match counters with
    | None -> (None, None)
    | Some c -> (Some (Tel.Counters.events c), Some (Tel.Report.attach c))
  in
  let network =
    match config.Config.policy with
    | Policy.Merged ->
      Some
        (Merge.Merge_network.create config.Config.machine
           ~routing:config.Config.routing config.Config.scheme)
    | Policy.Imt | Policy.Bmt _ -> None
  in
  {
    config;
    mem;
    predictor = Predictor.create config.Config.machine.predictor;
    n;
    width = Isa.Machine.total_issue config.Config.machine;
    contexts = Array.make n None;
    cycle = 0;
    ops = 0;
    instrs = 0;
    vertical = 0;
    issue_hist = Array.make (n + 1) 0;
    live = 0;
    conflict = 0;
    capacity = 0;
    bmt_current = 0;
    switch_stall_until = 0;
    telemetry;
    events;
    attribution;
    counters;
    network;
    scheme_switches = 0;
    switch_stall_cycles = 0;
    rejects_conflict = 0;
    rejects_capacity = 0;
    switch_flushed = (0, 0);
  }

let set_sink t sink = t.telemetry <- sink

let install t contexts =
  if Array.length contexts <> t.n then
    invalid_arg "Core.install: context count mismatch";
  t.contexts <- contexts

(* Fetch the thread's next instruction. An I-cache miss stalls the
   thread, which then offers nothing this cycle; returns whether the
   fetch hit. *)
let fetch_pending t ~hw (th : Thread_state.t) =
  let instr = Thread_state.current_instr th in
  th.pending <- instr;
  let stall = Mem.Mem_system.ifetch t.mem instr.Isa.Instr.addr in
  if stall > 0 then begin
    th.resume_at <- t.cycle + stall;
    th.stall_src <- Thread_state.Fetch_stall;
    (match t.events with
    | Some e ->
      Tel.Counters.cache_miss e Tel.Event.L1i;
      Tel.Counters.fetch_stall e
    | None -> ());
    if Tel.Sink.enabled t.telemetry then begin
      Tel.Sink.emit t.telemetry ~cycle:t.cycle
        (Tel.Event.Cache_miss { thread = hw; level = Tel.Event.L1i });
      Tel.Sink.emit t.telemetry ~cycle:t.cycle
        (Tel.Event.Fetch_stall { thread = hw; penalty = stall })
    end
  end;
  stall = 0

(* Fetch pass: every resident, non-stalled thread offers its pending
   instruction (fetching it the first time) and joins the live mask;
   under the merged policy the instruction's signature is loaded into
   the installed scheme's batched evaluator. *)
let fetch t =
  t.live <- 0;
  (match t.network with
  | Some net -> Merge.Engine.Batch.clear (Merge.Merge_network.batch net)
  | None -> ());
  for i = 0 to t.n - 1 do
    match t.contexts.(i) with
    | None -> ()
    | Some th ->
      if
        (not (Thread_state.stalled th ~now:t.cycle))
        && (th.pending != Thread_state.no_instr || fetch_pending t ~hw:i th)
      then begin
        t.live <- t.live lor (1 lsl i);
        match t.network with
        | Some net ->
          Merge.Engine.Batch.set_port
            (Merge.Merge_network.batch net)
            i
            (Isa.Instr.signature t.config.Config.machine th.pending)
        | None -> ()
      end
  done

(* Sum of D-miss stall penalties over the instruction's memory
   operations. The per-operation work depends only on the operation
   count; top-level recursion with int accumulators keeps the retire
   path free of refs and closures (a [ref] is a minor-heap block, and
   retirement runs inside the zero-allocation steady-state loop). *)
let rec dstall_of t ~hw (th : Thread_state.t) remaining acc =
  if remaining = 0 then acc
  else begin
    let addr = Thread_state.next_addr th in
    let s = Mem.Mem_system.daccess t.mem addr in
    if s > 0 then begin
      (match t.events with
      | Some e -> Tel.Counters.cache_miss e Tel.Event.L1d
      | None -> ());
      if Tel.Sink.enabled t.telemetry then
        Tel.Sink.emit t.telemetry ~cycle:t.cycle
          (Tel.Event.Cache_miss { thread = hw; level = Tel.Event.L1d })
    end;
    dstall_of t ~hw th (remaining - 1)
      (if t.config.stall_on_dmiss then acc + s else acc)
  end

(* Retire [instr] and return its operation count. Every fact retirement
   needs comes from one read of the precomputed signature. *)
let retire t ~hw (th : Thread_state.t) (instr : Isa.Instr.t) =
  let sg = Isa.Instr.signature t.config.Config.machine instr in
  th.instrs_retired <- th.instrs_retired + 1;
  th.ops_retired <- th.ops_retired + sg.sg_ops;
  let dstall = dstall_of t ~hw th sg.sg_mem 0 in
  let bstall =
    if sg.sg_branch then begin
      let taken = Thread_state.next_taken th in
      let target =
        Vliw_compiler.Program.exit_target_idx th.program.blocks.(th.block) th.pc
      in
      assert (target >= 0) (* every branch instruction is an exit *);
      let correct =
        Predictor.predict_and_update t.predictor ~addr:instr.addr ~taken
      in
      if taken then Thread_state.jump_taken th ~target
      else Thread_state.advance_fall_through th;
      if correct then 0 else t.config.machine.branch_penalty
    end
    else begin
      Thread_state.advance_fall_through th;
      0
    end
  in
  th.pending <- Thread_state.no_instr;
  th.resume_at <- t.cycle + 1 + dstall + bstall;
  th.stall_src <-
    (if dstall >= bstall && dstall > 0 then Thread_state.Mem_stall
     else if bstall > 0 then Thread_state.Branch_stall
     else Thread_state.Ready);
  sg.sg_ops

let rec popcount acc m =
  if m = 0 then acc else popcount (acc + 1) (m land (m - 1))

(* Round-robin search of the live mask for the first port at or after
   [hw] (in [0, n)), probing [left] ports; -1 when no thread offers a
   candidate. The wrap is a compare, not a division. *)
let rec first_live t hw left =
  if left = 0 then -1
  else if t.live land (1 lsl hw) <> 0 then hw
  else first_live t (if hw + 1 = t.n then 0 else hw + 1) (left - 1)

(* The issue policy turns the live mask into the issued thread bitmask,
   leaving the cycle's conflict and capacity rejects in [t.conflict] and
   [t.capacity]. *)
let decide t =
  t.conflict <- 0;
  t.capacity <- 0;
  let issued =
    match t.config.policy with
    | Policy.Merged ->
      (* A reconfiguration bubble stalls issue exactly like a BMT
         context-switch bubble; [switch_stall_until] stays 0 unless
         [switch_scheme] charged a penalty. *)
      if t.cycle < t.switch_stall_until then 0
      else begin
        let net = Option.get t.network in
        let batch = Merge.Merge_network.batch net in
        Merge.Engine.Batch.eval batch
          ~rotation:
            (Merge.Merge_network.rotation net ~rotate:t.config.rotate_priority
               ~cycle:t.cycle);
        t.conflict <- Merge.Engine.Batch.rejected_conflict batch;
        t.capacity <- Merge.Engine.Batch.rejected_capacity batch;
        Merge.Engine.Batch.issued batch
      end
    | Policy.Imt ->
      (* One thread per cycle, round-robin with stalled-thread skipping. *)
      let hw = first_live t (t.cycle mod t.n) t.n in
      if hw < 0 then 0 else 1 lsl hw
    | Policy.Bmt { switch_penalty } ->
      if t.cycle < t.switch_stall_until then 0
      else if t.live land (1 lsl t.bmt_current) <> 0 then 1 lsl t.bmt_current
      else begin
        (* The running thread blocked: switch to the next ready one. *)
        let next = t.bmt_current + 1 in
        let hw = first_live t (if next = t.n then 0 else next) t.n in
        if hw < 0 then 0
        else begin
          (match t.events with
          | Some e -> Tel.Counters.bmt_switch e
          | None -> ());
          if Tel.Sink.enabled t.telemetry then
            Tel.Sink.emit t.telemetry ~cycle:t.cycle
              (Tel.Event.Bmt_switch
                 { from_thread = t.bmt_current; to_thread = hw });
          t.bmt_current <- hw;
          if switch_penalty = 0 then 1 lsl hw
          else begin
            t.switch_stall_until <- t.cycle + switch_penalty;
            0
          end
        end
      end
  in
  (* Reject causes are tallied unconditionally (not just under
     telemetry): they are the adaptive controller's cheapest signal. *)
  t.rejects_conflict <- t.rejects_conflict + popcount 0 t.conflict;
  t.rejects_capacity <- t.rejects_capacity + popcount 0 t.capacity;
  if t.cycle < t.switch_stall_until then
    t.switch_stall_cycles <- t.switch_stall_cycles + 1;
  issued

type cycle_record = {
  cycle : int;
  candidates : (int * Merge.Packet.t) list;
  issued : int list;
  packet : Merge.Packet.t option;
}

(* Operation count of the candidates in [mask]. Only asked about
   threads that did not issue, so their instruction is still pending.
   Stops at the mask's highest set bit. *)
let rec pending_ops t mask hw acc =
  if mask lsr hw = 0 then acc
  else if mask land (1 lsl hw) = 0 then pending_ops t mask (hw + 1) acc
  else begin
    match t.contexts.(hw) with
    | None -> assert false
    | Some th ->
      pending_ops t mask (hw + 1) (acc + Isa.Instr.op_count th.pending)
  end

(* A cycle that issued nothing loses its whole width to one vertical
   cause: the majority stall source among resident threads (ties break
   fetch > mem > branch), idle when no thread is resident. Top-level
   recursion with int accumulators, as in [retire_issued]. *)
let rec book_vertical t (h : Tel.Report.handles) hw resident fetch mem br =
  if hw >= t.n then begin
    let cause =
      if resident = 0 then h.v_idle
      else if fetch > 0 && fetch >= mem && fetch >= br then h.v_fetch
      else if mem > 0 && mem >= br then h.v_mem
      else if br > 0 then h.v_branch
      else h.v_idle
    in
    Tel.Counters.add cause t.width
  end
  else begin
    match t.contexts.(hw) with
    | None -> book_vertical t h (hw + 1) resident fetch mem br
    | Some th -> (
      let resident = resident + 1 in
      match th.stall_src with
      | Thread_state.Fetch_stall ->
        book_vertical t h (hw + 1) resident (fetch + 1) mem br
      | Thread_state.Mem_stall ->
        book_vertical t h (hw + 1) resident fetch (mem + 1) br
      | Thread_state.Branch_stall ->
        book_vertical t h (hw + 1) resident fetch mem (br + 1)
      | Thread_state.Ready -> book_vertical t h (hw + 1) resident fetch mem br)
  end

(* Book up to the pending operations of [mask] of the [rem]
   still-unattributed slots to [counter]; returns what remains. *)
let take t counter rem mask =
  let ops = if rem > 0 then pending_ops t mask 0 0 else 0 in
  if ops > 0 then begin
    let x = if ops < rem then ops else rem in
    Tel.Counters.add counter x;
    rem - x
  end
  else rem

(* Exact slot attribution for one cycle; see Vliw_telemetry.Report. *)
let attribute t (h : Tel.Report.handles) ~issued ~issued_ops ~priority =
  let w = t.width in
  Tel.Counters.incr h.cycles;
  Tel.Counters.add h.slots_offered w;
  Tel.Counters.add h.slots_filled issued_ops;
  if issued = 0 then begin
    (* No thread selected (note: a selected nop-only instruction still
       counts as horizontal waste below). *)
    if t.live <> 0 then begin
      (* Candidates present but nothing issued only happens inside a
         switch bubble (BMT context switch or merge-network
         reconfiguration): every other policy issues whenever any
         candidate is live. The bubble-cycle counter makes the
         conservation law "v_switch = width x bubbles" checkable. *)
      Tel.Counters.add h.v_switch w;
      Tel.Counters.incr h.switch_bubbles
    end
    else book_vertical t h 0 0 0 0 0
  end
  else begin
    (* Horizontal: rejected candidates could have filled slots (capped
       at the actual waste, in cause order); the rest is ILP shortfall. *)
    let rem = take t h.h_conflict (w - issued_ops) t.conflict in
    let rem = take t h.h_capacity rem t.capacity in
    let rem = take t h.h_priority rem priority in
    if rem > 0 then Tel.Counters.add h.h_ilp rem
  end

(* The observation pass: event counters, recorded events and exact-sum
   attribution read the cycle's masks and never touch simulator state,
   which is what makes telemetry on and off bit-identical. Candidates
   the policy passed over without a resource reason — ready threads
   IMT/BMT did not select, every candidate of a switch bubble — are
   priority rejects. Counting adds mask popcounts to slots and
   allocates nothing; [Event.t] values are built only for a recording
   sink. *)
let observe t ~issued ~issued_ops =
  let priority = t.live land lnot (issued lor t.conflict lor t.capacity) in
  (match t.events with
  | Some e ->
    Tel.Counters.merge_rejects e Tel.Event.Conflict (popcount 0 t.conflict);
    Tel.Counters.merge_rejects e Tel.Event.Capacity
      (popcount 0 (t.capacity land lnot t.conflict));
    Tel.Counters.merge_rejects e Tel.Event.Priority (popcount 0 priority);
    if issued <> 0 then
      Tel.Counters.issue e ~threads_merged:(popcount 0 issued)
        ~slots_filled:issued_ops
  | None -> ());
  if Tel.Sink.enabled t.telemetry then begin
    let reject thread reason =
      Tel.Sink.emit t.telemetry ~cycle:t.cycle
        (Tel.Event.Merge_reject { thread; reason })
    in
    for hw = 0 to t.n - 1 do
      if t.conflict land (1 lsl hw) <> 0 then reject hw Tel.Event.Conflict
      else if t.capacity land (1 lsl hw) <> 0 then reject hw Tel.Event.Capacity
    done;
    for hw = 0 to t.n - 1 do
      if priority land (1 lsl hw) <> 0 then reject hw Tel.Event.Priority
    done;
    if issued <> 0 then
      Tel.Sink.emit t.telemetry ~cycle:t.cycle
        (Tel.Event.Issue
           {
             threads = Merge.Packet.bits_to_list issued;
             threads_merged = popcount 0 issued;
             slots_filled = issued_ops;
           })
  end;
  match t.attribution with
  | Some h -> attribute t h ~issued ~issued_ops ~priority
  | None -> ()

(* Retire every thread of the issued mask in ascending hardware order,
   so the shared D-cache and predictor see a fixed access interleaving,
   then book the cycle's issue statistics. Top-level recursion with int
   accumulators instead of refs: refs are minor-heap blocks. *)
let rec retire_issued t issued hw issued_ops n_issued =
  if hw >= t.n then begin
    t.ops <- t.ops + issued_ops;
    t.instrs <- t.instrs + n_issued;
    t.issue_hist.(n_issued) <- t.issue_hist.(n_issued) + 1;
    if issued_ops = 0 then t.vertical <- t.vertical + 1
  end
  else if issued land (1 lsl hw) = 0 then
    retire_issued t issued (hw + 1) issued_ops n_issued
  else begin
    match t.contexts.(hw) with
    | None -> assert false
    | Some th ->
      let ops = retire t ~hw th th.pending in
      retire_issued t issued (hw + 1) (issued_ops + ops) (n_issued + 1)
  end

(* Everything after the policy decision. Observation comes last, after
   retirement and only when a sink or the attribution is attached, so
   the steady state stays allocation-free and observing a run does not
   change the kernel under observation. *)
let commit t issued =
  let ops_before = t.ops in
  retire_issued t issued 0 0 0;
  if Tel.Sink.enabled t.telemetry || Option.is_some t.attribution then
    observe t ~issued ~issued_ops:(t.ops - ops_before);
  t.cycle <- t.cycle + 1

let step t =
  fetch t;
  commit t (decide t)

let step_record t =
  fetch t;
  let issued = decide t in
  let machine = t.config.Config.machine in
  let candidates =
    List.filter_map
      (fun hw ->
        match t.contexts.(hw) with
        | Some th when t.live land (1 lsl hw) <> 0 ->
          Some (hw, Merge.Packet.of_instr machine ~thread:hw th.pending)
        | _ -> None)
      (List.init t.n Fun.id)
  in
  (* The merged packet: the candidates folded in union order. *)
  let order =
    match t.network with
    | Some net when issued <> 0 ->
      let b = Merge.Merge_network.batch net in
      List.init (Merge.Engine.Batch.order_len b)
        (Array.get (Merge.Engine.Batch.order b))
    | _ -> Merge.Packet.bits_to_list issued
  in
  let packet =
    match List.map (fun hw -> List.assoc hw candidates) order with
    | [] -> None
    | first :: rest -> Some (List.fold_left Merge.Packet.union first rest)
  in
  let record =
    {
      cycle = t.cycle;
      candidates;
      issued = Merge.Packet.bits_to_list issued;
      packet;
    }
  in
  commit t issued;
  record

let cycle (t : t) = t.cycle

let ops_issued t = t.ops

let instrs_issued t = t.instrs

let issue_hist t = Array.copy t.issue_hist

let vertical_waste_cycles t = t.vertical

let reject_counts t = (t.rejects_conflict, t.rejects_capacity)

(* Swap the merge network to a different scheme. Meant to be called at
   a timeslice boundary: nothing is in flight across cycles (pending
   instructions are re-offered after the bubble and are
   scheme-independent), so the switch point is exact.
   [penalty] cycles of issue stall are charged through the same bubble
   mechanism as BMT context switches. *)
let switch_scheme t ?name ~penalty scheme =
  match t.network with
  | None -> invalid_arg "Core.switch_scheme: policy is not Merged"
  | Some net ->
    if not (Merge.Merge_network.same_scheme net scheme) then begin
      let from_scheme = Merge.Merge_network.scheme_name net in
      Merge.Merge_network.reconfigure net ?name scheme;
      t.scheme_switches <- t.scheme_switches + 1;
      if penalty < 0 then invalid_arg "Core.switch_scheme: negative penalty";
      if penalty > 0 then
        t.switch_stall_until <- max t.switch_stall_until (t.cycle + penalty);
      (match t.events with
      | Some e -> Tel.Counters.scheme_switch e
      | None -> ());
      if Tel.Sink.enabled t.telemetry then
        Tel.Sink.emit t.telemetry ~cycle:t.cycle
          (Tel.Event.Scheme_switch
             {
               from_scheme;
               to_scheme = Merge.Merge_network.scheme_name net;
               penalty;
             })
    end

(* Book the reconfiguration counters not yet flushed, so [metrics] may be
   called repeatedly without double counting; flushed for every policy
   (BMT context-switch bubbles also accumulate stall cycles). *)
let flush_switch_counters t =
  match t.counters with
  | Some c ->
    let fs, fw = t.switch_flushed in
    if t.scheme_switches <> fs || t.switch_stall_cycles <> fw then begin
      Tel.Counters.add
        (Tel.Counters.counter c Tel.Report.n_scheme_switches)
        (t.scheme_switches - fs);
      Tel.Counters.add
        (Tel.Counters.counter c Tel.Report.n_switch_stall)
        (t.switch_stall_cycles - fw);
      t.switch_flushed <- (t.scheme_switches, t.switch_stall_cycles)
    end
  | None -> ()

let metrics t ~all_threads : Metrics.t =
  flush_switch_counters t;
  let ia, im = Mem.Mem_system.icache_stats t.mem in
  let da, dm = Mem.Mem_system.dcache_stats t.mem in
  {
    cycles = t.cycle;
    ops = t.ops;
    instrs = t.instrs;
    issue_hist = Array.copy t.issue_hist;
    vertical_waste_cycles = t.vertical;
    slots_offered = t.cycle * t.width;
    icache_accesses = ia;
    icache_misses = im;
    dcache_accesses = da;
    dcache_misses = dm;
    per_thread =
      Array.map
        (fun (th : Thread_state.t) ->
          {
            Metrics.name = Thread_state.name th;
            ops = th.ops_retired;
            instrs = th.instrs_retired;
          })
        all_threads;
  }
